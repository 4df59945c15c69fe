//! The Adaptive Bit-width Assigner (Sec. 3.3 / Sec. 4.2).
//!
//! Every device traces the value ranges of the messages it sends (forward
//! activations and backward embedding gradients). Periodically the traces
//! are gathered at the master (rank 0), which builds one bi-objective
//! problem per GNN layer and direction, solves them in parallel (the paper
//! uses a thread pool for the same reason), and scatters fresh per-message
//! bit-width assignments back to the workers.
//!
//! The round's messages use the peer-sparse little-endian binary format of
//! the `wire` submodule: a trace carries each non-empty peer's `beta`
//! coefficients as raw `f64` bits, a reply one width byte per message.
//! Decoding a received message fails with a typed `AssignWireError`
//! (truncation, trailing bytes, a bad peer, a length that disagrees with the
//! receiver's partition, a width outside {2, 4, 8}) instead of panicking.

mod wire;

use crate::config::TrainingConfig;
use crate::decompose::DevicePartition;
use bytes::Bytes;
use comm::{CostModel, DeviceHandle};
use quant::codec::{HEADER_BYTES, ROW_OVERHEAD_BYTES};
use quant::BitWidth;
use solver::{solve, BiObjectiveProblem, GroupSpec, PairSpec};
use tensor::{Matrix, Rng};
use wire::{AssignMsg, AssignWireError, PeerList, TraceMsg, WireReader};

/// How widths are chosen at each reassignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMode {
    /// Solve the bi-objective problem (AdaQP).
    Adaptive,
    /// Sample one width per group uniformly at random (the Sec. 5.3
    /// ablation).
    UniformRandom,
}

/// Per-device bit-width assignment for every layer and direction.
///
/// `fwd`/`bwd` cover the messages this device *sends*; `fwd_recv`/`bwd_recv`
/// cover the ones it *receives* (the paper's "bit-retrieval index set" —
/// needed to decode the group-major wire format, where row widths are not
/// on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct WidthAssignment {
    /// `fwd[layer][dst]`, aligned with `part.send_sets[dst]`.
    pub fwd: Vec<Vec<Vec<BitWidth>>>,
    /// `bwd[layer][peer]`, aligned with `part.recv_slots[peer]`.
    pub bwd: Vec<Vec<Vec<BitWidth>>>,
    /// Widths of incoming forward messages: `fwd_recv[layer][src]`, aligned
    /// with `part.recv_slots[src]` (the sender's `fwd[layer][me]`).
    pub fwd_recv: Vec<Vec<Vec<BitWidth>>>,
    /// Widths of incoming backward messages: `bwd_recv[layer][src]`, aligned
    /// with `part.send_sets[src]` (the sender's `bwd[layer][me]`).
    pub bwd_recv: Vec<Vec<Vec<BitWidth>>>,
}

impl WidthAssignment {
    /// All messages at one fixed width (the "naive message quantization" of
    /// Sec. 3.2 and the starting state before the first solve).
    pub fn fixed(part: &DevicePartition, num_layers: usize, width: BitWidth) -> Self {
        let per_send: Vec<Vec<Vec<BitWidth>>> = (0..num_layers)
            .map(|_| {
                part.send_sets
                    .iter()
                    .map(|s| vec![width; s.len()])
                    .collect()
            })
            .collect();
        let per_recv: Vec<Vec<Vec<BitWidth>>> = (0..num_layers)
            .map(|_| {
                part.recv_slots
                    .iter()
                    .map(|s| vec![width; s.len()])
                    .collect()
            })
            .collect();
        Self {
            fwd: per_send.clone(),
            bwd: per_recv.clone(),
            fwd_recv: per_recv,
            bwd_recv: per_send,
        }
    }

    /// Histogram of assigned widths across all layers/directions:
    /// `(num_2bit, num_4bit, num_8bit)`.
    pub fn histogram(&self) -> (usize, usize, usize) {
        let mut h = (0usize, 0usize, 0usize);
        let count = |h: &mut (usize, usize, usize), w: BitWidth| match w {
            BitWidth::B2 => h.0 += 1,
            BitWidth::B4 => h.1 += 1,
            BitWidth::B8 => h.2 += 1,
        };
        for layer in self.fwd.iter().chain(&self.bwd) {
            for peer in layer {
                for &w in peer {
                    count(&mut h, w);
                }
            }
        }
        h
    }
}

/// Value-range traces for one direction of one layer.
#[derive(Debug, Clone)]
pub struct LayerDirTrace {
    /// Message dimension for this layer/direction.
    pub dim: usize,
    /// `ranges[peer][k]`: last observed `max - min` of message `k`.
    pub ranges: Vec<Vec<f32>>,
}

/// All traced data on one device.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Forward traces per layer (message dim = the layer's input dim).
    pub fwd: Vec<LayerDirTrace>,
    /// Backward traces per layer (embedding-gradient messages).
    pub bwd: Vec<LayerDirTrace>,
}

impl Trace {
    /// Creates an empty trace. `layer_in_dims[l]` is layer `l`'s input
    /// feature dimension (both directions of layer `l` move vectors of that
    /// size).
    pub fn new(part: &DevicePartition, layer_in_dims: &[usize]) -> Self {
        let mk = |sets: &[Vec<u32>], dim: usize| LayerDirTrace {
            dim,
            ranges: sets.iter().map(|s| vec![1.0f32; s.len()]).collect(),
        };
        Self {
            fwd: layer_in_dims
                .iter()
                .map(|&d| mk(&part.send_sets, d))
                .collect(),
            bwd: layer_in_dims
                .iter()
                .map(|&d| mk(&part.recv_slots, d))
                .collect(),
        }
    }

    /// Records forward message ranges for `layer` from the current local
    /// embedding matrix.
    pub fn record_fwd(&mut self, part: &DevicePartition, layer: usize, x: &Matrix) {
        for (q, set) in part.send_sets.iter().enumerate() {
            for (k, &li) in set.iter().enumerate() {
                self.fwd[layer].ranges[q][k] = row_range(x.row(li as usize));
            }
        }
    }

    /// Records backward (embedding-gradient) message ranges for `layer` from
    /// the extended gradient matrix.
    pub fn record_bwd(&mut self, part: &DevicePartition, layer: usize, grad_ext: &Matrix) {
        for (q, slots) in part.recv_slots.iter().enumerate() {
            for (k, &slot) in slots.iter().enumerate() {
                self.bwd[layer].ranges[q][k] =
                    row_range(grad_ext.row(part.num_local() + slot as usize));
            }
        }
    }
}

fn row_range(row: &[f32]) -> f32 {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &v in row {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    if row.is_empty() || mx <= mn {
        0.0
    } else {
        mx - mn
    }
}

/// Observability record of one reassignment round, identical on every rank
/// (the master broadcasts it alongside the measured solve time).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Measured master solve time in seconds (host wall-clock; the paper
    /// blocks workers while the master solves, so trainers charge it on
    /// every device).
    pub secs: f64,
    /// Candidate assignments evaluated across all per-(layer, direction)
    /// solver runs.
    pub iterations: u64,
    /// Sum of the scalarized objectives over the solved problems.
    pub objective_sum: f64,
    /// Number of bi-objective problems solved this round.
    pub problems: u64,
}

impl SolveStats {
    /// Packs the stats into the 32-byte broadcast payload.
    fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&self.secs.to_le_bytes());
        // Iteration counts stay far below 2^53, so the f64 encoding is exact.
        out[8..16].copy_from_slice(&(self.iterations as f64).to_le_bytes());
        out[16..24].copy_from_slice(&self.objective_sum.to_le_bytes());
        // Problem counts stay far below 2^53, so the f64 encoding is exact.
        out[24..32].copy_from_slice(&(self.problems as f64).to_le_bytes());
        out
    }

    /// Parses the broadcast payload written by [`SolveStats::to_bytes`].
    fn from_bytes(raw: &[u8]) -> Result<Self, AssignWireError> {
        let mut r = WireReader::new(raw);
        let stats = SolveStats {
            secs: r.f64()?,
            // Roundtrip of a count encoded as f64 by to_bytes; exact below 2^53.
            iterations: r.f64()? as u64,
            objective_sum: r.f64()?,
            // Roundtrip of a count encoded as f64 by to_bytes; exact below 2^53.
            problems: r.f64()? as u64,
        };
        r.finish()?;
        Ok(stats)
    }
}

/// Runs one reassignment round (all ranks must call this collectively).
///
/// Returns the new assignment and the round's [`SolveStats`] (identical on
/// every rank; the paper blocks workers while the master solves, so trainers
/// charge the solve time on every device).
pub fn reassign(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    cost: &CostModel,
    trace: &Trace,
    cfg: &TrainingConfig,
    mode: AssignMode,
    rng: &mut Rng,
) -> (WidthAssignment, SolveStats) {
    match mode {
        AssignMode::UniformRandom => {
            // No coordination needed: each device samples per-group widths
            // for its outgoing messages. (Group structure mirrors the
            // adaptive path so the comparison isolates the *choice* of
            // widths, as in Sec. 5.3.)
            let num_layers = trace.fwd.len();
            let mut assignment = WidthAssignment::fixed(part, num_layers, BitWidth::B8);
            for l in 0..num_layers {
                sample_uniform(&mut assignment.fwd[l], cfg.group_size, rng);
                sample_uniform(&mut assignment.bwd[l], cfg.group_size, rng);
            }
            // Receive-side tables stay at the B8 placeholder: uniform mode
            // samples widths locally without coordination, so peers cannot
            // know them — the row-major wire format (which carries widths)
            // must be used with this mode.
            (assignment, SolveStats::default())
        }
        AssignMode::Adaptive => reassign_adaptive(dev, part, cost, trace, cfg),
    }
}

fn sample_uniform(per_peer: &mut [Vec<BitWidth>], group_size: usize, rng: &mut Rng) {
    let gs = group_size.max(1);
    for widths in per_peer.iter_mut() {
        let len = widths.len();
        let mut k = 0;
        while k < len {
            let w = BitWidth::ALL[rng.below(3)];
            for slot in &mut widths[k..(k + gs).min(len)] {
                *slot = w;
            }
            k += gs;
        }
    }
}

fn reassign_adaptive(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    cost: &CostModel,
    trace: &Trace,
    cfg: &TrainingConfig,
) -> (WidthAssignment, SolveStats) {
    let num_layers = trace.fwd.len();
    // Step 1-2 (Fig. 6): build and gather per-device betas.
    let payload = Bytes::from(wire::encode_trace(&trace_msg(part, trace)));
    let gathered = dev.gather(0, payload);

    // Step 3: master solves one problem per (layer, direction) in parallel.
    let reply = if let Some(parts_raw) = gathered {
        let n = parts_raw.len();
        let all = parts_raw
            .iter()
            .map(|b| wire::decode_trace(b, n, num_layers))
            .collect::<Result<Vec<TraceMsg>, _>>()
            // lint:allow(no-panic): every rank encodes its trace with wire::encode_trace in this round
            .expect("gathered traces decode");
        let dims: Vec<usize> = trace.fwd.iter().map(|t| t.dim).collect();
        let ((replies, mut stats), secs) =
            comm::timing::measure(|| master_solve(&all, &dims, cost, cfg));
        stats.secs = secs;
        let payloads: Vec<Bytes> = replies
            .iter()
            .map(|r| Bytes::from(wire::encode_reply(r)))
            .collect();
        // Piggy-back the solve stats: broadcast after scatter.
        let own = dev.scatter(0, Some(payloads));
        let stats_b = dev.broadcast(0, Some(Bytes::from(stats.to_bytes().to_vec())));
        (own, stats_b)
    } else {
        let own = dev.scatter(0, None);
        let stats_b = dev.broadcast(0, None);
        (own, stats_b)
    };
    let (own, stats_bytes) = reply;
    let solve_stats = SolveStats::from_bytes(&stats_bytes);
    wire::decode_reply(&own, part, num_layers)
        .and_then(|assignment| solve_stats.map(|stats| (assignment, stats)))
        // lint:allow(no-panic): the master encodes this reply and stats from this round's partitions
        .expect("master reply decodes")
}

/// This device's contribution to the round: the betas of every non-empty
/// peer, per layer and direction.
fn trace_msg(part: &DevicePartition, trace: &Trace) -> TraceMsg {
    TraceMsg {
        fwd_betas: trace.fwd.iter().map(|t| fwd_betas(part, t)).collect(),
        bwd_betas: trace.bwd.iter().map(|t| bwd_betas(part, t)).collect(),
    }
}

/// Sender-side `beta_k` for forward messages: `alpha_sq * D * range^2 / 6`.
fn fwd_betas(part: &DevicePartition, t: &LayerDirTrace) -> PeerList<f64> {
    nonempty_peers(
        part.send_alpha_sq.iter().zip(&t.ranges),
        |(alphas, ranges)| {
            alphas
                .iter()
                .zip(ranges)
                .map(|(&a, &r)| quant::variance::beta(a, t.dim, r))
                .collect()
        },
    )
}

/// `beta_k` for backward (gradient) messages. Gradient rows arriving at the
/// owner are accumulated with unit coefficient (the aggregation weights were
/// already applied by `A^T` on the sender), so `alpha_sq = 1`.
fn bwd_betas(part: &DevicePartition, t: &LayerDirTrace) -> PeerList<f64> {
    nonempty_peers(part.recv_slots.iter().zip(&t.ranges), |(slots, ranges)| {
        slots
            .iter()
            .zip(ranges)
            .map(|(_, &r)| quant::variance::beta(1.0, t.dim, r))
            .collect()
    })
}

/// Maps each peer's entry to its items, leaving out peers without messages.
fn nonempty_peers<I: Iterator>(per_peer: I, items: impl Fn(I::Item) -> Vec<f64>) -> PeerList<f64> {
    per_peer
        .enumerate()
        .map(|(peer, entry)| (peer as u32, items(entry)))
        .filter(|(_, betas)| !betas.is_empty())
        .collect()
}

/// One solved (layer, direction) task: `widths[src]` as a peer list, the
/// solver's candidate-evaluation count, and its objective value.
type SolvedTask = (Vec<PeerList<BitWidth>>, u64, f64);

/// Builds and solves the per-(layer, direction) problems on the master.
/// `dims[layer]` is the layer's message dimension. Returns the per-device
/// replies plus aggregate solve stats (`secs` is left zero for the caller to
/// fill in from its own timer).
fn master_solve(
    all: &[TraceMsg],
    dims: &[usize],
    cost: &CostModel,
    cfg: &TrainingConfig,
) -> (Vec<AssignMsg>, SolveStats) {
    let n = all.len();
    let num_layers = dims.len();
    // Task list: (layer, is_bwd).
    let tasks: Vec<(usize, bool)> = (0..num_layers)
        .flat_map(|l| [(l, false), (l, true)])
        .collect();
    // Solve tasks in parallel (paper: thread pool on the master device).
    let solutions: Vec<SolvedTask> = std::thread::scope(|scope| {
        let joins: Vec<_> = tasks
            .iter()
            .map(|&(layer, is_bwd)| {
                scope.spawn(move || solve_one(all, dims[layer], cost, cfg, layer, is_bwd))
            })
            .collect();
        joins
            .into_iter()
            // lint:allow(no-panic): propagating a solver-thread panic; the solver itself is panic-free
            .map(|j| j.join().expect("solver task panicked"))
            .collect()
    });
    let mut stats = SolveStats::default();
    for (_, iterations, objective) in &solutions {
        stats.iterations += iterations;
        stats.objective_sum += objective;
        stats.problems += 1;
    }
    // Reassemble per-device replies.
    let mut replies: Vec<AssignMsg> = (0..n).map(|_| AssignMsg::empty(num_layers)).collect();
    for (&(layer, is_bwd), (per_src, _, _)) in tasks.iter().zip(solutions) {
        for (src, sent) in per_src.into_iter().enumerate() {
            // Mirror to the receiving side: what `src` sends to `dst` is
            // what `dst` receives from `src` (the bit-retrieval index set).
            // Sources ascend, so every receive list stays sorted.
            for (dst, widths) in &sent {
                let reply = &mut replies[*dst as usize];
                let recv = if is_bwd {
                    &mut reply.bwd_recv
                } else {
                    &mut reply.fwd_recv
                };
                recv[layer].push((src as u32, widths.clone()));
            }
            let send = if is_bwd {
                &mut replies[src].bwd
            } else {
                &mut replies[src].fwd
            };
            send[layer] = sent;
        }
    }
    (replies, stats)
}

/// Solves one (layer, direction) problem over messages of dimension `dim`;
/// returns `widths[src]` as a peer list plus the solver's
/// candidate-evaluation count and objective.
fn solve_one(
    all: &[TraceMsg],
    dim: usize,
    cost: &CostModel,
    cfg: &TrainingConfig,
    layer: usize,
    is_bwd: bool,
) -> SolvedTask {
    let n = all.len();
    let group_size = cfg.group_size.max(1);
    // Collect directed pairs with their message betas.
    struct PairRef {
        src: usize,
        dst: u32,
        /// Permutation: sorted-group position -> original message index.
        order: Vec<usize>,
        /// Group boundaries into `order`.
        group_of: Vec<usize>,
        num_groups: usize,
    }
    let mut pair_refs = Vec::new();
    let mut pair_specs = Vec::new();
    for (src, msg) in all.iter().enumerate() {
        let betas_all = if is_bwd {
            &msg.bwd_betas[layer]
        } else {
            &msg.fwd_betas[layer]
        };
        // Peer lists hold non-empty peers only.
        for (dst, betas) in betas_all {
            // Sort messages by beta descending; chunk into groups.
            let mut order: Vec<usize> = (0..betas.len()).collect();
            order.sort_by(|&a, &b| {
                betas[b]
                    .partial_cmp(&betas[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let num_groups = betas.len().div_ceil(group_size);
            let mut group_of = vec![0usize; betas.len()];
            let mut groups = Vec::with_capacity(num_groups);
            for g in 0..num_groups {
                let lo = g * group_size;
                let hi = ((g + 1) * group_size).min(betas.len());
                let beta_sum: f64 = order[lo..hi].iter().map(|&k| betas[k]).sum();
                let count = hi - lo;
                for pos in lo..hi {
                    group_of[pos] = g;
                }
                groups.push(GroupSpec {
                    beta: beta_sum,
                    bytes_per_bit: count as f64 * dim as f64 / 8.0,
                });
            }
            let (theta, gamma) = cost.link_params(src, *dst as usize);
            // Fold fixed wire overhead into gamma.
            let overhead = HEADER_BYTES + betas.len() * ROW_OVERHEAD_BYTES;
            pair_specs.push(PairSpec {
                theta,
                gamma: gamma + theta * overhead as f64,
                groups,
            });
            pair_refs.push(PairRef {
                src,
                dst: *dst,
                order,
                group_of,
                num_groups,
            });
        }
    }
    let problem = BiObjectiveProblem::new(pair_specs, cfg.lambda);
    let sol = solve(&problem);
    // Materialize per-source replies; pairs come in (src, dst) order, so
    // every list ascends by peer.
    let mut out: Vec<PeerList<BitWidth>> = vec![Vec::new(); n];
    for (r, widths) in pair_refs.iter().zip(&sol.widths) {
        assert_eq!(widths.len(), r.num_groups);
        let mut per_msg = vec![BitWidth::B8; r.order.len()];
        for (pos, &orig) in r.order.iter().enumerate() {
            per_msg[orig] = widths[r.group_of[pos]];
        }
        out[r.src].push((r.dst, per_msg));
    }
    (out, sol.iterations as u64, sol.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnn::ConvKind;
    use graph::DatasetSpec;

    fn setup(k: usize) -> Vec<DevicePartition> {
        let ds = DatasetSpec::tiny().generate(21);
        let mut rng = Rng::seed_from(22);
        let p = graph::partition::metis_like(&ds.graph, k, &mut rng);
        crate::decompose::build_partitions(&ds, &p, ConvKind::Gcn)
    }

    #[test]
    fn fixed_assignment_shapes() {
        let parts = setup(3);
        let a = WidthAssignment::fixed(&parts[1], 3, BitWidth::B4);
        assert_eq!(a.fwd.len(), 3);
        for (q, s) in parts[1].send_sets.iter().enumerate() {
            assert_eq!(a.fwd[0][q].len(), s.len());
        }
        for (q, s) in parts[1].recv_slots.iter().enumerate() {
            assert_eq!(a.bwd[2][q].len(), s.len());
        }
        let (h2, h4, h8) = a.histogram();
        assert_eq!(h2, 0);
        assert_eq!(h8, 0);
        assert!(h4 > 0);
    }

    #[test]
    fn trace_records_ranges() {
        let parts = setup(2);
        let part = &parts[0];
        let mut trace = Trace::new(part, &[4, 4]);
        let x = Matrix::from_fn(part.num_local(), 4, |i, j| (i as f32) * 0.1 + j as f32);
        trace.record_fwd(part, 0, &x);
        // Every message row has range 3.0 (j spans 0..4).
        for q in 0..2 {
            for &r in &trace.fwd[0].ranges[q] {
                assert!((r - 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn row_range_edge_cases() {
        assert_eq!(row_range(&[]), 0.0);
        assert_eq!(row_range(&[5.0, 5.0]), 0.0);
        assert_eq!(row_range(&[-1.0, 2.0]), 3.0);
    }

    #[test]
    fn uniform_sampling_respects_groups() {
        let parts = setup(2);
        let part = &parts[0];
        let cfg = TrainingConfig {
            group_size: 4,
            ..TrainingConfig::default()
        };
        let mut rng = Rng::seed_from(33);
        let mut a = WidthAssignment::fixed(part, 2, BitWidth::B8);
        sample_uniform(&mut a.fwd[0], cfg.group_size, &mut rng);
        // Each group of 4 consecutive messages shares a width.
        for per_peer in &a.fwd[0] {
            for chunk in per_peer.chunks(4) {
                assert!(chunk.iter().all(|&w| w == chunk[0]));
            }
        }
    }

    #[test]
    fn betas_scale_with_range_squared() {
        let parts = setup(2);
        let part = &parts[0];
        let mut t = LayerDirTrace {
            dim: 16,
            ranges: part
                .send_sets
                .iter()
                .map(|s| vec![1.0f32; s.len()])
                .collect(),
        };
        let b1 = fwd_betas(part, &t);
        for r in t.ranges.iter_mut().flatten() {
            *r = 2.0;
        }
        let b2 = fwd_betas(part, &t);
        assert!(!b1.is_empty());
        for ((q1, p1), (q2, p2)) in b1.iter().zip(&b2) {
            assert_eq!(q1, q2);
            for (x, y) in p1.iter().zip(p2) {
                assert!((y / x - 4.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn full_reassign_roundtrip_on_cluster() {
        // End-to-end: 2 devices run the collective reassignment.
        let ds = DatasetSpec::tiny().generate(23);
        let mut rng0 = Rng::seed_from(24);
        let p = graph::partition::metis_like(&ds.graph, 2, &mut rng0);
        let parts = crate::decompose::build_partitions(&ds, &p, ConvKind::Gcn);
        let cfg = TrainingConfig {
            group_size: 8,
            lambda: 0.5,
            ..TrainingConfig::default()
        };
        let cost = CostModel::homogeneous(2, 1e6, 1e-5);
        let parts_ref = &parts;
        let cfg_ref = &cfg;
        let cost_ref = &cost;
        let out = comm::Cluster::run_fn(2, move |mut dev| {
            let part = &parts_ref[dev.rank()];
            let dims = [16usize, 8];
            let mut trace = Trace::new(part, &dims);
            // Fabricate some activity so ranges are nonzero and varied.
            let x = Matrix::from_fn(part.num_local(), 16, |i, j| {
                ((i * 7 + j) % 13) as f32 * (0.1 + dev.rank() as f32)
            });
            trace.record_fwd(part, 0, &x);
            let mut rng = Rng::seed_from(100 + dev.rank() as u64);
            let (assign, solve) = reassign(
                &mut dev,
                part,
                cost_ref,
                &trace,
                cfg_ref,
                AssignMode::Adaptive,
                &mut rng,
            );
            (assign, solve)
        });
        for (rank, (assign, solve)) in out.iter().enumerate() {
            assert!(solve.secs >= 0.0);
            assert!(solve.iterations > 0, "solver evaluated candidates");
            // 2 layers x 2 directions.
            assert_eq!(solve.problems, 4);
            assert!(solve.objective_sum.is_finite());
            // Shapes line up with the partition.
            for (q, s) in parts[rank].send_sets.iter().enumerate() {
                assert_eq!(assign.fwd[0][q].len(), s.len(), "rank {rank} -> {q}");
                assert_eq!(assign.fwd[1][q].len(), s.len());
            }
            for (q, s) in parts[rank].recv_slots.iter().enumerate() {
                assert_eq!(assign.bwd[0][q].len(), s.len());
            }
            // Assignment uses at least one real width.
            let (h2, h4, h8) = assign.histogram();
            assert!(h2 + h4 + h8 > 0);
        }
    }

    #[test]
    fn solve_stats_roundtrip_and_reject_bad_lengths() {
        let stats = SolveStats {
            secs: 0.25,
            iterations: 1 << 40,
            objective_sum: -3.5,
            problems: 6,
        };
        let raw = stats.to_bytes();
        assert_eq!(SolveStats::from_bytes(&raw), Ok(stats));
        assert_eq!(
            SolveStats::from_bytes(&raw[..31]),
            Err(AssignWireError::Truncated { offset: 24 })
        );
        assert_eq!(
            SolveStats::from_bytes(&[raw.as_slice(), &[0]].concat()),
            Err(AssignWireError::TrailingBytes { extra: 1 })
        );
    }

    /// A trace with varied, nonzero ranges in both directions of two layers.
    fn busy_trace(part: &DevicePartition) -> Trace {
        let dims = [16usize, 8];
        let mut trace = Trace::new(part, &dims);
        let rows = part.num_local() + part.halo_nodes.len();
        for (l, &d) in dims.iter().enumerate() {
            let x = Matrix::from_fn(rows, d, |i, j| {
                ((i * 7 + j * 3 + l + part.rank) % 11) as f32 * 0.3
            });
            trace.record_fwd(part, l, &x);
            trace.record_bwd(part, l, &x);
        }
        trace
    }

    #[test]
    fn wire_round_is_lossless_against_a_direct_master_solve() {
        let parts = wire::tests::setup();
        let n = parts.len();
        assert!(
            parts.iter().any(|pt| pt
                .send_sets
                .iter()
                .enumerate()
                .any(|(q, s)| q != pt.rank && s.is_empty())),
            "the fixture needs an empty ordered device pair"
        );
        let cfg = TrainingConfig {
            group_size: 4,
            lambda: 0.5,
            ..TrainingConfig::default()
        };
        let cost = CostModel::homogeneous(n, 1e6, 1e-5);
        let traces: Vec<Trace> = parts.iter().map(busy_trace).collect();
        let num_layers = traces[0].fwd.len();

        // Reference: the master's solve on the un-encoded messages, each
        // reply expanded to one vector per peer.
        let msgs: Vec<TraceMsg> = parts
            .iter()
            .zip(&traces)
            .map(|(pt, t)| trace_msg(pt, t))
            .collect();
        let dims: Vec<usize> = traces[0].fwd.iter().map(|t| t.dim).collect();
        let (replies, ref_stats) = master_solve(&msgs, &dims, &cost, &cfg);

        let (parts_ref, traces_ref, cfg_ref, cost_ref) = (&parts, &traces, &cfg, &cost);
        let out = comm::Cluster::run_fn(n, move |mut dev| {
            dev.enable_metrics();
            let r = dev.rank();
            let mut rng = Rng::seed_from(r as u64);
            let (assign, solve) = reassign(
                &mut dev,
                &parts_ref[r],
                cost_ref,
                &traces_ref[r],
                cfg_ref,
                AssignMode::Adaptive,
                &mut rng,
            );
            // A worker's only send in the round is its gathered trace.
            let sent = dev
                .metrics()
                .and_then(|m| {
                    m.get(
                        "adaqp_comm_sent_bytes_total",
                        &[("src", &r.to_string()), ("dst", "0")],
                    )
                })
                .map(|m| m.value);
            (assign, solve, sent)
        });

        let (h2, h4, _) = out.iter().fold((0, 0, 0), |(a, b, c), (assign, _, _)| {
            let (x, y, z) = assign.histogram();
            (a + x, b + y, c + z)
        });
        assert!(h2 + h4 > 0, "the solve compresses some messages");
        for (me, (assign, solve, sent)) in out.iter().enumerate() {
            assert_eq!(
                *assign,
                wire::tests::expand(&parts[me], &replies[me]),
                "rank {me}"
            );
            assert_eq!(
                (
                    solve.iterations,
                    solve.problems,
                    solve.objective_sum.to_bits()
                ),
                (
                    ref_stats.iterations,
                    ref_stats.problems,
                    ref_stats.objective_sum.to_bits()
                )
            );
            for (src, (sender, _, _)) in out.iter().enumerate() {
                for l in 0..num_layers {
                    assert_eq!(assign.fwd_recv[l][src], sender.fwd[l][me]);
                    assert_eq!(assign.bwd_recv[l][src], sender.bwd[l][me]);
                }
            }
            // The documented trace layout: per (direction, layer) a 4-byte
            // count, then per non-empty peer 8 header bytes and 8 per beta.
            let dir = |sets: &[Vec<u32>]| -> usize {
                4 + sets
                    .iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| 8 + 8 * s.len())
                    .sum::<usize>()
            };
            let part = &parts[me];
            let layout = num_layers * (dir(&part.send_sets) + dir(&part.recv_slots));
            if me == 0 {
                assert_eq!(*sent, None, "the master sends nothing to itself");
            } else {
                assert_eq!(*sent, Some(layout as f64), "rank {me}");
            }
        }
    }
}
