//! The traced trainer: `DeviceTrainer::run_epoch` for Vanilla and AdaQP
//! (row-major wire, no error feedback, no streaming), recomposed from each
//! layer's public functions so the benchmark's own code can time every
//! call into `gnn`, `quant`, `comm` and the assigner.
//!
//! The replica makes the same calls in the same order with the same RNG
//! stream, so its wire bytes, losses and simulated comm/quant charges equal
//! the real trainer's bit for bit; the traced run checks that.

use crate::spans::{Kind, Recorder, Span};
use adaqp::assigner::{reassign, AssignMode, Trace, WidthAssignment};
use adaqp::exchange::{
    bytes_to_matrix, matrix_to_bytes, ExchangeStats, DECODE_OPS_PER_ELEMENT, ENCODE_OPS_PER_ELEMENT,
};
use adaqp::metrics::MetricParts;
use adaqp::{DevicePartition, LocalLabels, Method, TrainingConfig};
use bytes::Bytes;
use comm::{CostModel, DeviceHandle};
use gnn::{Adam, Gnn};
use quant::{decode_block, encode_block_with_stats, BitWidth, EncodedBlock};
use tensor::{
    sigmoid_bce_backward_weighted, sigmoid_bce_loss_weighted, softmax_cross_entropy_backward,
    softmax_cross_entropy_loss, Matrix, Rng,
};

/// Work counts over a traced run (one device, all epochs).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Matmul flops of the dense layer calls.
    pub dense_flops: f64,
    /// Sparse entries walked by aggregation calls (forward and backward).
    pub agg_entries: u64,
    /// Blocks encoded by the quantization codec.
    pub quant_blocks: u64,
    /// Wire bytes of those blocks.
    pub quant_wire_bytes: u64,
    /// Halo exchanges (training and evaluation).
    pub exchange_calls: u64,
    /// Payload bytes handed to `ring_all2all`.
    pub comm_bytes: u64,
    /// Assigner solve seconds (`SolveStats::secs`, identical on every rank).
    pub solve_secs: f64,
    /// Bi-objective problems solved.
    pub solve_problems: u64,
    /// Solver candidate evaluations.
    pub solve_iterations: u64,
}

/// What one traced epoch produced on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOut {
    /// Local loss sum over training nodes.
    pub loss_sum: f64,
    /// Bytes sent in training exchanges.
    pub bytes_sent: usize,
    /// Simulated communication seconds charged (halo rings + allreduce).
    pub comm_s: f64,
    /// Simulated quantization seconds charged.
    pub quant_s: f64,
}

/// Per-peer byte accounting of one exchange, plus its codec op count.
struct Xfer {
    sent: Vec<usize>,
    recv: Vec<usize>,
    ops: f64,
}

/// The traced replica of one device's trainer.
pub struct TracedTrainer<'a> {
    dev: DeviceHandle,
    part: &'a DevicePartition,
    cfg: &'a TrainingConfig,
    method: Method,
    cost: CostModel,
    model: Gnn,
    adam: Adam,
    rng: Rng,
    assignment: WidthAssignment,
    trace: Trace,
    rec: Recorder,
    counts: Counts,
    /// Payload sizes of the latest epoch's first ring exchange.
    ring_sizes: Vec<usize>,
    capture_ring: bool,
    comm_s: f64,
    quant_s: f64,
}

impl<'a> TracedTrainer<'a> {
    /// Builds the replica exactly as `DeviceTrainer::new` builds the real
    /// trainer (same model init, optimizer and per-device RNG stream).
    pub fn new(
        dev: DeviceHandle,
        part: &'a DevicePartition,
        cfg: &'a TrainingConfig,
        method: Method,
        cost: CostModel,
        seed: u64,
        rec: Recorder,
    ) -> Self {
        assert!(
            matches!(method, Method::Vanilla | Method::AdaQp)
                && !cfg.grouped_wire
                && !cfg.error_feedback
                && !cfg.stream_quant,
            "the traced trainer mirrors Vanilla and row-major AdaQP only"
        );
        let dims = cfg.dims(part.features.cols(), part.global.num_classes);
        let mut init_rng = Rng::seed_from(seed);
        let model = Gnn::with_dropout(cfg.conv_kind(), &dims, cfg.dropout, &mut init_rng);
        let adam = Adam::new(model.param_count(), cfg.lr);
        let rng = Rng::seed_from(seed ^ (0x9E37_79B9 + dev.rank() as u64));
        let num_layers = dims.len() - 1;
        let trace = Trace::new(part, &dims[..num_layers]);
        let assignment = WidthAssignment::fixed(part, num_layers, BitWidth::B8);
        Self {
            dev,
            part,
            cfg,
            method,
            cost,
            model,
            adam,
            rng,
            assignment,
            trace,
            rec,
            counts: Counts::default(),
            ring_sizes: Vec::new(),
            capture_ring: false,
            comm_s: 0.0,
            quant_s: 0.0,
        }
    }

    fn is_assign_epoch(&self, epoch: usize) -> bool {
        self.method == Method::AdaQp
            && (epoch == 0 || (epoch + 1).is_multiple_of(self.cfg.reassign_period.max(1)))
    }

    /// One traced training epoch, evaluation included.
    pub fn run_epoch(&mut self, epoch: usize) -> EpochOut {
        let root = self.rec.enter("core.trainers.epoch", Kind::Work);
        let part = self.part;
        let quantized = self.method == Method::AdaQp && epoch > 0;
        let trace_now = self.is_assign_epoch(epoch);
        let num_layers = self.model.num_layers();
        let self_path = self.model.kind().uses_self_path();
        let mut bytes = 0usize;
        self.comm_s = 0.0;
        self.quant_s = 0.0;
        self.capture_ring = true;
        self.model.zero_grads();

        // ---- Forward ----
        let mut h = part.features.clone();
        let mut layer_inputs: Vec<Matrix> = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            if trace_now {
                self.trace.record_fwd(part, l, &h);
            }
            let (halo, xfer) = if quantized {
                self.forward_quant(l, &h)
            } else {
                self.forward_fp32(&h)
            };
            bytes += self.charge(xfer);
            let xe = Matrix::vstack(&[&h, &halo]);
            let z = self.aggregate_split(&xe);
            layer_inputs.push(h);
            let input = &layer_inputs[l];
            h = self.dense_forward(l, &z, self_path.then_some(input), true);
        }

        // ---- Loss ----
        let (loss_sum, mut grad_h) = self.loss_and_grad(&h);

        // ---- Backward ----
        for l in (0..num_layers).rev() {
            let (grad_agg, grad_self) = {
                let layer = &mut self.model.layers_mut()[l];
                self.counts.dense_flops += 2.0 * dense_flops(layer, grad_h.rows());
                self.rec.time("gnn.layer.dense", Kind::Work, || {
                    layer.backward_dense(&grad_h)
                })
            };
            if l == 0 {
                break;
            }
            let grad_ext = self.rec.time("gnn.agg.backward", Kind::Work, || {
                part.agg.backward(&grad_agg)
            });
            self.counts.agg_entries += part.agg.num_entries() as u64;
            if trace_now {
                self.trace.record_bwd(part, l, &grad_ext);
            }
            let local_idx: Vec<usize> = (0..part.num_local()).collect();
            let mut grad_local = grad_ext.gather_rows(&local_idx);
            if let Some(gs) = grad_self {
                grad_local.add_assign(&gs);
            }
            let xfer = if quantized {
                self.backward_quant(l, &grad_ext, &mut grad_local)
            } else {
                self.backward_fp32(&grad_ext, &mut grad_local)
            };
            bytes += self.charge(xfer);
            grad_h = grad_local;
        }

        // ---- Gradient allreduce + optimizer step ----
        let mut grads = self.model.grads_flat();
        let dev = &mut self.dev;
        self.rec.time("comm.allreduce", Kind::Wait, || {
            dev.allreduce_sum_f32(&mut grads)
        });
        self.comm_s += allreduce_seconds(&self.cost, grads.len() * 4);
        let mut params = self.model.params_flat();
        let adam = &mut self.adam;
        self.rec.time("gnn.adam.step", Kind::Work, || {
            adam.step(&mut params, &grads)
        });
        self.model.set_params_flat(&params);

        // ---- Periodic bit-width reassignment ----
        if trace_now {
            let (dev, cost, trace, cfg, rng) = (
                &mut self.dev,
                &self.cost,
                &self.trace,
                self.cfg,
                &mut self.rng,
            );
            let (assignment, solve) = self.rec.time("core.assigner.reassign", Kind::Mixed, || {
                reassign(dev, part, cost, trace, cfg, AssignMode::Adaptive, rng)
            });
            self.assignment = assignment;
            if part.rank == 0 {
                self.counts.solve_secs += solve.secs;
                self.counts.solve_problems += solve.problems;
                self.counts.solve_iterations += solve.iterations;
            }
        }

        // ---- Evaluation ----
        self.evaluate();
        self.rec.exit(root);
        EpochOut {
            loss_sum,
            bytes_sent: bytes,
            comm_s: self.comm_s,
            quant_s: self.quant_s,
        }
    }

    /// The recorded spans, work counts and the latest epoch's first ring
    /// payload sizes (per destination).
    pub fn finish(self) -> (Vec<Span>, Counts, Vec<usize>) {
        (self.rec.finish(), self.counts, self.ring_sizes)
    }

    fn dense_forward(
        &mut self,
        l: usize,
        z: &Matrix,
        x_self: Option<&Matrix>,
        training: bool,
    ) -> Matrix {
        let layer = &mut self.model.layers_mut()[l];
        self.counts.dense_flops += dense_flops(layer, z.rows());
        let rng = &mut self.rng;
        self.rec.time("gnn.layer.dense", Kind::Work, || {
            layer.forward_dense(z, x_self, training, rng)
        })
    }

    fn aggregate_split(&mut self, xe: &Matrix) -> Matrix {
        let part = self.part;
        let dim = xe.cols();
        let mut z = Matrix::zeros(part.num_local(), dim);
        for targets in [&part.central, &part.marginal] {
            let rows = self.rec.time("gnn.agg.aggregate", Kind::Work, || {
                part.agg.aggregate_rows(xe, targets)
            });
            self.counts.agg_entries += part.agg.entries_for(targets) as u64;
            for (k, &li) in targets.iter().enumerate() {
                z.row_mut(li as usize).copy_from_slice(rows.row(k));
            }
        }
        z
    }

    /// `ring_all2all` inside a wait span, with payload accounting.
    fn ring(&mut self, payloads: Vec<Bytes>) -> Vec<Option<Bytes>> {
        self.counts.exchange_calls += 1;
        self.counts.comm_bytes += payloads.iter().map(|b| b.len() as u64).sum::<u64>();
        if self.capture_ring {
            self.ring_sizes = payloads.iter().map(Bytes::len).collect();
            self.capture_ring = false;
        }
        let dev = &mut self.dev;
        self.rec.time("comm.ring_all2all", Kind::Wait, || {
            dev.ring_all2all(payloads)
        })
    }

    /// Charges one training exchange as the trainer's `charge_ring` does and
    /// returns the bytes it sent.
    fn charge(&mut self, xfer: Xfer) -> usize {
        let n = self.part.num_parts;
        let stats = ExchangeStats {
            sent_bytes: xfer.sent,
            recv_bytes: xfer.recv,
            quant_ops: xfer.ops,
            streamed_send: vec![0.0; n],
            ..ExchangeStats::default()
        };
        self.comm_s += stats.ring_seconds(&self.cost, self.part.rank);
        self.quant_s += self.cost.ops_time_for(self.part.rank, xfer.ops);
        stats.total_sent()
    }

    fn forward_fp32(&mut self, x: &Matrix) -> (Matrix, Xfer) {
        let open = self.rec.enter("core.exchange", Kind::Work);
        let part = self.part;
        let n = part.num_parts;
        let dim = x.cols();
        let mut sent = vec![0; n];
        let mut recv = vec![0; n];
        let mut payloads = Vec::with_capacity(n);
        for (q, set) in part.send_sets.iter().enumerate() {
            if q == part.rank || set.is_empty() {
                payloads.push(Bytes::new());
                continue;
            }
            let b = matrix_to_bytes(&part.gather_send_rows(x, q));
            sent[q] = b.len();
            payloads.push(b);
        }
        let mut halo = Matrix::zeros(part.num_halo(), dim);
        for (q, payload) in self.ring(payloads).into_iter().enumerate() {
            let Some(payload) = payload else { continue };
            recv[q] = payload.len();
            if payload.is_empty() {
                continue;
            }
            let m = bytes_to_matrix(&payload, part.recv_slots[q].len(), dim);
            for (r, &slot) in part.recv_slots[q].iter().enumerate() {
                halo.row_mut(slot as usize).copy_from_slice(m.row(r));
            }
        }
        self.rec.exit(open);
        (
            halo,
            Xfer {
                sent,
                recv,
                ops: 0.0,
            },
        )
    }

    fn forward_quant(&mut self, l: usize, x: &Matrix) -> (Matrix, Xfer) {
        let open = self.rec.enter("core.exchange", Kind::Work);
        let part = self.part;
        let n = part.num_parts;
        let dim = x.cols();
        let widths = self.assignment.fwd[l].clone();
        let mut sent = vec![0; n];
        let mut recv = vec![0; n];
        let mut ops = 0.0;
        let mut payloads = Vec::with_capacity(n);
        for (q, set) in part.send_sets.iter().enumerate() {
            if q == part.rank || set.is_empty() {
                payloads.push(Bytes::new());
                continue;
            }
            let msgs = part.gather_send_rows(x, q);
            ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
            let block = self.encode(&msgs, &widths[q]);
            sent[q] = block.wire_len();
            payloads.push(block.bytes);
        }
        let mut halo = Matrix::zeros(part.num_halo(), dim);
        for (q, payload) in self.ring(payloads).into_iter().enumerate() {
            let Some(payload) = payload else { continue };
            recv[q] = payload.len();
            if payload.is_empty() {
                continue;
            }
            let rows = part.recv_slots[q].len();
            let decoded = self.decode(payload, rows, dim);
            ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
            for (r, &slot) in part.recv_slots[q].iter().enumerate() {
                halo.row_mut(slot as usize).copy_from_slice(decoded.row(r));
            }
        }
        self.rec.exit(open);
        (halo, Xfer { sent, recv, ops })
    }

    fn backward_fp32(&mut self, grad_ext: &Matrix, grad_local: &mut Matrix) -> Xfer {
        let open = self.rec.enter("core.exchange", Kind::Work);
        let part = self.part;
        let n = part.num_parts;
        let dim = grad_ext.cols();
        let mut sent = vec![0; n];
        let mut recv = vec![0; n];
        let mut payloads = Vec::with_capacity(n);
        for (q, slots) in part.recv_slots.iter().enumerate() {
            if q == part.rank || slots.is_empty() {
                payloads.push(Bytes::new());
                continue;
            }
            let b = matrix_to_bytes(&halo_grads(part, grad_ext, q));
            sent[q] = b.len();
            payloads.push(b);
        }
        for (q, payload) in self.ring(payloads).into_iter().enumerate() {
            let Some(payload) = payload else { continue };
            recv[q] = payload.len();
            if payload.is_empty() {
                continue;
            }
            let m = bytes_to_matrix(&payload, part.send_sets[q].len(), dim);
            scatter_grads(part, grad_local, q, &m);
        }
        self.rec.exit(open);
        Xfer {
            sent,
            recv,
            ops: 0.0,
        }
    }

    fn backward_quant(&mut self, l: usize, grad_ext: &Matrix, grad_local: &mut Matrix) -> Xfer {
        let open = self.rec.enter("core.exchange", Kind::Work);
        let part = self.part;
        let n = part.num_parts;
        let dim = grad_ext.cols();
        let widths = self.assignment.bwd[l].clone();
        let mut sent = vec![0; n];
        let mut recv = vec![0; n];
        let mut ops = 0.0;
        let mut payloads = Vec::with_capacity(n);
        for (q, slots) in part.recv_slots.iter().enumerate() {
            if q == part.rank || slots.is_empty() {
                payloads.push(Bytes::new());
                continue;
            }
            let msgs = halo_grads(part, grad_ext, q);
            ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
            let block = self.encode(&msgs, &widths[q]);
            sent[q] = block.wire_len();
            payloads.push(block.bytes);
        }
        for (q, payload) in self.ring(payloads).into_iter().enumerate() {
            let Some(payload) = payload else { continue };
            recv[q] = payload.len();
            if payload.is_empty() {
                continue;
            }
            let rows = part.send_sets[q].len();
            let decoded = self.decode(payload, rows, dim);
            ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
            scatter_grads(part, grad_local, q, &decoded);
        }
        self.rec.exit(open);
        Xfer { sent, recv, ops }
    }

    fn encode(&mut self, msgs: &Matrix, widths: &[BitWidth]) -> EncodedBlock {
        let rng = &mut self.rng;
        let (block, _) = self.rec.time("quant.encode", Kind::Work, || {
            encode_block_with_stats(msgs, widths, rng)
        });
        self.counts.quant_blocks += 1;
        self.counts.quant_wire_bytes += block.wire_len() as u64;
        block
    }

    fn decode(&mut self, bytes: Bytes, rows: usize, dim: usize) -> Matrix {
        let block = EncodedBlock { bytes, rows, dim };
        self.rec
            .time("quant.decode", Kind::Work, || decode_block(&block))
            .expect("peers run the same codec")
    }

    fn loss_and_grad(&self, logits: &Matrix) -> (f64, Matrix) {
        let part = self.part;
        let mask = &part.train_mask;
        let local_cnt = mask.iter().filter(|&&b| b).count();
        let scale = local_cnt as f32 / part.global.num_train.max(1) as f32;
        let (loss, mut grad) = match &part.labels {
            LocalLabels::Single(labels) => (
                softmax_cross_entropy_loss(logits, labels, mask),
                softmax_cross_entropy_backward(logits, labels, mask),
            ),
            LocalLabels::Multi(targets) => {
                let w = part.global.pos_weight;
                (
                    sigmoid_bce_loss_weighted(logits, targets, mask, w),
                    sigmoid_bce_backward_weighted(logits, targets, mask, w),
                )
            }
        };
        grad.scale(scale);
        (f64::from(loss) * local_cnt as f64, grad)
    }

    /// The trainer's evaluation pass: fp32 halos, full aggregation, eval-mode
    /// dense layers, local metric accumulation.
    fn evaluate(&mut self) -> MetricParts {
        let part = self.part;
        let self_path = self.model.kind().uses_self_path();
        let mut h = part.features.clone();
        for l in 0..self.model.num_layers() {
            let (halo, _) = self.forward_fp32(&h);
            let xe = Matrix::vstack(&[&h, &halo]);
            let z = self
                .rec
                .time("gnn.agg.aggregate", Kind::Work, || part.agg.aggregate(&xe));
            self.counts.agg_entries += part.agg.num_entries() as u64;
            let h_prev = h.clone();
            h = self.dense_forward(l, &z, self_path.then_some(&h_prev), false);
        }
        local_metrics(part, &h)
    }
}

/// Matmul flops of one forward application of `layer` on `rows` nodes
/// (backward is twice this: one `matmul_tn` and one `matmul_nt` per weight).
fn dense_flops(layer: &gnn::GnnLayer, rows: usize) -> f64 {
    let paths = if layer.kind().uses_self_path() {
        2.0
    } else {
        1.0
    };
    2.0 * rows as f64 * layer.in_dim() as f64 * layer.out_dim() as f64 * paths
}

/// The trainer's modeled gather+broadcast gradient allreduce seconds.
fn allreduce_seconds(cost: &CostModel, bytes: usize) -> f64 {
    let mut up: f64 = 0.0;
    let mut down: f64 = 0.0;
    for r in 1..cost.num_devices() {
        up = up.max(cost.transfer_time(r, 0, bytes));
        down = down.max(cost.transfer_time(0, r, bytes));
    }
    up + down
}

/// Halo-gradient rows destined for owner `q`, aligned with `recv_slots[q]`.
fn halo_grads(part: &DevicePartition, grad_ext: &Matrix, q: usize) -> Matrix {
    let idx: Vec<usize> = part.recv_slots[q]
        .iter()
        .map(|&slot| part.num_local() + slot as usize)
        .collect();
    grad_ext.gather_rows(&idx)
}

/// Accumulates gradient rows received from `q` into the local gradient.
fn scatter_grads(part: &DevicePartition, grad_local: &mut Matrix, q: usize, m: &Matrix) {
    let idx: Vec<usize> = part.send_sets[q].iter().map(|&li| li as usize).collect();
    grad_local.scatter_add_rows(&idx, m);
}

/// Local validation/test accumulators, as the trainer computes them.
fn local_metrics(part: &DevicePartition, logits: &Matrix) -> MetricParts {
    let mut parts = MetricParts::default();
    for i in 0..logits.rows() {
        let (on_val, on_test) = (part.val_mask[i], part.test_mask[i]);
        if !on_val && !on_test {
            continue;
        }
        let acc = match &part.labels {
            LocalLabels::Single(labels) => {
                let row = logits.row(i);
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (j, &v) in row.iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = j;
                    }
                }
                [f64::from(best == labels[i]), 1.0, 0.0]
            }
            LocalLabels::Multi(targets) => {
                let mut acc = [0.0; 3];
                for (&z, &y) in logits.row(i).iter().zip(targets.row(i)) {
                    match (z > 0.0, y > 0.5) {
                        (true, true) => acc[0] += 1.0,
                        (true, false) => acc[1] += 1.0,
                        (false, true) => acc[2] += 1.0,
                        (false, false) => {}
                    }
                }
                acc
            }
        };
        for (k, a) in acc.into_iter().enumerate() {
            if on_val {
                parts.val[k] += a;
            }
            if on_test {
                parts.test[k] += a;
            }
        }
    }
    parts
}
