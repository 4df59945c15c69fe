//! The named workloads and their set-up phase.
//!
//! Set-up makes the same public calls, in the same order, as
//! `adaqp::runner::run_experiment_on`: `DatasetSpec::generate`,
//! `graph::partition::try_metis_like`, `adaqp::build_partitions` and
//! `ExperimentConfig::cost_model`.

use crate::spans::{Kind, Recorder};
use adaqp::{DevicePartition, ExperimentConfig, Method, TopologySpec};
use graph::{DatasetSpec, Task};
use std::time::Instant;
use tensor::Rng;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Training epochs per timed repetition. Fixed (not time-bounded) so a
    /// repetition's results are a pure function of the seed and its mix of
    /// assign and plain epochs never changes.
    pub epochs: usize,
    /// Host seconds one repetition takes on the reference machine (2 CPUs);
    /// `--seconds` divided by this gives the repetition count, so the
    /// sample count is a function of the arguments, not of host speed.
    pub rep_s: f64,
    /// Fewest repetitions: enough epoch samples for a tail percentile, and
    /// (on `weak256-adaqp`) for the median and the tail to land among the
    /// assign epochs rather than on the edge between the two epoch kinds.
    pub min_reps: usize,
    /// Most repetitions. More samples push the tail rule to a higher
    /// percentile, which short bursts of outside load move more than the
    /// median; the cap keeps `products-2d-adaqp` at p80.
    pub max_reps: usize,
    /// Epoch prefix compared against `adaqp::run_experiment`; it covers
    /// every epoch kind the workload has (fp32 warm-up, assign, quantized).
    pub check_epochs: usize,
    /// Run the kernels on one thread instead of `nproc`. On the 256-device
    /// fleet a device's kernels cover ~75 rows, so a pooled call costs more
    /// in scoped-thread spawns than it saves, and on a shared host those
    /// spawns measure the OS scheduler: with `nproc` = 2 kernel threads one
    /// busy loop beside the benchmark doubled the epoch, with one thread it
    /// moved it by under a fifth.
    pub serial_kernels: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "products-2d-adaqp",
        epochs: 10,
        rep_s: 2.2,
        min_reps: 4,
        max_reps: 5,
        check_epochs: 2,
        serial_kernels: false,
    },
    Workload {
        name: "weak256-vanilla",
        epochs: 4,
        rep_s: 2.4,
        min_reps: 3,
        max_reps: 16,
        check_epochs: 2,
        serial_kernels: true,
    },
    Workload {
        name: "weak256-adaqp",
        epochs: 4,
        rep_s: 5.5,
        min_reps: 5,
        max_reps: 7,
        check_epochs: 2,
        serial_kernels: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Timed repetitions for a `seconds` budget.
    pub fn reps(&self, seconds: f64) -> usize {
        // Truncation is the intent: whole repetitions that fit the budget.
        let fit = (seconds / self.rep_s).max(0.0) as usize;
        fit.clamp(self.min_reps, self.max_reps)
    }

    /// The experiment config for `seed`, training `epochs` epochs with the
    /// kernel runtime pinned to `nproc` workers, or to one when the workload
    /// runs its kernels serially.
    pub fn config(&self, seed: u64, epochs: usize, nproc: usize) -> ExperimentConfig {
        let mut cfg = match self.name {
            "products-2d-adaqp" => {
                // The ROADMAP's pinned 2-device config: 1M-2D, GCN, 3 layers.
                let spec = DatasetSpec::paper_suite()
                    .into_iter()
                    .find(|d| d.name == "ogbn-products-sim")
                    .expect("ogbn-products-sim is in the paper suite")
                    .scaled(1.0);
                bench::experiment(spec, 1, 2, Method::AdaQp, false, seed)
            }
            _ => {
                // The table7 weak-scaling point: 64M-4D, racks of 8 machines
                // on a 4x oversubscribed spine, SAGE, hidden 8.
                let method = if self.name == "weak256-adaqp" {
                    Method::AdaQp
                } else {
                    Method::Vanilla
                };
                let mut cfg =
                    bench::experiment(DatasetSpec::tiny().scaled(64.0), 64, 4, method, true, seed);
                cfg.training.hidden = 8;
                cfg.training.reassign_period = 2;
                let mut topo = TopologySpec::from_training(&cfg.training);
                topo.machines_per_rack = Some(8);
                cfg.training.topology = Some(topo.oversubscription(4.0));
                cfg
            }
        };
        cfg.training.epochs = epochs;
        cfg.training.threads = if self.serial_kernels { 1 } else { nproc };
        cfg
    }
}

/// Everything set-up produces.
pub struct Setup {
    /// Per-device partitions, in rank order.
    pub parts: Vec<DevicePartition>,
    /// The run's link cost model.
    pub cost: comm::CostModel,
    /// Whether the task is multi-label (micro-F1 instead of accuracy).
    pub multi: bool,
    /// Cluster-wide training-node count (the loss divisor).
    pub global_train: usize,
    /// FNV-1a digest of the node partition and every device's send sets.
    pub digest: u64,
    /// Ordered device pairs `(src, dst)` with a non-empty send set.
    pub nonempty_pairs: usize,
}

/// Runs set-up for `cfg`, recording one span per public call when `rec` is
/// given.
///
/// # Errors
///
/// A message when the config is invalid or the graph cannot be spread over
/// the devices.
pub fn setup(cfg: &ExperimentConfig, mut rec: Option<&mut Recorder>) -> Result<Setup, String> {
    cfg.validate().map_err(|e| e.to_string())?;
    // As the runner does: pin the kernel runtime and keep the sanitizer off
    // (the benchmark refuses to run when ADAQP_SAN is set).
    tensor::par::set_threads(cfg.training.threads);
    tensor::san::set_sanitize(false);
    let dataset = timed(&mut rec, "graph.generate", || {
        cfg.dataset.generate(cfg.seed)
    });
    let n = cfg.num_devices();
    if n > dataset.num_nodes() {
        return Err(format!(
            "{n} devices for a {}-node graph",
            dataset.num_nodes()
        ));
    }
    let mut rng = Rng::seed_from(cfg.seed ^ 0x5EED_CAFE);
    let partition = timed(&mut rec, "graph.partition", || {
        graph::partition::try_metis_like(&dataset.graph, n, &mut rng)
    })
    .map_err(|e| e.to_string())?;
    let parts = timed(&mut rec, "core.decompose.build_partitions", || {
        adaqp::build_partitions(&dataset, &partition, cfg.training.conv_kind())
    });
    let cost = timed(&mut rec, "core.config.cost_model", || cfg.cost_model());

    let mut digest = Fnv::new();
    for &p in &partition.assignment {
        digest.word(p as u64);
    }
    let mut nonempty_pairs = 0;
    for part in &parts {
        for (q, set) in part.send_sets.iter().enumerate() {
            if q != part.rank && !set.is_empty() {
                nonempty_pairs += 1;
            }
            digest.word(set.len() as u64);
            for &i in set {
                digest.word(u64::from(i));
            }
        }
    }
    Ok(Setup {
        multi: dataset.task == Task::MultiLabel,
        global_train: parts[0].global.num_train,
        parts,
        cost,
        digest: digest.0,
        nonempty_pairs,
    })
}

/// Runs `f` inside a span when a recorder is given.
fn timed<T>(rec: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.time(name, Kind::Work, f),
        None => f(),
    }
}

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(find(w.name), Some(w));
            assert!(w.check_epochs <= w.epochs);
            assert!(w.min_reps * w.epochs > crate::stats::TAIL_BEYOND);
            assert_eq!(w.reps(0.0), w.min_reps);
            assert_eq!(w.reps(600.0), w.max_reps);
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn configs_match_the_pinned_points() {
        let p = find("products-2d-adaqp").unwrap().config(1, 10, 2);
        assert_eq!((p.num_devices(), p.method), (2, Method::AdaQp));
        assert_eq!(p.dataset.name, "ogbn-products-sim");
        assert_eq!((p.training.hidden, p.training.group_size), (64, 64));
        assert_eq!((p.training.reassign_period, p.training.num_layers), (10, 3));
        assert!(!p.training.use_sage);
        assert_eq!(p.training.threads, 2);
        for (name, method) in [
            ("weak256-vanilla", Method::Vanilla),
            ("weak256-adaqp", Method::AdaQp),
        ] {
            let c = find(name).unwrap().config(1, 4, 2);
            assert_eq!((c.num_devices(), c.method), (256, method));
            assert_eq!(c.dataset.num_nodes, 19_200);
            assert_eq!((c.training.hidden, c.training.reassign_period), (8, 2));
            assert_eq!(c.training.threads, 1);
            assert!(c.training.use_sage);
            let topo = c.training.topology.as_ref().unwrap();
            assert_eq!(topo.machines_per_rack, Some(8));
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn setup_is_deterministic_per_seed() {
        for w in WORKLOADS {
            let cfg = w.config(7, 1, threads());
            let a = setup(&cfg, None).unwrap();
            let b = setup(&cfg, None).unwrap();
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_eq!(a.nonempty_pairs, b.nonempty_pairs, "{}", w.name);
            let n = cfg.num_devices();
            assert!(a.nonempty_pairs > 0 && a.nonempty_pairs <= n * (n - 1));
            let other = setup(&w.config(8, 1, threads()), None).unwrap();
            assert_ne!(a.digest, other.digest, "{}: seed must matter", w.name);
        }
    }

    #[test]
    fn traced_setup_records_each_public_call() {
        let cfg = find("weak256-vanilla").unwrap().config(3, 1, threads());
        let mut rec = Recorder::new(Instant::now(), 0, 0);
        let traced = setup(&cfg, Some(&mut rec)).unwrap();
        let untraced = setup(&cfg, None).unwrap();
        assert_eq!(traced.digest, untraced.digest);
        let names: Vec<_> = rec.finish().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "graph.generate",
                "graph.partition",
                "core.decompose.build_partitions",
                "core.config.cost_model"
            ]
        );
    }
}
