//! The untraced composed run: set-up, then `comm::Cluster::try_run_fn`
//! with `adaqp::trainers::DeviceTrainer::new` and `run_epoch` on every
//! rank — the calls `adaqp::runner::run_experiment_on` makes, in its order —
//! with rank 0's epochs timed on the host.

use crate::workload::{secs, setup, Setup};
use adaqp::metrics::{epoch_time, epoch_time_with_overlap, DeviceEpochRecord, MetricParts};
use adaqp::trainers::DeviceTrainer;
use adaqp::{EpochMetrics, ExperimentConfig, RunResult};
use std::time::Instant;

/// Cluster-level view of one epoch, folded from the device records exactly
/// as the runner's `combine` folds them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Global mean training loss.
    pub loss: f64,
    /// Validation score (accuracy or micro-F1).
    pub val: f64,
    /// Bytes sent by all devices in training exchanges.
    pub bytes: usize,
    /// Simulated epoch seconds with the assigner's host-timed solve removed.
    pub sim_no_solve: f64,
    /// The slowest device's breakdown (the runner's `EpochMetrics`).
    pub metrics: EpochMetrics,
}

/// One timed repetition: set-up, training, teardown.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds from config to the end of cluster teardown.
    pub run_s: f64,
    /// Rank 0's `run_epoch` host seconds, per epoch.
    pub epoch_s: Vec<f64>,
    /// Per-epoch cluster summary.
    pub epochs: Vec<EpochSummary>,
    /// `bench::analytic_sim_seconds` over the repetition.
    pub sim_s: f64,
    /// Most OS threads seen in the process during training.
    pub peak_threads: usize,
}

/// Folds per-device records (`records[rank][epoch]`) into per-epoch
/// summaries.
pub fn summarize(
    cfg: &ExperimentConfig,
    multi: bool,
    global_train: usize,
    records: &[Vec<DeviceEpochRecord>],
) -> Vec<EpochSummary> {
    let epochs = records.first().map_or(0, Vec::len);
    let divisor = global_train.max(1) as f64;
    (0..epochs)
        .map(|e| {
            let mut loss_sum = 0.0;
            let mut metric = MetricParts::default();
            let mut bytes = 0usize;
            let mut slowest = 0.0f64;
            let mut slowest_tb = comm::TimeBreakdown::new();
            for dev in records {
                let r = &dev[e];
                loss_sum += r.loss_sum;
                metric.merge(&r.metric);
                bytes += r.bytes_sent;
                let t =
                    epoch_time_with_overlap(cfg.method, cfg.training.disable_overlap, &r.breakdown);
                if t >= slowest {
                    slowest = t;
                    slowest_tb = r.breakdown;
                }
            }
            let mut no_solve = slowest_tb;
            no_solve.solve = 0.0;
            let val = MetricParts::score(&metric.val, multi);
            EpochSummary {
                loss: loss_sum / divisor,
                val,
                bytes,
                sim_no_solve: epoch_time(cfg.method, &no_solve),
                metrics: EpochMetrics {
                    epoch: e,
                    loss: loss_sum / divisor,
                    val_score: val,
                    test_score: MetricParts::score(&metric.test, multi),
                    sim_seconds: slowest,
                    breakdown: slowest_tb,
                    bytes_sent: bytes,
                },
            }
        })
        .collect()
}

/// `bench::analytic_sim_seconds` over `epochs`.
pub fn analytic_sim_seconds(cfg: &ExperimentConfig, epochs: &[EpochSummary]) -> f64 {
    let result = RunResult {
        per_epoch: epochs.iter().map(|e| e.metrics.clone()).collect(),
        ..RunResult::default()
    };
    bench::analytic_sim_seconds(cfg.method, &result)
}

/// What [`train`] returns.
pub struct Trained {
    /// Rank 0's `run_epoch` host seconds, per epoch.
    pub epoch_s: Vec<f64>,
    /// Per-device records, `records[rank][epoch]`.
    pub records: Vec<Vec<DeviceEpochRecord>>,
    /// Most OS threads seen in the process during training.
    pub peak_threads: usize,
}

/// Trains `cfg.training.epochs` epochs on an existing set-up.
///
/// # Errors
///
/// The cluster error (a device panic or a protocol failure) as a message.
pub fn train(cfg: &ExperimentConfig, s: &Setup) -> Result<Trained, String> {
    let epochs = cfg.training.epochs;
    let outputs = comm::Cluster::try_run_fn(cfg.num_devices(), |dev| {
        let rank = dev.rank();
        let mut trainer = DeviceTrainer::new(
            dev,
            &s.parts[rank],
            &cfg.training,
            cfg.method,
            s.cost.clone(),
            cfg.seed,
        );
        let mut host = Vec::new();
        let mut peak = 0;
        let records: Vec<DeviceEpochRecord> = (0..epochs)
            .map(|e| {
                let t = Instant::now();
                let r = trainer.run_epoch(e);
                if rank == 0 {
                    host.push(secs(t));
                    peak = peak.max(os_threads());
                }
                r
            })
            .collect();
        (host, records, peak)
    })
    .map_err(|e| e.to_string())?;
    let mut trained = Trained {
        epoch_s: Vec::new(),
        records: Vec::with_capacity(outputs.len()),
        peak_threads: 0,
    };
    for (host, records, peak) in outputs {
        if !host.is_empty() {
            trained.epoch_s = host;
        }
        trained.peak_threads = trained.peak_threads.max(peak);
        trained.records.push(records);
    }
    Ok(trained)
}

/// One timed repetition of `cfg`.
///
/// # Errors
///
/// Set-up or cluster failures, as a message.
pub fn repetition(cfg: &ExperimentConfig) -> Result<Repetition, String> {
    let t0 = Instant::now();
    let s = setup(cfg, None)?;
    let setup_s = secs(t0);
    let trained = train(cfg, &s)?;
    let epochs = summarize(cfg, s.multi, s.global_train, &trained.records);
    drop(s);
    let run_s = secs(t0);
    let sim_s = analytic_sim_seconds(cfg, &epochs);
    Ok(Repetition {
        setup_s,
        run_s,
        epoch_s: trained.epoch_s,
        epochs,
        sim_s,
        peak_threads: trained.peak_threads,
    })
}

/// Current OS thread count of this process (`/proc/self/status`), 0 where
/// unavailable.
pub fn os_threads() -> usize {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Peak resident set size of this process in KiB (`VmHWM`), 0 where
/// unavailable.
pub fn peak_rss_kib() -> usize {
    proc_status_field("VmHWM:").unwrap_or(0)
}

fn proc_status_field(key: &str) -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}
