//! The traced run: per-layer self times, work counts and the residual no
//! layer boundary explains, for one workload.
//!
//! Order of work, all on one set-up:
//! 1. three traced set-ups (span per public call; medians reported);
//! 2. the untraced trainer for the workload's epochs (the reference);
//! 3. the traced replica for the same epochs, checked against (2);
//! 4. isolated comm replays: `ring_all2all` with the workload's real
//!    per-pair payload sizes, the same call with empty payloads, and the
//!    gradient allreduce.

use crate::compose::{os_threads, train};
use crate::replay::{Counts, EpochOut, TracedTrainer};
use crate::spans::{attribute, Kind, Recorder, Span};
use crate::stats::{mean, median};
use crate::workload::{setup, Setup};
use adaqp::ExperimentConfig;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::Instant;

/// Run ids of the recorded phases.
pub const RUN_SETUP: u32 = 0;
/// The traced training run.
pub const RUN_TRAIN: u32 = 1;
/// Isolated `ring_all2all` with real payload sizes.
pub const RUN_RING: u32 = 2;
/// Isolated `ring_all2all` with empty payloads.
pub const RUN_RING_EMPTY: u32 = 3;
/// Isolated gradient allreduce.
pub const RUN_ALLREDUCE: u32 = 4;

/// Traced set-ups per run (their medians are reported).
const SETUPS: usize = 3;
/// Calls per isolated comm replay.
const REPLAY_CALLS: usize = 10;
/// Devices whose training spans are written to the span dump.
const DUMP_RANKS: usize = 8;

/// Span names that are layers. Everything else inside an epoch is trainer
/// glue (`core.trainers.epoch`) or a wait in `comm`, which owns no time.
pub const LAYER_SPANS: [&str; 8] = [
    "gnn.layer.dense",
    "gnn.agg.aggregate",
    "gnn.agg.backward",
    "gnn.adam.step",
    "quant.encode",
    "quant.decode",
    "core.exchange",
    "core.assigner.reassign",
];

/// Everything the traced run measured.
pub struct Traced {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Mismatches between the traced replica and the real trainer.
    pub failures: Vec<String>,
    /// Spans worth writing out: set-up, the last traced epoch of the first
    /// devices, replays.
    pub spans: Vec<Span>,
    /// The epoch attribution in detail (JSON).
    pub attribution: serde_json::Value,
}

/// Runs the traced measurement of `cfg`.
///
/// # Errors
///
/// Set-up or cluster failures, as a message.
pub fn run(cfg: &ExperimentConfig) -> Result<Traced, String> {
    let base = Instant::now();
    let n = cfg.num_devices();
    let epochs = cfg.training.epochs;

    // 1. Set-up, traced.
    let mut setup_spans = Vec::new();
    let mut s: Option<Setup> = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let mut rec = Recorder::new(base, RUN_SETUP, 0);
        s = Some(setup(cfg, Some(&mut rec))?);
        setup_spans.extend(rec.finish());
    }
    let s = s.expect("at least one set-up ran");
    let setup_median = |name: &str| {
        let xs: Vec<f64> = setup_spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| ns_to_s(sp.dur()))
            .collect();
        median(&xs).unwrap_or(0.0)
    };

    // 2. Untraced reference on the same set-up.
    let untraced = train(cfg, &s)?;
    let (untraced_s, records) = (untraced.epoch_s, untraced.records);

    // 3. The traced replica.
    let outputs = comm::Cluster::try_run_fn(n, |dev| {
        let rank = dev.rank();
        let rec = Recorder::new(base, RUN_TRAIN, u32::try_from(rank).unwrap_or(u32::MAX));
        let mut trainer = TracedTrainer::new(
            dev,
            &s.parts[rank],
            &cfg.training,
            cfg.method,
            s.cost.clone(),
            cfg.seed,
            rec,
        );
        let mut peak = 0;
        let outs: Vec<EpochOut> = (0..epochs)
            .map(|e| {
                let out = trainer.run_epoch(e);
                if rank == 0 {
                    peak = peak.max(os_threads());
                }
                out
            })
            .collect();
        (outs, trainer.finish(), peak)
    })
    .map_err(|e| e.to_string())?;

    let mut failures = Vec::new();
    let mut spans = Vec::new();
    let mut counts = Vec::with_capacity(n);
    let mut ring_sizes = Vec::with_capacity(n);
    let mut peak_threads = 0;
    for (rank, (outs, (sp, c, sizes), peak)) in outputs.into_iter().enumerate() {
        for (e, (t, u)) in outs.iter().zip(&records[rank]).enumerate() {
            let same = t.bytes_sent == u.bytes_sent
                && t.loss_sum.to_bits() == u.loss_sum.to_bits()
                && t.comm_s.to_bits() == u.breakdown.comm.to_bits()
                && t.quant_s.to_bits() == u.breakdown.quant.to_bits();
            if !same {
                failures.push(format!(
                    "rank {rank} epoch {e}: traced (bytes {}, loss {}, comm {}, quant {}) vs \
                     untraced (bytes {}, loss {}, comm {}, quant {})",
                    t.bytes_sent,
                    t.loss_sum,
                    t.comm_s,
                    t.quant_s,
                    u.bytes_sent,
                    u.loss_sum,
                    u.breakdown.comm,
                    u.breakdown.quant
                ));
            }
        }
        spans.extend(sp);
        counts.push(c);
        ring_sizes.push(sizes);
        peak_threads = peak_threads.max(peak);
    }
    drop(records);

    // Attribution over rank 0's epoch windows.
    let windows: Vec<(u64, u64)> = spans
        .iter()
        .filter(|sp| sp.rank == 0 && sp.name == "core.trainers.epoch")
        .map(|sp| (sp.start, sp.end))
        .collect();
    let mut self_by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut unattributed_ns = 0u64;
    for &w in &windows {
        let (self_ns, u) = attribute(&spans, w);
        for (sp, ns) in spans.iter().zip(self_ns) {
            *self_by_name.entry(sp.name).or_default() += ns;
        }
        unattributed_ns += u;
    }
    let per_epoch = |ns: u64| ns_to_s(ns) / epochs as f64;
    let traced_epoch = mean(
        &windows
            .iter()
            .map(|&(a, b)| ns_to_s(b - a))
            .collect::<Vec<_>>(),
    );
    let self_s = |name: &str| per_epoch(self_by_name.get(name).copied().unwrap_or(0));
    let total = sum_counts(&counts);
    let solve_s = total.solve_secs / epochs as f64;
    let layer_sum: f64 = LAYER_SPANS.iter().map(|name| self_s(name)).sum();
    let unattributed = traced_epoch - layer_sum;

    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| ns_to_s(sp.dur()))
            .collect()
    };
    let wait_total: f64 = durations("comm.ring_all2all").iter().sum();
    let encode_us: Vec<f64> = durations("quant.encode").iter().map(|s| s * 1e6).collect();

    // 4. Isolated comm replays.
    let grad_len = param_count(cfg, &s);
    let ring = replay(n, base, RUN_RING, "comm.ring_all2all", |dev| {
        let p: Vec<Bytes> = ring_sizes[dev.rank()]
            .iter()
            .map(|&len| Bytes::from(vec![0u8; len]))
            .collect();
        move |dev: &mut comm::DeviceHandle| drop(dev.ring_all2all(p.clone()))
    })?;
    let ring_empty = replay(n, base, RUN_RING_EMPTY, "comm.ring_all2all_empty", |dev| {
        let p: Vec<Bytes> = (0..dev.num_devices()).map(|_| Bytes::new()).collect();
        move |dev: &mut comm::DeviceHandle| drop(dev.ring_all2all(p.clone()))
    })?;
    let allreduce = replay(n, base, RUN_ALLREDUCE, "comm.allreduce", |_| {
        let mut g = vec![0.0f32; grad_len];
        move |dev: &mut comm::DeviceHandle| dev.allreduce_sum_f32(&mut g)
    })?;
    let rank0_median = |sp: &[Span]| {
        let xs: Vec<f64> = sp
            .iter()
            .filter(|x| x.rank == 0)
            .map(|x| ns_to_s(x.dur()))
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    let pairs = n * n.saturating_sub(1);
    let ep = epochs as f64;
    let metrics = vec![
        ("graph.generate_s", setup_median("graph.generate"), "s"),
        ("graph.partition_s", setup_median("graph.partition"), "s"),
        (
            "core.decompose.build_partitions_s",
            setup_median("core.decompose.build_partitions"),
            "s",
        ),
        ("gnn.layer.dense_s", self_s("gnn.layer.dense"), "s"),
        ("gnn.layer.dense_flops", total.dense_flops / ep, "flop"),
        ("gnn.agg.aggregate_s", self_s("gnn.agg.aggregate"), "s"),
        ("gnn.agg.backward_s", self_s("gnn.agg.backward"), "s"),
        ("gnn.agg.entries", total.agg_entries as f64 / ep, "count"),
        ("gnn.adam.step_s", self_s("gnn.adam.step"), "s"),
        ("quant.encode_s", self_s("quant.encode"), "s"),
        ("quant.decode_s", self_s("quant.decode"), "s"),
        ("quant.blocks", total.quant_blocks as f64 / ep, "count"),
        ("quant.wire_bytes", total.quant_wire_bytes as f64 / ep, "B"),
        (
            "quant.block_us.p50",
            median(&encode_us).unwrap_or(0.0),
            "us",
        ),
        ("core.exchange.self_s", self_s("core.exchange"), "s"),
        ("core.exchange.wait_s", wait_total / n as f64 / ep, "s"),
        (
            "core.exchange.calls",
            total.exchange_calls as f64 / ep,
            "count",
        ),
        ("comm.ring_all2all_s", rank0_median(&ring), "s"),
        ("comm.ring_all2all_empty_s", rank0_median(&ring_empty), "s"),
        ("comm.allreduce_s", rank0_median(&allreduce), "s"),
        (
            "comm.pairs_nonempty_ratio",
            if pairs == 0 {
                0.0
            } else {
                s.nonempty_pairs as f64 / pairs as f64
            },
            "ratio",
        ),
        ("comm.bytes", total.comm_bytes as f64 / ep, "B"),
        ("comm.peak_threads", peak_threads as f64, "count"),
        (
            "core.assigner.reassign_s",
            self_s("core.assigner.reassign") - solve_s,
            "s",
        ),
        ("solver.solve_s", solve_s, "s"),
        ("solver.problems", total.solve_problems as f64 / ep, "count"),
        (
            "solver.iterations",
            total.solve_iterations as f64 / ep,
            "count",
        ),
        ("core.trainers.unattributed_s", unattributed, "s"),
        ("trace.overhead_s", traced_epoch - mean(&untraced_s), "s"),
    ];

    let layer_self: serde_json::Map = LAYER_SPANS
        .iter()
        .map(|name| (name.to_string(), serde_json::json!(self_s(name))))
        .collect();
    let split = serde_json::json!({
        "trainer_glue_s": self_s("core.trainers.epoch"),
        "no_device_running_s": per_epoch(unattributed_ns),
    });
    let attribution = serde_json::json!({
        "traced_epoch_s": traced_epoch,
        "untraced_epoch_s": mean(&untraced_s),
        "epochs": epochs,
        "partition_digest": format!("{:016x}", s.digest),
        "nonempty_pairs": s.nonempty_pairs,
        "layer_self_s": serde_json::Value::Object(layer_self),
        "solver_solve_s": solve_s,
        "unattributed_s": unattributed,
        "unattributed_split": split,
    });

    // Keep the last traced epoch of the first DUMP_RANKS devices (plus
    // set-up and replays) for the dump; all ranks of a 256-device epoch
    // would be tens of megabytes.
    let last = windows.last().copied().unwrap_or((0, 0));
    spans.retain(|sp| (sp.rank as usize) < DUMP_RANKS && sp.end > last.0 && sp.start < last.1);
    let mut kept = setup_spans;
    kept.extend(spans);
    for replayed in [ring, ring_empty, allreduce] {
        kept.extend(
            replayed
                .into_iter()
                .filter(|sp| (sp.rank as usize) < DUMP_RANKS),
        );
    }
    Ok(Traced {
        metrics,
        failures,
        spans: kept,
        attribution,
    })
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn sum_counts(counts: &[Counts]) -> Counts {
    let mut t = Counts::default();
    for c in counts {
        t.dense_flops += c.dense_flops;
        t.agg_entries += c.agg_entries;
        t.quant_blocks += c.quant_blocks;
        t.quant_wire_bytes += c.quant_wire_bytes;
        t.exchange_calls += c.exchange_calls;
        t.comm_bytes += c.comm_bytes;
        t.solve_secs += c.solve_secs;
        t.solve_problems += c.solve_problems;
        t.solve_iterations += c.solve_iterations;
    }
    t
}

/// Length of the flat gradient the trainer allreduces.
fn param_count(cfg: &ExperimentConfig, s: &Setup) -> usize {
    let part = &s.parts[0];
    let dims = cfg
        .training
        .dims(part.features.cols(), part.global.num_classes);
    let mut rng = tensor::Rng::seed_from(cfg.seed);
    gnn::Gnn::with_dropout(
        cfg.training.conv_kind(),
        &dims,
        cfg.training.dropout,
        &mut rng,
    )
    .param_count()
}

/// Runs `REPLAY_CALLS` calls of one collective on an otherwise idle
/// cluster; `make(dev)` builds each rank's call. Returns every call's span.
fn replay<M, C>(
    n: usize,
    base: Instant,
    run: u32,
    name: &'static str,
    make: M,
) -> Result<Vec<Span>, String>
where
    M: Fn(&comm::DeviceHandle) -> C + Sync,
    C: FnMut(&mut comm::DeviceHandle),
{
    let outputs = comm::Cluster::try_run_fn(n, |mut dev| {
        let rank = u32::try_from(dev.rank()).unwrap_or(u32::MAX);
        let mut call = make(&dev);
        let mut rec = Recorder::new(base, run, rank);
        for _ in 0..REPLAY_CALLS {
            rec.time(name, Kind::Wait, || call(&mut dev));
        }
        rec.finish()
    })
    .map_err(|e| e.to_string())?;
    Ok(outputs.into_iter().flatten().collect())
}
