//! End-to-end host benchmark of the AdaQP simulator.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats set-up + training + teardown of the workload until
//! `--seconds` have passed (and at least enough repetitions for a tail
//! percentile), checks the composed run against `adaqp::run_experiment`
//! outside the timed region, and reports the end-to-end metrics.
//! `--trace 1` runs the traced replica and reports per-layer metrics.
//! Either way the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the full record, with
//! `_meta` provenance, goes to `e2ebench/out/`. See `e2ebench/README.md`.

mod check;
mod compose;
mod replay;
mod spans;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Set-up-only repetitions before the timed training repetitions.
const SETUP_ONLY: usize = 5;

const USAGE: &str = "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workload::find(&value)
                        .ok_or(format!("unknown workload {value:?}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `ADAQP_SAN` / `ADAQP_PROFILE` set to anything but empty or `0`.
fn env_on(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The repository's `HEAD`, or `unknown` outside a git checkout (git is not
/// asked to search directories above the repository).
fn git_rev() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !repo.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .current_dir(&repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn meta(args: &Args, nproc: usize) -> serde_json::Value {
    serde_json::json!({
        "nproc": nproc,
        "kernel_threads": tensor::par::current_threads(),
        "git_rev": git_rev(),
        "profile": env!("E2E_PROFILE"),
        "target_cpu": env!("E2E_TARGET_CPU"),
        "backend": "event",
        "workload": args.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
}

/// The outcome of one benchmark invocation.
struct Outcome {
    /// The metrics `BENCHMARK.json` declares, each with a regression bound.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Reported and recorded, but not gated: see `e2ebench/README.md`.
    ungated: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failures: Vec<String>,
    /// Extra fields for the record file.
    detail: serde_json::Value,
}

/// Untraced: timed repetitions, then the correctness checks.
fn untraced(args: &Args, cfg: &adaqp::ExperimentConfig) -> Result<Outcome, String> {
    let epochs = cfg.training.epochs;
    let mut failures = Vec::new();
    let mut attempted = 0;
    // Set-up alone, a few times, so `setup_s` is a median of many samples.
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_ONLY {
        let t = Instant::now();
        workload::setup(cfg, None)?;
        setup_s.push(workload::secs(t));
    }
    let mut reps: Vec<compose::Repetition> = Vec::new();
    for i in 1..=args.workload.reps(args.seconds) {
        attempted += 1;
        let rep = std::panic::catch_unwind(|| compose::repetition(cfg))
            .unwrap_or_else(|_| Err("repetition panicked".to_string()));
        match rep {
            Ok(r) => reps.push(r),
            Err(e) => failures.push(format!("repetition {i}: {e}")),
        }
    }
    if reps.is_empty() {
        return Err(failures.join("; "));
    }
    setup_s.extend(reps.iter().map(|r| r.setup_s));
    // ---- Correctness, outside the timed region ----
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate() {
        let mut bad = check::finite_losses(&r.epochs);
        let same = r.epochs.iter().zip(&first.epochs).all(|(a, b)| {
            a.bytes == b.bytes
                && a.loss.to_bits() == b.loss.to_bits()
                && a.sim_no_solve.to_bits() == b.sim_no_solve.to_bits()
        });
        if !same {
            bad.push("results differ from the first repetition".to_string());
        }
        if !bad.is_empty() {
            failures.push(format!("repetition {}: {}", i + 1, bad.join("; ")));
        }
    }
    attempted += 1;
    let mismatches = check::against_runner(cfg, &first.epochs, args.workload.check_epochs);
    if !mismatches.is_empty() {
        failures.push(format!(
            "composed run vs run_experiment: {}",
            mismatches.join("; ")
        ));
    }

    let samples: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.epoch_s.iter().copied())
        .collect();
    let med = |xs: Vec<f64>| stats::median(&xs).unwrap_or(0.0);
    // With fewer than eleven samples (failed repetitions) no percentile
    // qualifies; fall back to the maximum.
    let (tail_p, tail) = stats::tail_percentile(&samples)
        .unwrap_or((100, samples.iter().copied().fold(0.0, f64::max)));
    let ep = epochs as f64;
    let wire: usize = first.epochs.iter().map(|e| e.bytes).sum();
    let best_val = first.epochs.iter().map(|e| e.val).fold(0.0, f64::max);
    let final_loss = first.epochs.last().map_or(f64::NAN, |e| e.loss);
    let metrics = vec![
        ("setup_s", med(setup_s.clone()), "s"),
        ("epoch_host_s.p50", med(samples.clone()), "s"),
        ("epoch_host_s.tail", tail, "s"),
        (
            "run_host_s",
            med(reps.iter().map(|r| r.run_s).collect()),
            "s",
        ),
        ("peak_rss_mb", compose::peak_rss_kib() as f64 / 1024.0, "MB"),
        ("sim_epochs_per_s", ep / first.sim_s, "1/s"),
        ("wire_mb_per_epoch", wire as f64 / ep / 1e6, "MB"),
    ];
    let ungated = vec![
        ("best_val", best_val, "score"),
        ("final_loss", final_loss, "loss"),
    ];
    let detail = serde_json::json!({
        "epochs_per_repetition": epochs,
        "repetitions": reps.len(),
        "epoch_samples": samples.len(),
        "tail_percentile": tail_p,
        "peak_threads": reps.iter().map(|r| r.peak_threads).max(),
        "epoch_host_s": samples,
        "setup_s": setup_s,
        "run_host_s": reps.iter().map(|r| r.run_s).collect::<Vec<_>>(),
    });
    Ok(Outcome {
        metrics,
        ungated,
        attempted,
        failures,
        detail,
    })
}

fn traced(
    cfg: &adaqp::ExperimentConfig,
    out_dir: &std::path::Path,
    name: &str,
) -> Result<Outcome, String> {
    let t = trace::run(cfg)?;
    let write = |file: String, text: String| {
        std::fs::write(out_dir.join(file), text).map_err(|e| e.to_string())
    };
    write(format!("{name}.spans.json"), spans::spans_json(&t.spans))?;
    write(format!("{name}.chrome.json"), spans::chrome_trace(&t.spans))?;
    Ok(Outcome {
        metrics: t.metrics,
        ungated: Vec::new(),
        attempted: 2,
        failures: t.failures,
        detail: serde_json::json!({ "attribution": t.attribution }),
    })
}

fn run(args: &Args) -> Result<(Outcome, serde_json::Value), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cfg = args.workload.config(args.seed, args.workload.epochs, nproc);
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let mut outcome = if args.trace {
        traced(&cfg, &out_dir, args.workload.name)?
    } else {
        untraced(args, &cfg)?
    };
    let failed_frac = outcome.failures.len() as f64 / outcome.attempted as f64;
    let mut ungated = outcome.ungated.clone();
    ungated.push(("failed_frac", failed_frac, "ratio"));
    let as_json = |ms: &[(&str, f64, &str)]| {
        serde_json::Value::Object(
            ms.iter()
                .map(|&(k, v, u)| (k.to_string(), serde_json::json!({ "value": v, "unit": u })))
                .collect(),
        )
    };
    let metrics = as_json(&outcome.metrics);
    let record = serde_json::json!({
        "_meta": meta(args, nproc),
        "metrics": metrics,
        "ungated": as_json(&ungated),
        "failures": outcome.failures,
        "detail": outcome.detail,
    });
    let file = format!(
        "{}{}.json",
        args.workload.name,
        if args.trace { ".trace" } else { "" }
    );
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(out_dir.join(file), text).map_err(|e| e.to_string())?;
    let result = serde_json::json!({
        "correct": outcome.failures.is_empty(),
        "attempted": outcome.attempted,
        "failed": outcome.failures.len(),
        "metrics": metrics,
    });
    outcome.ungated = ungated;
    Ok((outcome, result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Sanitized or profiled runs measure the sanitizer or the flight
    // recorder, not the simulator (as scripts/bench.sh refuses too).
    for key in ["ADAQP_SAN", "ADAQP_PROFILE"] {
        if env_on(key) {
            eprintln!("e2ebench: refusing to record with {key} set");
            return ExitCode::from(2);
        }
    }
    match run(&args) {
        Ok((outcome, result)) => {
            let mut out = std::io::stdout().lock();
            for (name, value, unit) in outcome.metrics.iter().chain(&outcome.ungated) {
                let name = format!("{}/{name}", args.workload.name);
                let _ = writeln!(out, "{name:<44} {value:>18.6} {unit}");
            }
            for f in &outcome.failures {
                let _ = writeln!(out, "FAILED: {f}");
            }
            let _ = writeln!(
                out,
                "{}",
                serde_json::to_string(&result).unwrap_or_default()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
