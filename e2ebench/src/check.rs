//! Correctness checks, run outside the timed region.

use crate::compose::EpochSummary;
use adaqp::metrics::epoch_time;
use adaqp::ExperimentConfig;

/// Compares the composed run's first `prefix` epochs with
/// `adaqp::run_experiment` on the same config: per-epoch wire bytes,
/// solve-excluded simulated seconds and loss must agree bit for bit.
///
/// Returns one message per mismatch (empty when the composition is faithful).
pub fn against_runner(cfg: &ExperimentConfig, ours: &[EpochSummary], prefix: usize) -> Vec<String> {
    let mut reference = cfg.clone();
    reference.training.epochs = prefix;
    let theirs = match adaqp::run_experiment(&reference) {
        Ok(r) => r,
        Err(e) => return vec![format!("run_experiment failed: {e}")],
    };
    if ours.len() < prefix || theirs.per_epoch.len() != prefix {
        return vec![format!(
            "epoch counts differ: composed {} vs run_experiment {}",
            ours.len(),
            theirs.per_epoch.len()
        )];
    }
    let mut failures = Vec::new();
    for (e, (a, b)) in ours.iter().zip(&theirs.per_epoch).enumerate() {
        let mut tb = b.breakdown;
        tb.solve = 0.0;
        let sim = epoch_time(cfg.method, &tb);
        if a.bytes != b.bytes_sent {
            failures.push(format!("epoch {e}: bytes {} vs {}", a.bytes, b.bytes_sent));
        }
        if a.sim_no_solve.to_bits() != sim.to_bits() {
            failures.push(format!(
                "epoch {e}: sim seconds {} vs {sim}",
                a.sim_no_solve
            ));
        }
        if a.loss.to_bits() != b.loss.to_bits() {
            failures.push(format!("epoch {e}: loss {} vs {}", a.loss, b.loss));
        }
    }
    failures
}

/// Every loss must be finite.
pub fn finite_losses(epochs: &[EpochSummary]) -> Vec<String> {
    epochs
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.loss.is_finite())
        .map(|(i, e)| format!("epoch {i}: loss {}", e.loss))
        .collect()
}
