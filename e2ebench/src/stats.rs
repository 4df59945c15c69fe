//! Order statistics over host-time samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples a tail percentile must leave strictly above itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample set: the highest whole percentile `p` whose
/// nearest-rank value still has at least [`TAIL_BEYOND`] samples strictly
/// above its rank.
///
/// With `n` sorted samples the nearest-rank `p`-th percentile is the sample
/// at 1-based rank `ceil(p * n / 100)`, which has `n - rank` samples beyond
/// it. Returns `(p, value)`, or `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist (no percentile qualifies).
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (1..=100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_BEYOND).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7) % n) as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail_percentile(&ramp(10)), None);
        // 11 samples: only the lowest rank leaves 10 beyond it.
        let (p, v) = tail_percentile(&ramp(11)).unwrap();
        assert_eq!(v, 0.0);
        assert_eq!((p as usize * 11).div_ceil(100), 1);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in [11, 12, 20, 37, 40, 100, 101, 250, 1000] {
            let xs = ramp(n);
            let (p, v) = tail_percentile(&xs).unwrap();
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{p} has {beyond} beyond");
            // The next percentile up would leave fewer than ten beyond.
            if p < 100 {
                let rank = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_of_a_hundred_is_p90() {
        let (p, v) = tail_percentile(&ramp(100)).unwrap();
        assert_eq!((p, v), (90, 89.0));
        let (p, v) = tail_percentile(&ramp(1000)).unwrap();
        assert_eq!((p, v), (99, 989.0));
    }
}
