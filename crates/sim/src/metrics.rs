//! Performance metrics (§8.1 "Metrics").

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Weighted speedup (Snavely & Tullsen / Eyerman & Eeckhout):
/// `Σ IPC_shared,i / IPC_alone,i`.
///
/// # Panics
///
/// Panics if lengths differ or an alone-IPC is non-positive.
pub fn weighted_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "core count mismatch");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(a > 0.0, "alone IPC must be positive, got {a}");
            s / a
        })
        .sum()
}

/// Maximum slowdown (the fairness metric of Kim et al. / the TL-DRAM and
/// CLR-DRAM multi-core evaluations): `max_i IPC_alone,i / IPC_shared,i`.
/// 1.0 means no core was hurt by sharing; larger values mean the
/// worst-treated core ran that many times slower than it would alone.
///
/// # Panics
///
/// Panics if the slices are empty, lengths differ, or a shared IPC is
/// non-positive.
pub fn max_slowdown(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "core count mismatch");
    assert!(!shared.is_empty(), "max_slowdown of zero cores");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(s > 0.0, "shared IPC must be positive, got {s}");
            a / s
        })
        .fold(f64::MIN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_of_equal_runs_is_core_count() {
        let ipc = [1.5, 0.7, 2.0, 1.0];
        assert!((weighted_speedup(&ipc, &ipc) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_reflects_slowdown() {
        let shared = [0.5, 0.5];
        let alone = [1.0, 1.0];
        assert!((weighted_speedup(&shared, &alone) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_hand_computed() {
        // Core 0: 0.6 shared vs 0.8 alone → 0.75; core 1: 0.2 vs 0.5 →
        // 0.4. Weighted speedup = 0.75 + 0.4 = 1.15.
        let ws = weighted_speedup(&[0.6, 0.2], &[0.8, 0.5]);
        assert!((ws - 1.15).abs() < 1e-12);
    }

    #[test]
    fn max_slowdown_hand_computed() {
        // Slowdowns: 0.8/0.6 = 1.333…, 0.5/0.2 = 2.5 → max 2.5.
        let ms = max_slowdown(&[0.6, 0.2], &[0.8, 0.5]);
        assert!((ms - 2.5).abs() < 1e-12);
        // No interference → exactly 1.0.
        let ipc = [1.5, 0.7];
        assert!((max_slowdown(&ipc, &ipc) - 1.0).abs() < 1e-12);
        // A core *helped* by sharing yields < 1 for itself; the max
        // still reflects the worst core.
        let ms = max_slowdown(&[1.0, 0.5], &[0.5, 1.0]);
        assert!((ms - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn max_slowdown_rejects_mismatched_lengths() {
        let _ = max_slowdown(&[1.0], &[1.0, 2.0]);
    }
}
