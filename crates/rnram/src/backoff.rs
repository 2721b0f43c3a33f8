//! Exponential backoff with deterministic jitter.
//!
//! Re-dial loops ([`crate::TcpRemote::connect_redialing`]) and mirror
//! probes pace their attempts with a [`BackoffPolicy`]: delays double from
//! `base_nanos` up to `cap_nanos`, and a per-attempt slice of up to
//! `jitter_permille`/1000 of the delay is shaved off so a fleet of clients
//! re-dialing the same rebooted server does not stampede in lockstep. The
//! jitter is a pure function of `(seed, attempt)` — under a simulated
//! clock every run waits the exact same virtual nanoseconds, which keeps
//! fault schedules reproducible.

use perseas_simtime::det_rng;

/// Pacing for a retry loop: exponential delays, bounded by a cap, with
/// deterministic jitter.
///
/// # Examples
///
/// ```
/// use perseas_rnram::BackoffPolicy;
///
/// let p = BackoffPolicy::from_millis(10, 80);
/// let delays: Vec<u64> = (0..6).map(|a| p.delay_nanos(a)).collect();
/// // Never exceeds the cap, never drops below half the uncapped delay.
/// for (attempt, &d) in delays.iter().enumerate() {
///     assert!(d <= 80_000_000, "attempt {attempt} overshot: {d}");
/// }
/// // Deterministic: the same policy always produces the same schedule.
/// assert_eq!(delays, (0..6).map(|a| p.delay_nanos(a)).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in nanoseconds. Zero disables
    /// pacing entirely (every delay is zero).
    pub base_nanos: u64,
    /// Upper bound on any single delay, in nanoseconds.
    pub cap_nanos: u64,
    /// Fraction of each delay (in thousandths, `0..=1000`) that jitter
    /// may shave off.
    pub jitter_permille: u32,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl BackoffPolicy {
    /// A policy with millisecond-granularity base and cap, 200‰ jitter,
    /// and a fixed default seed.
    pub const fn from_millis(base_ms: u64, cap_ms: u64) -> Self {
        BackoffPolicy {
            base_nanos: base_ms * 1_000_000,
            cap_nanos: cap_ms * 1_000_000,
            jitter_permille: 200,
            seed: 0x5041_4345_5253_4554, // "PACERSET"
        }
    }

    /// A policy that never waits (all delays zero) — the pre-backoff
    /// tight-loop behaviour, for tests that want failures fast.
    pub const fn none() -> Self {
        BackoffPolicy {
            base_nanos: 0,
            cap_nanos: 0,
            jitter_permille: 0,
            seed: 0,
        }
    }

    /// Replaces the jitter seed (distinct clients should use distinct
    /// seeds so their schedules de-correlate).
    #[must_use]
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the jitter fraction (thousandths of each delay).
    ///
    /// # Panics
    ///
    /// Panics if `permille` exceeds 1000.
    #[must_use]
    pub fn with_jitter_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "jitter fraction over 100%: {permille}");
        self.jitter_permille = permille;
        self
    }

    /// The delay before retry number `attempt` (0-based), in nanoseconds.
    ///
    /// Pure and deterministic: `base * 2^attempt`, saturating, capped at
    /// `cap_nanos`, minus a jittered slice derived from
    /// `(seed, attempt)`. Always `<= cap_nanos`.
    pub fn delay_nanos(&self, attempt: u32) -> u64 {
        if self.base_nanos == 0 {
            return 0;
        }
        let cap = self.cap_nanos.max(self.base_nanos);
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        let raw = self.base_nanos.saturating_mul(factor).min(cap);
        if self.jitter_permille == 0 {
            return raw;
        }
        let span = (u128::from(raw) * u128::from(self.jitter_permille) / 1000) as u64;
        if span == 0 {
            return raw;
        }
        let shave = det_rng(self.seed ^ u64::from(attempt)).gen_range(span + 1);
        raw - shave
    }

    /// Sum of the delays for `attempts` retries — what a full retry loop
    /// that exhausts its budget will wait in total.
    pub fn total_nanos(&self, attempts: u32) -> u64 {
        (0..attempts).map(|a| self.delay_nanos(a)).sum()
    }
}

impl Default for BackoffPolicy {
    /// 1 ms first delay, 500 ms cap: aggressive enough for a LAN blip,
    /// bounded enough that a dead mirror is reported within seconds.
    fn default() -> Self {
        BackoffPolicy::from_millis(1, 500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_then_plateau_at_cap() {
        let p = BackoffPolicy::from_millis(1, 64).with_jitter_permille(0);
        let d: Vec<u64> = (0..10).map(|a| p.delay_nanos(a)).collect();
        assert_eq!(d[0], 1_000_000);
        assert_eq!(d[1], 2_000_000);
        assert_eq!(d[6], 64_000_000);
        assert_eq!(d[9], 64_000_000, "capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = BackoffPolicy::from_millis(8, 512);
        for attempt in 0..40 {
            let d = p.delay_nanos(attempt);
            assert_eq!(d, p.delay_nanos(attempt), "same (seed, attempt)");
            let nominal = 8_000_000u64
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                .min(512_000_000);
            assert!(d <= nominal);
            assert!(d >= nominal - nominal / 5, "at most 200 permille shaved");
        }
    }

    #[test]
    fn distinct_seeds_decorrelate() {
        let a = BackoffPolicy::from_millis(10, 1000).with_seed(1);
        let b = BackoffPolicy::from_millis(10, 1000).with_seed(2);
        let sa: Vec<u64> = (0..8).map(|i| a.delay_nanos(i)).collect();
        let sb: Vec<u64> = (0..8).map(|i| b.delay_nanos(i)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn none_never_waits() {
        let p = BackoffPolicy::none();
        assert_eq!(p.total_nanos(100), 0);
    }

    #[test]
    fn huge_attempt_saturates_instead_of_overflowing() {
        let p = BackoffPolicy::from_millis(1, u64::MAX / 2_000_000);
        let _ = p.delay_nanos(u32::MAX);
        let q = BackoffPolicy {
            base_nanos: u64::MAX,
            cap_nanos: u64::MAX,
            jitter_permille: 0,
            seed: 0,
        };
        assert_eq!(q.delay_nanos(63), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "jitter fraction")]
    fn over_unit_jitter_rejected() {
        let _ = BackoffPolicy::default().with_jitter_permille(1001);
    }
}
