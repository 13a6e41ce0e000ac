//! Sampling statistics: the efficiency side of the efficiency ↔ skew
//! trade-off.

/// Cumulative counters maintained by every sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerStats {
    /// Drill-down walks started (brute force: probe queries issued).
    pub walks: u64,
    /// Walks that hit an empty node and restarted.
    pub dead_ends: u64,
    /// Walks that bottomed out on an overflowing fully-specified query
    /// (indistinguishable tuple mass > k — unsampleable by drill-down).
    pub leaf_overflows: u64,
    /// Candidates handed to the Sample Processor.
    pub candidates: u64,
    /// Candidates accepted (= samples produced).
    pub accepted: u64,
    /// Candidates rejected by acceptance–rejection.
    pub rejected: u64,
    /// Logical query requests made by the sampler (cache hits included).
    pub requests: u64,
    /// Queries actually charged at the interface.
    pub queries_issued: u64,
    /// Transient-failure retries (throttles, 5xx, dropped connections).
    /// Charged separately from `queries_issued`: a retried query is still
    /// one logical query.
    pub retries: u64,
    /// Total backoff waited before those retries, in wire milliseconds
    /// (virtual on simulated wires, real on live ones).
    pub backoff_ms: u64,
}

impl SamplerStats {
    /// Interface queries charged per accepted sample — the paper's core
    /// efficiency metric.
    pub fn queries_per_sample(&self) -> f64 {
        if self.accepted == 0 {
            f64::NAN
        } else {
            self.queries_issued as f64 / self.accepted as f64
        }
    }

    /// Walks per accepted sample.
    pub fn walks_per_sample(&self) -> f64 {
        if self.accepted == 0 {
            f64::NAN
        } else {
            self.walks as f64 / self.accepted as f64
        }
    }

    /// Fraction of candidates that survived acceptance–rejection.
    pub fn acceptance_rate(&self) -> f64 {
        if self.candidates == 0 {
            f64::NAN
        } else {
            self.accepted as f64 / self.candidates as f64
        }
    }

    /// Queries the history cache absorbed (requests that cost nothing).
    pub fn queries_saved(&self) -> u64 {
        self.requests.saturating_sub(self.queries_issued)
    }

    /// Fraction of requests served without charging the site.
    pub fn savings_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queries_saved() as f64 / self.requests as f64
        }
    }

    /// Fold another walker's counters into this one (a fleet site's
    /// walkers).
    ///
    /// Sampler-local counters (walks, candidates, accepted, …) add up.
    /// The executor-view counters (`requests`, `queries_issued`) take the
    /// **max**: workers sharing one executor each report the same
    /// cumulative figures, so summing would multi-count. For workers on a
    /// shared executor the merged figure is exact; for independent
    /// executors it is a lower bound.
    pub fn merge_worker(&mut self, other: &SamplerStats) {
        self.walks += other.walks;
        self.dead_ends += other.dead_ends;
        self.leaf_overflows += other.leaf_overflows;
        self.candidates += other.candidates;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.requests = self.requests.max(other.requests);
        self.queries_issued = self.queries_issued.max(other.queries_issued);
        self.retries = self.retries.max(other.retries);
        self.backoff_ms = self.backoff_ms.max(other.backoff_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = SamplerStats {
            walks: 100,
            dead_ends: 40,
            leaf_overflows: 0,
            candidates: 60,
            accepted: 20,
            rejected: 40,
            requests: 500,
            queries_issued: 300,
            retries: 0,
            backoff_ms: 0,
        };
        assert_eq!(s.queries_per_sample(), 15.0);
        assert_eq!(s.walks_per_sample(), 5.0);
        assert!((s.acceptance_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.queries_saved(), 200);
        assert!((s.savings_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_local_and_maxes_shared_counters() {
        let mut a = SamplerStats {
            walks: 10,
            dead_ends: 2,
            leaf_overflows: 1,
            candidates: 7,
            accepted: 5,
            rejected: 2,
            requests: 40,
            queries_issued: 30,
            retries: 4,
            backoff_ms: 120,
        };
        let b = SamplerStats {
            walks: 4,
            dead_ends: 1,
            leaf_overflows: 0,
            candidates: 3,
            accepted: 2,
            rejected: 1,
            requests: 42,
            queries_issued: 31,
            retries: 3,
            backoff_ms: 200,
        };
        a.merge_worker(&b);
        assert_eq!(a.walks, 14);
        assert_eq!(a.accepted, 7);
        assert_eq!(a.rejected, 3);
        assert_eq!(a.requests, 42, "shared executor view: max, not sum");
        assert_eq!(a.queries_issued, 31);
        assert_eq!(a.retries, 4, "interface view: max, not sum");
        assert_eq!(a.backoff_ms, 200);
    }

    #[test]
    fn zero_sample_ratios_are_nan_not_panic() {
        let s = SamplerStats::default();
        assert!(s.queries_per_sample().is_nan());
        assert!(s.walks_per_sample().is_nan());
        assert!(s.acceptance_rate().is_nan());
        assert_eq!(s.savings_rate(), 0.0);
    }
}
