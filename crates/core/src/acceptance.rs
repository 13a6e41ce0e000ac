//! The Sample Processor's acceptance–rejection rule (§3.3) and the
//! efficiency ↔ skew slider (§3.1).
//!
//! ## The mathematics
//!
//! A drill-down walk with attribute order `π` stops at the first
//! non-overflowing node; if that node sits at depth `d`, holds `j ≤ k`
//! tuples, and one of them is picked uniformly, the per-walk probability of
//! selecting tuple `t` is
//!
//! ```text
//! p(t) = (∏_{i ≤ d} 1 / |Dom(π_i)|) · 1/j .
//! ```
//!
//! Accepting the candidate with probability
//!
//! ```text
//! a(t) = min(1, C · j · ∏_{i ≤ d} |Dom(π_i)| / B),        B = ∏_i |Dom(π_i)|
//! ```
//!
//! gives output probability `p(t)·a(t) = min(p(t), C/B)`: **uniform** at
//! `C = 1` on data without duplicate tuples (every tuple emitted with
//! probability `1/B` per walk — slow but skewless; see
//! [`AcceptancePolicy::Uniform`] for duplicates), progressively clipped
//! for the hardest-to-reach tuples as `C` grows (fast but skewed). That
//! is precisely the trade-off the demo's slider exposes: "one end having
//! the highest efficiency and the other having the lowest skew" (§3.1).

use serde::{Deserialize, Serialize};

/// Acceptance policy of the Sample Processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AcceptancePolicy {
    /// `C = 1`: maximum rejections. The output is uniform only when no
    /// two tuples share their full value assignment; a tuple with `j − 1`
    /// duplicates is under-sampled `j`-fold (README, "Limitations").
    Uniform,
    /// Explicit scaling factor `C ≥ 1`.
    ScaleC {
        /// The scaling factor.
        c: f64,
    },
    /// The demo slider: position `0` maps to `C = 1` (lowest skew),
    /// position `1` to `C = B` (every candidate accepted — raw walk
    /// distribution, highest efficiency), log-interpolated in between
    /// (`C = B^position`).
    Slider {
        /// Slider position in `[0, 1]`.
        position: f64,
    },
    /// Accept every candidate (equivalent to slider = 1).
    AcceptAll,
}

impl AcceptancePolicy {
    /// Resolve the policy to a concrete scaling factor for a query tree
    /// with domain product `b` (over the drillable attributes).
    ///
    /// # Panics
    /// Panics on `C < 1` or a slider position outside `[0, 1]` — these are
    /// configuration errors, caught at sampler construction.
    pub fn resolve_c(&self, b: f64) -> f64 {
        match *self {
            AcceptancePolicy::Uniform => 1.0,
            AcceptancePolicy::ScaleC { c } => {
                assert!(c >= 1.0, "scaling factor C must be ≥ 1, got {c}");
                c
            }
            AcceptancePolicy::Slider { position } => {
                assert!(
                    (0.0..=1.0).contains(&position),
                    "slider position must lie in [0,1], got {position}"
                );
                b.powf(position)
            }
            AcceptancePolicy::AcceptAll => f64::INFINITY,
        }
    }
}

/// Acceptance probability for a candidate picked at a node with
/// `branch_product = ∏_{i ≤ d} |Dom(π_i)|` and `j = result_size`, on a tree
/// with total domain product `b`, under scaling factor `c`.
///
/// Always in `(0, 1]` for well-formed inputs.
#[inline]
pub fn acceptance_probability(c: f64, branch_product: f64, result_size: usize, b: f64) -> f64 {
    debug_assert!(
        result_size >= 1,
        "candidates come from non-empty valid nodes"
    );
    debug_assert!(branch_product >= 1.0 && b >= branch_product);
    let raw = c * result_size as f64 * branch_product / b;
    raw.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_resolves_to_one() {
        assert_eq!(AcceptancePolicy::Uniform.resolve_c(1024.0), 1.0);
    }

    #[test]
    fn slider_endpoints() {
        assert_eq!(
            AcceptancePolicy::Slider { position: 0.0 }.resolve_c(1024.0),
            1.0
        );
        assert_eq!(
            AcceptancePolicy::Slider { position: 1.0 }.resolve_c(1024.0),
            1024.0
        );
        let mid = AcceptancePolicy::Slider { position: 0.5 }.resolve_c(1024.0);
        assert!((mid - 32.0).abs() < 1e-9, "log-scale midpoint, got {mid}");
    }

    #[test]
    fn accept_all_is_infinite_c() {
        let c = AcceptancePolicy::AcceptAll.resolve_c(1e12);
        assert_eq!(acceptance_probability(c, 1.0, 1, 1e12), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn sub_one_c_rejected() {
        AcceptancePolicy::ScaleC { c: 0.5 }.resolve_c(16.0);
    }

    #[test]
    #[should_panic(expected = "slider position")]
    fn out_of_range_slider_rejected() {
        AcceptancePolicy::Slider { position: 1.5 }.resolve_c(16.0);
    }

    #[test]
    fn figure1_acceptance_probabilities() {
        // Paper Figure 1 database, k = 1, C = 1, B = 2³ = 8.
        // t4: depth 1 (branch 2), j = 1 → a = 2/8 = 1/4.
        // t1: depth 2 (branch 4), j = 1 → a = 4/8 = 1/2.
        // t2, t3: depth 3 (branch 8), j = 1 → a = 1.
        assert_eq!(acceptance_probability(1.0, 2.0, 1, 8.0), 0.25);
        assert_eq!(acceptance_probability(1.0, 4.0, 1, 8.0), 0.5);
        assert_eq!(acceptance_probability(1.0, 8.0, 1, 8.0), 1.0);
        // Output probability = reach × acceptance is uniform: 1/2·1/4 =
        // 1/4·1/2 = 1/8·1 = 1/8. ✓ (verified empirically in exp_fig1)
    }

    #[test]
    fn larger_c_never_decreases_acceptance() {
        for &(branch, j, b) in &[(2.0, 1, 64.0), (8.0, 3, 64.0), (64.0, 1, 64.0)] {
            let mut last = 0.0;
            for c in [1.0, 2.0, 4.0, 8.0, 64.0] {
                let a = acceptance_probability(c, branch, j, b);
                assert!(a >= last);
                assert!(a <= 1.0);
                last = a;
            }
        }
    }

    #[test]
    fn deeper_nodes_accept_more_under_uniform() {
        // Uniformity correction: harder-to-reach (deeper) candidates must be
        // kept with higher probability.
        let shallow = acceptance_probability(1.0, 2.0, 1, 256.0);
        let deep = acceptance_probability(1.0, 128.0, 1, 256.0);
        assert!(deep > shallow);
    }
}
