//! Shared infrastructure for the experiment harness.
//!
//! Every table/figure of the paper is regenerated by one `harness = false`
//! bench target in `benches/` (the crate's `Cargo.toml` lists them). This
//! library provides the common pieces: aligned table printing, sampler
//! drivers, and oracle-side skew measurement.

use hdsampler_core::{SampleSet, Sampler, SamplerError, SamplerStats};
use hdsampler_hidden_db::HiddenDb;

/// Print a section banner.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Print an aligned table: header row + data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), n_cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let print_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", line.join("  "));
    };
    print_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * n_cols;
    println!("  {}", "-".repeat(total));
    for row in rows {
        print_row(row);
    }
}

/// Drive a sampler for `target` samples; on budget/walk-limit errors the
/// partial set is returned (experiments report whatever was achievable).
pub fn collect(sampler: &mut impl Sampler, target: usize) -> (SampleSet, SamplerStats) {
    let mut set = SampleSet::new();
    for _ in 0..target {
        match sampler.next_sample() {
            Ok(s) => set.push(s),
            Err(SamplerError::BudgetExhausted { .. }) | Err(SamplerError::WalkLimit { .. }) => {
                break
            }
            Err(e) => panic!("sampler failed: {e}"),
        }
    }
    (set, sampler.stats())
}

/// Per-tuple observation counts for tuple-level skew metrics, resolved
/// through the oracle (validation-side only).
pub fn tuple_frequencies(db: &HiddenDb, samples: &SampleSet) -> Vec<u64> {
    let oracle = db.oracle();
    let freq = oracle.frequency_by_tuple(&samples.keys());
    freq.iter().filter_map(|(t, &c)| t.map(|_| c)).collect()
}

/// Format a float with fixed decimals, NaN-safe.
pub fn f(x: f64, decimals: usize) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{x:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_does_not_panic_on_alignment() {
        table(
            &["col", "long column"],
            &[
                vec!["1".into(), "2".into()],
                vec!["333333".into(), "4".into()],
            ],
        );
    }

    #[test]
    fn f_handles_nan() {
        assert_eq!(f(f64::NAN, 2), "n/a");
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }
}
