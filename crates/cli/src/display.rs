//! Terminal rendering helpers, including the CLI's streaming
//! [`SampleSink`]s: [`ProgressSink`] (the AJAX live counter) and
//! [`WatchSink`] (`--watch`: live histogram re-rendering mid-run).

use std::any::Any;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use hdsampler_core::{merged, SampleEvent, SampleSink, SamplerStats};
use hdsampler_estimator::{fmt_stat, Histogram};
use hdsampler_webform::FleetReport;

/// Streaming progress printer: re-renders the [`progress_line`] (running
/// count, charged queries, history savings) every `every`-th sample and
/// at the target. Forks share the terminal, so merging is a no-op.
#[derive(Debug, Clone)]
pub struct ProgressSink {
    every: usize,
}

impl ProgressSink {
    /// Print every `every`-th sample (and the final one).
    pub fn new(every: usize) -> Self {
        ProgressSink {
            every: every.max(1),
        }
    }
}

impl SampleSink for ProgressSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        if event.collected.is_multiple_of(self.every) || event.collected == event.target {
            // Only the counters the event stream carries are live here;
            // the rest of the stats block stays zero (savings_rate is
            // well-defined at zero requests).
            let stats = SamplerStats {
                queries_issued: event.queries,
                requests: event.requests,
                ..SamplerStats::default()
            };
            // `print!`, not a raw stdout handle: the test harness captures
            // it, so the `\r` line cannot splice into its result lines.
            print!("{}", progress_line(event.collected, event.target, &stats));
            let _ = std::io::stdout().flush();
        }
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(self.clone())
    }

    fn merge(&mut self, other: Box<dyn SampleSink>) {
        let _ = merged::<ProgressSink>(other);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

struct WatchState {
    hists: Vec<Histogram>,
    every: usize,
    seen: usize,
}

/// `--watch`: maintains live histograms over the sample stream and
/// re-renders them every `every`-th observed sample — the demo's headline
/// AJAX behavior, previously impossible mid-run. Forks return a handle to
/// the same shared state (concurrently driven sites all feed one
/// display), so merging is a no-op.
pub struct WatchSink {
    state: Arc<Mutex<WatchState>>,
    width: usize,
}

impl WatchSink {
    /// Watch the given (empty) histograms, re-rendering every `every`
    /// samples with `width`-column bars.
    pub fn new(hists: Vec<Histogram>, every: usize, width: usize) -> Self {
        WatchSink {
            state: Arc::new(Mutex::new(WatchState {
                hists,
                every: every.max(1),
                seen: 0,
            })),
            width,
        }
    }

    /// Snapshot of the live histograms.
    #[allow(dead_code)] // exercised by tests; kept for front ends reading the live state
    pub fn histograms(&self) -> Vec<Histogram> {
        self.state.lock().expect("watch state").hists.clone()
    }
}

impl SampleSink for WatchSink {
    fn observe(&mut self, event: &SampleEvent<'_>) {
        let mut st = self.state.lock().expect("watch state");
        for h in &mut st.hists {
            h.add(&event.sample.row, event.sample.weight);
        }
        st.seen += 1;
        if st.seen.is_multiple_of(st.every) {
            let mut out = String::new();
            out.push_str(&format!("\n── live after {} samples ──\n", st.seen));
            for h in &st.hists {
                out.push_str(&h.snapshot().render(self.width));
            }
            print!("{out}");
            let _ = std::io::stdout().flush();
        }
    }

    fn fork(&self) -> Box<dyn SampleSink> {
        Box::new(WatchSink {
            state: Arc::clone(&self.state),
            width: self.width,
        })
    }

    fn merge(&mut self, _other: Box<dyn SampleSink>) {
        // Forks share this sink's state; nothing to fold back.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A one-line progress string (the AJAX live counter of the original UI):
/// the body [`ProgressSink`] re-renders locally and `trace watch` renders
/// for remote `/events` streams.
pub fn progress_line(collected: usize, target: usize, stats: &SamplerStats) -> String {
    format!(
        "\r  samples {collected}/{target}  queries {}  saved {:.0}%   ",
        stats.queries_issued,
        stats.savings_rate() * 100.0
    )
}

/// Final session summary block. Per-sample ratios are NaN before the
/// first sample; they render as `n/a`, never raw float debug output.
pub fn summary(stats: &SamplerStats) -> String {
    format!(
        "session: {} samples | {} walks | {} queries charged ({} requests, {:.0}% from history)\n\
         per sample: {} queries, {} walks | acceptance rate {}\n\
         dead ends {} | leaf overflows {} | rejected {}",
        stats.accepted,
        stats.walks,
        stats.queries_issued,
        stats.requests,
        stats.savings_rate() * 100.0,
        fmt_stat(stats.queries_per_sample(), 2),
        fmt_stat(stats.walks_per_sample(), 2),
        fmt_stat(stats.acceptance_rate(), 3),
        stats.dead_ends,
        stats.leaf_overflows,
        stats.rejected,
    )
}

/// Per-site table plus fleet summary for a `multi-site` run.
pub fn fleet_report(report: &FleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>9} {:>10} {:>8} {:>8} {:>10} {:>7} {:>11}  stopped",
        "site",
        "samples",
        "fetches",
        "requests",
        "hits",
        "retries",
        "backoff s",
        "steals",
        "elapsed s"
    );
    for site in &report.sites {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>9} {:>10} {:>8} {:>8} {:>10.1} {:>7} {:>11.1}  {:?}",
            site.name,
            site.samples.len(),
            site.queries_issued,
            site.requests,
            site.history_hits,
            site.retries,
            site.backoff_vms as f64 / 1_000.0,
            site.steals,
            site.elapsed_ms as f64 / 1_000.0,
            site.stopped,
        );
    }
    // Belt and braces: `samples_per_vsec` returns 0.0 for a zero-elapsed
    // fleet these days, but a non-finite value must never reach the table
    // (it used to print a literal `NaN`).
    let rate = report.samples_per_vsec();
    let rate = if report.fleet_elapsed_ms == 0 || !rate.is_finite() {
        "n/a".to_string()
    } else {
        format!("{rate:.1}")
    };
    let _ = writeln!(
        out,
        "  fleet: {} samples over {} sites in {:.1} s — {rate} samples/s, {} fetches",
        report.total_samples(),
        report.sites.len(),
        report.fleet_elapsed_ms as f64 / 1_000.0,
        report.total_fetches(),
    );
    // The resilience line only earns its place when something went wrong
    // (or walkers moved): a clean run keeps the clean summary.
    if report.total_retries() > 0 || report.total_steals() > 0 {
        let _ = writeln!(
            out,
            "  resilience: {} retries (budget never double-charged), {} walkers stolen",
            report.total_retries(),
            report.total_steals(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SamplerStats {
        SamplerStats {
            walks: 50,
            dead_ends: 10,
            leaf_overflows: 0,
            candidates: 40,
            accepted: 20,
            rejected: 20,
            requests: 200,
            queries_issued: 100,
            retries: 0,
            backoff_ms: 0,
        }
    }

    #[test]
    fn progress_is_single_line() {
        let line = progress_line(5, 10, &stats());
        assert!(line.starts_with('\r'));
        assert!(line.contains("5/10"));
        assert!(!line.trim_start_matches('\r').contains('\n'));
    }

    #[test]
    fn zero_elapsed_fleet_prints_na_not_nan() {
        // Regression: a fleet served entirely from history has 0 elapsed
        // ms; the table used to print `NaN samples/s`.
        let report = FleetReport {
            sites: vec![],
            fleet_elapsed_ms: 0,
        };
        let text = fleet_report(&report);
        assert!(text.contains("n/a samples/s"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn fleet_table_shows_resilience_columns() {
        use hdsampler_core::{SampleSet, StopReason};
        use hdsampler_webform::SiteReport;
        let site = SiteReport {
            name: "site-0".into(),
            samples: SampleSet::default(),
            requests: 120,
            queries_issued: 100,
            history_hits: 20,
            elapsed_ms: 4_200,
            retries: 7,
            backoff_vms: 1_500,
            steals: 2,
            stopped: StopReason::TargetReached,
            stats: stats(),
            history: Default::default(),
            per_walker_keys: Vec::new(),
            connections: 1,
        };
        let report = FleetReport {
            sites: vec![site],
            fleet_elapsed_ms: 4_200,
        };
        let text = fleet_report(&report);
        assert!(text.contains("retries"), "{text}");
        assert!(text.contains("steals"), "{text}");
        assert!(text.contains("1.5"), "backoff in seconds: {text}");
        assert!(text.contains("resilience: 7 retries"), "{text}");
        assert!(text.contains("2 walkers stolen"), "{text}");
        // A clean fleet keeps the clean summary.
        let mut clean = report;
        clean.sites[0].retries = 0;
        clean.sites[0].steals = 0;
        assert!(!fleet_report(&clean).contains("resilience"));
    }

    #[test]
    fn summary_mentions_key_counters() {
        let text = summary(&stats());
        assert!(text.contains("20 samples"));
        assert!(text.contains("100 queries charged"));
        assert!(text.contains("50%"));
        assert!(text.contains("5.00 queries"), "{text}");
    }

    #[test]
    fn empty_session_summary_prints_na_not_nan() {
        // Zero accepted samples make every per-sample ratio NaN; the
        // summary must say `n/a`, never raw float debug output.
        let text = summary(&SamplerStats::default());
        assert!(text.contains("n/a queries"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn watch_sink_maintains_live_histograms_across_forks() {
        use hdsampler_core::{Sample, SampleMeta};
        use hdsampler_model::{AttrId, Attribute, Row, SchemaBuilder};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap();
        let mut watch = WatchSink::new(vec![Histogram::new(&schema, AttrId(0))], 1000, 10);
        let mut forked = watch.fork();
        let s = Sample {
            row: Row::new(1, vec![1], vec![]),
            weight: 1.0,
            meta: SampleMeta::default(),
        };
        let ev = SampleEvent {
            sample: &s,
            site: 0,
            walker: 0,
            collected: 1,
            target: 100,
            queries: 0,
            requests: 0,
        };
        watch.observe(&ev);
        forked.observe(&ev);
        watch.merge(forked);
        let hists = watch.histograms();
        assert_eq!(hists[0].total(), 2.0, "fork shares the live state");
        assert_eq!(hists[0].counts()[1], 2.0);
    }
}
