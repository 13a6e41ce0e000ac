//! Per-layer totals from recorded spans: calls, wall time, self time (a
//! span's duration minus the time its child spans cover) and bytes.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::timed::Span;

/// Totals for one layer (one span name).
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    /// Calls timed.
    pub calls: u64,
    /// Wall time of those calls, children included.
    pub total_ns: u64,
    /// Wall time minus the children's.
    pub self_ns: u64,
    /// Page bytes the calls returned.
    pub bytes: u64,
    /// Calls that returned a page.
    pub pages: u64,
    /// Calls that opened no child span (for the history layer: lookups
    /// answered without reaching the interface).
    pub leaf_calls: u64,
    /// Wall time of those calls.
    pub leaf_ns: u64,
}

/// Every layer of a traced run, keyed by span name.
#[derive(Debug, Default)]
pub struct Breakdown {
    layers: BTreeMap<&'static str, Layer>,
    root: &'static str,
}

impl Breakdown {
    /// Fold `spans` whose session is not in `skip`; `root` names the span
    /// that wraps each whole session or job.
    pub fn new(spans: &[Span], root: &'static str, skip: &HashSet<u32>) -> Self {
        let kept: Vec<&Span> = spans
            .iter()
            .filter(|s| !skip.contains(&s.session))
            .collect();
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in &kept {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for s in &kept {
            let dur = s.dur_ns();
            let kids = child_ns.get(&s.id).copied();
            let l = layers.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += dur;
            l.self_ns += dur.saturating_sub(kids.unwrap_or(0));
            l.bytes += s.bytes;
            l.pages += u64::from(s.bytes > 0);
            if kids.is_none() {
                l.leaf_calls += 1;
                l.leaf_ns += dur;
            }
        }
        Breakdown { layers, root }
    }

    /// Totals for `name` (zeros when no such span was recorded).
    pub fn get(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Wall time of all root spans.
    pub fn root_ns(&self) -> u64 {
        self.get(self.root).total_ns
    }

    /// Share of root wall time that named layers' self times cover, %.
    /// `root_is_layer` counts the root's own self time as a layer (the
    /// fleet driver, which has no inner boundary to split it by).
    pub fn coverage_pct(&self, root_is_layer: bool) -> f64 {
        let covered: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| root_is_layer || **name != self.root)
            .map(|(_, l)| l.self_ns)
            .sum();
        100.0 * covered as f64 / self.root_ns().max(1) as f64
    }

    /// One line per layer, largest self time first, with its share of
    /// root wall time.
    pub fn table(&self) -> Vec<String> {
        let root = self.root_ns().max(1) as f64;
        let mut rows: Vec<(&str, Layer)> = self.layers.iter().map(|(n, l)| (*n, *l)).collect();
        rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
        let mut out = vec![format!(
            "{:<10} {:>9} {:>12} {:>12} {:>7}",
            "layer", "calls", "self ms", "total ms", "self %"
        )];
        for (name, l) in rows {
            out.push(format!(
                "{:<10} {:>9} {:>12.3} {:>12.3} {:>6.2}%",
                name,
                l.calls,
                l.self_ns as f64 / 1e6,
                l.total_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / root
            ));
        }
        out
    }

    /// The layer with the largest self time, other than the root unless
    /// `root_is_layer`.
    pub fn dominant(&self, root_is_layer: bool) -> &'static str {
        self.layers
            .iter()
            .filter(|(name, _)| root_is_layer || **name != self.root)
            .max_by_key(|(_, l)| l.self_ns)
            .map_or("none", |(name, _)| *name)
    }
}

/// Write every span once, at the end of the run, as CSV in the output
/// directory.
pub fn write_spans(args: &crate::Args, spans: &[Span]) {
    use std::io::Write as _;
    let path = args
        .out
        .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&args.out)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "session,id,parent,name,start_ns,end_ns,bytes")?;
        for s in spans {
            writeln!(
                w,
                "{},{},{},{},{},{},{}",
                s.session, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.bytes
            )?;
        }
        w.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counts a workload gathers from the stack's own reports during its
/// traced sessions (or jobs), beside the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Traced sessions or jobs that passed.
    pub sessions: u64,
    /// Samples they accepted.
    pub samples: u64,
    pub walks: u64,
    pub candidates: u64,
    /// Logical history requests (cache hits included) and those the
    /// history answered.
    pub requests: u64,
    pub history_hits: u64,
    pub l2_loads: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    /// Size of the L2 log each session attaches.
    pub l2_log_bytes: u64,
    pub server_requests: u64,
    pub server_wakeups: u64,
    pub server_bytes_out: u64,
    pub retries: u64,
    pub backoff_vms: u64,
    /// Traced versus untraced session p50, %.
    pub overhead_pct: f64,
}

/// Emit every per-layer metric of BENCHMARK.json, in one fixed order, for
/// any workload: a layer the workload does not exercise reports 0.
/// `root_is_layer` marks the fleet driver, whose root span self time is the
/// coop layer.
pub fn per_layer_metrics(
    r: &mut crate::RunResult,
    bd: &Breakdown,
    c: &Counters,
    root_is_layer: bool,
) {
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    const MIB: f64 = 1024.0 * 1024.0;
    let per = |l: Layer| ratio(l.total_ns as f64, l.calls as f64);
    let sessions = c.sessions as f64;
    let connect = bd.get("connect");
    let machine = bd.get("machine");
    let history = bd.get("history");
    let adapter = bd.get("adapter");
    let wire = bd.get("wire");
    let httpc = bd.get("httpc");
    let site = bd.get("site");
    let server = bd.get("server");
    let engine = bd.get("engine");
    let estimator = bd.get("estimator");
    // Pages the scraper read: off the client wire, whichever it was.
    let page_bytes = (wire.bytes + httpc.bytes) as f64;
    let pages = (wire.pages + httpc.pages) as f64;
    let coop_self = if root_is_layer {
        bd.get(bd.root).self_ns as f64
    } else {
        0.0
    };

    r.metric(
        "connect.ms_per_session",
        ratio(connect.total_ns as f64, sessions) / MS,
        "ms",
    );
    r.metric(
        "machine.walks_per_sample",
        ratio(c.walks as f64, c.samples as f64),
        "count",
    );
    r.metric(
        "machine.acceptance_rate",
        ratio(c.samples as f64, c.candidates as f64),
        "1",
    );
    r.metric(
        "machine.self_us_per_sample",
        ratio(machine.self_ns as f64, machine.calls as f64) / US,
        "us",
    );
    r.metric(
        "history.hit_ratio",
        ratio(c.history_hits as f64, c.requests as f64),
        "1",
    );
    r.metric(
        "history.hit_us",
        ratio(history.leaf_ns as f64, history.leaf_calls as f64) / US,
        "us",
    );
    r.metric(
        "history.miss_self_us",
        ratio(
            history.self_ns.saturating_sub(history.leaf_ns) as f64,
            (history.calls - history.leaf_calls) as f64,
        ) / US,
        "us",
    );
    r.metric(
        "adapter.self_us_per_fetch",
        ratio(adapter.self_ns as f64, adapter.calls as f64) / US,
        "us",
    );
    r.metric(
        "adapter.page_kib_per_fetch",
        ratio(page_bytes, pages) / 1024.0,
        "KiB",
    );
    r.metric(
        "adapter.scrape_mib_per_s",
        ratio(page_bytes / MIB, adapter.self_ns as f64 / 1e9),
        "MiB/s",
    );
    r.metric(
        "site.self_us_per_fetch",
        ratio(
            (site.self_ns + server.self_ns) as f64,
            (site.calls + server.calls) as f64,
        ) / US,
        "us",
    );
    r.metric("engine.us_per_query", per(engine) / US, "us");
    r.metric(
        "wire.self_us_per_fetch",
        ratio(wire.self_ns as f64, wire.pages as f64) / US,
        "us",
    );
    r.metric(
        "httpc.rtt_us_per_fetch",
        ratio(httpc.self_ns as f64, httpc.calls as f64) / US,
        "us",
    );
    r.metric("server.handler_us_per_request", per(server) / US, "us");
    r.metric(
        "server.wakeups_per_request",
        ratio(c.server_wakeups as f64, c.server_requests as f64),
        "count",
    );
    r.metric(
        "server.bytes_out_per_request",
        ratio(c.server_bytes_out as f64, c.server_requests as f64),
        "B",
    );
    r.metric(
        "coop.self_ms_per_job",
        ratio(coop_self, sessions) / MS,
        "ms",
    );
    r.metric(
        "chaos.retries_per_sample",
        ratio(c.retries as f64, c.samples as f64),
        "count",
    );
    r.metric(
        "chaos.backoff_vs_per_job",
        ratio(c.backoff_vms as f64 / 1e3, sessions),
        "s",
    );
    r.metric(
        "estimator.us_per_sample",
        ratio(estimator.total_ns as f64, c.samples as f64) / US,
        "us",
    );
    r.metric(
        "l2.attach_ms_per_session",
        ratio(bd.get("l2").total_ns as f64, sessions) / MS,
        "ms",
    );
    r.metric(
        "l2.facts_loaded_per_session",
        ratio(c.l2_loads as f64, sessions),
        "count",
    );
    r.metric("l2.log_mib", c.l2_log_bytes as f64 / MIB, "MiB");
    r.metric(
        "l2.hit_ratio",
        ratio(c.l2_hits as f64, (c.l2_hits + c.l2_misses) as f64),
        "1",
    );
    r.metric("trace.overhead_pct", c.overhead_pct, "%");
    r.metric("trace.coverage_pct", bd.coverage_pct(root_is_layer), "%");
}
