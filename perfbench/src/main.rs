//! End-to-end benchmark of the HDSampler stack.
//!
//! ```text
//! perfbench --workload <cold_local|cold_http|warm_l2|chaos_fleet>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! One process drives all load, closed loop: one analyst session (or one
//! fleet job) at a time, the next starting when the previous one ends.
//! The run keeps starting sessions until `--seconds` have passed and at
//! least the fixed deterministic prefix of sessions has completed; seeded
//! counts (`queries_per_sample`, `marginal_tvd`,
//! `fleet_samples_per_vsec`) come from that prefix only, so they repeat
//! exactly for a given `--seed`. Wall times are reported scaled by a host
//! probe timed around every session and set-up (see [`scaled_ms`]), so
//! that the host's slow spells largely cancel.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! traced and untraced sessions of the same seeds, checks that both give
//! the same samples, and prints the per-layer metrics computed from the
//! spans of the decorators in [`timed`]. The last line of standard output
//! is the result as one JSON object.

mod fleet;
mod layers;
mod session;
mod timed;

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Sessions or jobs started.
    pub attempted: u64,
    /// Sessions or jobs that errored, panicked or failed a gate.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (and kept in the
    /// run record).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(Duration::from_secs(num()?.max(1))),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = PathBuf::from(&value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        out,
    })
}

/// One slot of a run's closed loop: an untraced session (or fleet job) and,
/// in traced runs, its traced twin of the same seed.
pub struct Slot<T> {
    pub seed: u64,
    pub plain: Result<T, String>,
    pub wall: Duration,
    /// The mean of the host probes timed just before and just after the slot.
    pub probe: Duration,
    pub traced: Option<(Result<T, String>, Duration)>,
}

impl<T> Slot<T> {
    /// The untraced session's wall time at the reference host speed, ms.
    pub fn scaled_ms(&self) -> f64 {
        scaled_ms(self.wall, self.probe)
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(format!(
            "panicked: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("?")
        ))
    })
}

/// What [`probe`] takes on the reference host, ms: a quiet 2 GHz x86-64
/// VM core.
pub const PROBE_REF_MS: f64 = 4.0;

/// Time a fixed piece of work in the style of the stack: render a table of
/// numbers as markup, scrape it back, count the values into a hash map and
/// sort them. It lives in the benchmark, so a change to the program cannot
/// move it; only the host's speed can. The host this benchmark was tuned on
/// runs ~1.4–1.7x slower in spells that come and go within a second and
/// last up to minutes, and a run's wall times move with them.
pub fn probe() -> Duration {
    use std::fmt::Write;
    let t = Instant::now();
    let mut page = String::new();
    for i in 0..40_000u64 {
        let _ = write!(page, "<td>{}</td>", i.wrapping_mul(2_654_435_761) % 100_000);
    }
    let mut values: Vec<u64> = page
        .split("</td>")
        .filter_map(|cell| cell.strip_prefix("<td>")?.parse().ok())
        .collect();
    let mut counts = std::collections::HashMap::new();
    for v in &values {
        *counts.entry(v % 1_000).or_insert(0u32) += 1;
    }
    values.sort_unstable();
    std::hint::black_box((values, counts));
    t.elapsed()
}

/// `wall` scaled to the reference host speed, ms: `wall` times
/// [`PROBE_REF_MS`] over the probe timed around it. Spells of a slow host
/// stretch both, so they largely cancel.
pub fn scaled_ms(wall: Duration, probe: Duration) -> f64 {
    wall.as_secs_f64() * PROBE_REF_MS / probe.as_secs_f64().max(1e-9)
}

/// Times a run's set-ups, each scaled by the probes timed just before and
/// after it. The run sets up once before its first session and again
/// between sessions, whenever set-ups have taken less than `SETUP_SHARE` of
/// the run so far, so they sample the whole run.
#[derive(Debug, Default)]
pub struct SetupTimer {
    spent: Cell<Duration>,
    scaled_ms: RefCell<Vec<f64>>,
}

impl SetupTimer {
    const SETUP_SHARE: f64 = 0.1;

    /// Set up once, timed.
    pub fn time<E>(&self, make: impl FnOnce() -> E) -> E {
        let before = probe();
        let t = Instant::now();
        let env = make();
        let took = t.elapsed();
        let around = (before + probe()) / 2;
        self.spent.set(self.spent.get() + took);
        self.scaled_ms.borrow_mut().push(scaled_ms(took, around));
        env
    }

    /// Whether another set-up is due `run` into the run.
    pub fn due(&self, run: Duration) -> bool {
        self.spent.get().as_secs_f64() < Self::SETUP_SHARE * run.as_secs_f64()
    }

    /// The median set-up at the reference host speed, s.
    pub fn median_s(&self) -> f64 {
        median(&self.scaled_ms.borrow()) / 1e3
    }

    /// How many set-ups the run made.
    pub fn count(&self) -> usize {
        self.scaled_ms.borrow().len()
    }
}

/// A note on a run's times: wall times as measured and as scaled, the probe
/// that scaled them, and the set-ups.
pub fn timing_note(walls: &[f64], scaled: &[f64], probe_ms: &[f64], setups: &SetupTimer) -> String {
    format!(
        "wall p50 {:.2} ms, p90 {:.2} ms; scaled p50 {:.2} ms, p90 {:.2} ms; probe median \
         {:.3} ms, fastest {:.3} ms (reference {PROBE_REF_MS} ms); {} set-ups, median scaled {:.2} ms",
        median(walls),
        percentile(walls, 0.9),
        median(scaled),
        percentile(scaled, 0.9),
        median(probe_ms),
        probe_ms.iter().copied().fold(f64::INFINITY, f64::min),
        setups.count(),
        setups.median_s() * 1e3,
    )
}

/// Start sessions one after another until `--seconds` have passed and at
/// least `at_least` slots ran. Slot `i` is seeded `seed · 2^20 + i`; its
/// traced twin records spans as session `i + 1`. The host probe is timed
/// before the first slot and after every slot. `prepare` runs, untimed,
/// before every session, with the time since the first. Traced runs
/// alternate which twin goes first, so drift and warm-up fall on both alike.
pub fn run_slots<T>(
    args: &Args,
    at_least: usize,
    prepare: impl Fn(Duration),
    plain: impl Fn(u64) -> Result<T, String>,
    traced: impl Fn(u64, u32) -> Result<T, String>,
) -> Vec<Slot<T>> {
    let started = Instant::now();
    let clock = |f: &dyn Fn() -> Result<T, String>| {
        prepare(started.elapsed());
        let t = Instant::now();
        let out = guarded(f);
        (out, t.elapsed())
    };
    let base = args.seed.wrapping_mul(1 << 20);
    let mut slots = Vec::new();
    let mut before = probe();
    while started.elapsed() < args.seconds || slots.len() < at_least {
        let i = slots.len();
        let seed = base + i as u64;
        let plain_once = || clock(&|| plain(seed));
        let traced_once = || {
            timed::set_enabled(true);
            let out = clock(&|| traced(seed, i as u32 + 1));
            timed::set_enabled(false);
            out
        };
        let (plain, twin) = match (args.trace, i % 2) {
            (false, _) => (plain_once(), None),
            (true, 0) => {
                let p = plain_once();
                (p, Some(traced_once()))
            }
            (true, _) => {
                let t = traced_once();
                (plain_once(), Some(t))
            }
        };
        let after = probe();
        slots.push(Slot {
            seed,
            plain: plain.0,
            wall: plain.1,
            probe: (before + after) / 2,
            traced: twin,
        });
        before = after;
    }
    slots
}

/// Mean over attributes of the total-variation distance between the pooled
/// histograms (`hists`: per run unit, per attribute, the weights) and the
/// true marginals.
pub fn marginal_tvd<'a>(
    oracle: &[Vec<f64>],
    hists: impl Iterator<Item = &'a Vec<Vec<f64>>>,
) -> f64 {
    let mut pooled: Vec<Vec<f64>> = oracle.iter().map(|m| vec![0.0; m.len()]).collect();
    for h in hists {
        for (p, a) in pooled.iter_mut().zip(h) {
            for (x, y) in p.iter_mut().zip(a) {
                *x += y;
            }
        }
    }
    let tvds: Vec<f64> = pooled
        .iter()
        .zip(oracle)
        .map(|(p, truth)| {
            let total: f64 = p.iter().sum::<f64>().max(f64::MIN_POSITIVE);
            let shares: Vec<f64> = p.iter().map(|x| x / total).collect();
            hdsampler_estimator::tv_distance(&shares, truth)
        })
        .collect();
    tvds.iter().sum::<f64>() / tvds.len().max(1) as f64
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` in (0, 1] of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Host counters read from `/proc`, to explain a noisy run from its
/// record alone.
pub mod host {
    use std::time::Duration;

    /// Seconds the hypervisor stole from the CPU this process runs on (the
    /// one `run.py` confines it to) and seconds of CPU this process used,
    /// since boot.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Snapshot {
        pub steal_s: f64,
        pub cpu_s: f64,
    }

    fn ticks_per_second() -> f64 {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        // SAFETY: sysconf takes a plain integer, touches no memory of ours,
        // and returns -1 for a name it does not know.
        let ticks = unsafe { sysconf(SC_CLK_TCK) };
        if ticks > 0 {
            ticks as f64
        } else {
            100.0
        }
    }

    /// Read both counters now (zeros where `/proc` is unreadable).
    pub fn snapshot() -> Snapshot {
        let hz = ticks_per_second();
        let own = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the command name, from field 3 (`state`) on.
        let f: Vec<&str> = own
            .rfind(')')
            .map_or_else(Vec::new, |i| own[i + 1..].split_whitespace().collect());
        let field = |n: usize| f.get(n - 3).and_then(|v| v.parse::<f64>().ok());
        let cpu = field(14)
            .zip(field(15))
            .map_or(0.0, |(user, sys)| user + sys);
        // Field 39 is the CPU the process last ran on.
        let row = field(39).map_or("cpu ".to_string(), |n| format!("cpu{n} "));
        let steal = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with(&row))?;
                line.split_whitespace().nth(8)?.parse::<f64>().ok()
            })
            .unwrap_or(0.0);
        Snapshot {
            steal_s: steal / hz,
            cpu_s: cpu / hz,
        }
    }

    /// Counters accumulated between `before` and now.
    pub fn since(before: Snapshot) -> Snapshot {
        let now = snapshot();
        Snapshot {
            steal_s: now.steal_s - before.steal_s,
            cpu_s: now.cpu_s - before.cpu_s,
        }
    }

    /// Peak resident set of this process (`VmHWM`), MiB.
    pub fn peak_rss_mib() -> f64 {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Wall time as seconds, for records.
    pub fn secs(d: Duration) -> f64 {
        d.as_secs_f64()
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Keep the run's record — notes plus the result — next to its spans.
fn write_record(args: &Args, r: &RunResult) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let notes: Vec<String> = r.notes.iter().map(|n| json_string(n)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"notes\": [{}], \"result\": {}}}\n",
        json_string(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        args.trace,
        notes.join(", "),
        result_json(r)
    );
    let name = format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(args.out.join(name), body)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let before = host::snapshot();
    let mut result = match args.workload.as_str() {
        "cold_local" => session::run(session::Kind::ColdLocal, &args),
        "cold_http" => session::run(session::Kind::ColdHttp, &args),
        "warm_l2" => session::run(session::Kind::WarmL2, &args),
        "chaos_fleet" => fleet::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let used = host::since(before);
    result.notes.push(format!(
        "host: {:.3} s stolen from this run's CPU by the hypervisor, {:.3} s of CPU used by \
         this process, {} CPUs",
        used.steal_s,
        used.cpu_s,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    if args.trace {
        result.metric("host.steal_s", used.steal_s, "s");
        result.metric("host.cpu_s", used.cpu_s, "s");
    }
    if let Err(e) = write_record(&args, &result) {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    for note in &result.notes {
        println!("{note}");
    }
    println!("{}", result_json(&result));
}
