//! Property-based tests for the sampler core: the history cache's
//! inference is indistinguishable from direct evaluation on arbitrary
//! databases and query mixes, and the acceptance machinery obeys its
//! bounds.

use std::sync::Arc;

use hdsampler_core::sample::Sampler;
use hdsampler_core::{
    acceptance::acceptance_probability, CachingExecutor, Classified, DirectExecutor, HdsSampler,
    HitTier, L2Log, QueryExecutor, SamplerConfig, SiteFingerprint,
};
use hdsampler_hidden_db::{CountMode, HiddenDb};
use hdsampler_model::{
    AttrId, Attribute, ConjunctiveQuery, DomIx, FormInterface, Schema, SchemaBuilder, Tuple,
};
use proptest::prelude::*;

fn boolean_schema(m: usize) -> Arc<Schema> {
    let mut b = SchemaBuilder::new();
    for i in 0..m {
        b = b.attribute(Attribute::boolean(format!("a{i}")));
    }
    b.finish().unwrap().into_shared()
}

fn build_db(m: usize, rows: &[u32], k: usize, counts: CountMode) -> HiddenDb {
    let schema = boolean_schema(m);
    let mut b = HiddenDb::builder(Arc::clone(&schema))
        .result_limit(k)
        .count_mode(counts);
    for &bits in rows {
        let values: Vec<DomIx> = (0..m).map(|i| ((bits >> i) & 1) as DomIx).collect();
        b.push(&Tuple::new(&schema, values, vec![]).unwrap())
            .unwrap();
    }
    b.finish()
}

/// A random query over `m` Boolean attributes encoded as (mask, values).
fn queries(m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    let m = m as u32;
    prop::collection::vec((0u32..(1 << m), 0u32..(1 << m)), 1..60)
}

fn decode_query(m: usize, mask: u32, values: u32) -> ConjunctiveQuery {
    let pairs = (0..m)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| (AttrId(i as u16), ((values >> i) & 1) as DomIx));
    ConjunctiveQuery::from_pairs(pairs).unwrap()
}

fn row_keys(c: &Classified) -> Vec<u64> {
    let mut keys: Vec<u64> = c
        .rows
        .iter()
        .flat_map(|rows| rows.iter().map(|r| r.key))
        .collect();
    keys.sort_unstable();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE correctness property of §3.2: for any database, any k, and any
    /// interleaving of classify/count requests, the caching executor's
    /// answers equal the direct executor's — while charging fewer queries.
    #[test]
    fn inference_equals_direct_evaluation(
        rows in prop::collection::vec(0u32..32, 1..80),
        k in 1usize..5,
        qs in queries(5),
    ) {
        let m = 5;
        let db_a = build_db(m, &rows, k, CountMode::Exact);
        let db_b = build_db(m, &rows, k, CountMode::Exact);
        let direct = DirectExecutor::new(&db_a);
        let cached = CachingExecutor::new(&db_b);

        for &(mask, values) in &qs {
            let q = decode_query(m, mask, values);
            // Alternate classify and count to stress both code paths.
            let d = direct.classify(&q).unwrap();
            let c = cached.classify(&q).unwrap();
            prop_assert_eq!(d.class, c.class, "query {:?}", q);
            prop_assert_eq!(row_keys(&d), row_keys(&c), "query {:?}", q);

            let dc = direct.count(&q).unwrap();
            let cc = cached.count(&q).unwrap();
            prop_assert_eq!(dc, cc);
        }
        prop_assert!(cached.queries_issued() <= direct.queries_issued());
    }

    /// Acceptance probability is always in (0, 1], equals the exact
    /// uniformity correction at C = 1, and is monotone in every argument
    /// that should help acceptance.
    #[test]
    fn acceptance_probability_bounds(
        depth_doms in prop::collection::vec(2usize..8, 0..6),
        extra_doms in prop::collection::vec(2usize..8, 1..6),
        j in 1usize..50,
        c_exp in 0u32..20,
    ) {
        let branch: f64 = depth_doms.iter().map(|&d| d as f64).product();
        let rest: f64 = extra_doms.iter().map(|&d| d as f64).product();
        let b = branch * rest;
        let c = 2f64.powi(c_exp as i32);
        let a = acceptance_probability(c, branch, j, b);
        prop_assert!(a > 0.0 && a <= 1.0);
        // Monotone in C.
        let a2 = acceptance_probability(c * 2.0, branch, j, b);
        prop_assert!(a2 >= a);
        // Monotone in j.
        let aj = acceptance_probability(c, branch, j + 1, b);
        prop_assert!(aj >= a);
        // At C = 1 with j = 1 the value is exactly branch/B.
        let exact = acceptance_probability(1.0, branch, 1, b);
        prop_assert!((exact - (branch / b).min(1.0)).abs() < 1e-12);
    }

    /// Sampled rows always satisfy the configured scope, whatever it is.
    #[test]
    fn samples_respect_arbitrary_scopes(
        rows in prop::collection::vec(0u32..32, 20..80),
        mask in 0u32..8u32,
        values in 0u32..8u32,
    ) {
        let m = 5;
        let db = build_db(m, &rows, 2, CountMode::Absent);
        let scope = decode_query(3, mask, values); // scope over first 3 attrs
        let cfg = SamplerConfig::seeded(7).with_scope(scope.clone()).with_max_walks(20_000);
        let mut sampler = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        for _ in 0..10 {
            match sampler.next_sample() {
                Ok(s) => prop_assert!(scope.matches(&s.row.values)),
                // Empty scopes and walk limits are legitimate outcomes of
                // random scopes on random data.
                Err(_) => break,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Layered eviction protects learned containment facts: whatever mix
    /// of classify/count traffic floods a capacity-bounded cache, the
    /// charged empty/overflow facts (each one a budgeted page fetch) keep
    /// answering for free — only the rederivable layers (memo, rule-4
    /// rows, memoized counts) are sacrificed, and the cache never
    /// cold-restarts unless containment facts alone bust the bound.
    #[test]
    fn containment_facts_survive_memo_and_count_pressure(
        rows in prop::collection::vec(0u32..16, 10..80),
        qs in prop::collection::vec((0u32..16, 0u32..16), 0..30),
    ) {
        let m = 6;
        // Rows use only the low four attributes: a4 = a5 = 0 everywhere.
        let db = build_db(m, &rows, 1, CountMode::Exact);
        // Capacity 80: the flood below stores at most ~32 containment
        // facts, so a cold restart is structurally impossible while the
        // count flood guarantees capacity pressure.
        let exec = CachingExecutor::with_capacity(&db, 80);

        // Two charged facts worth one page fetch each.
        let empty_fact = decode_query(m, 0b10_0000, 0b10_0000); // a5 = 1
        let overflow_fact = decode_query(m, 0b11_0000, 0); // a4 = 0 ∧ a5 = 0
        prop_assert_eq!(
            exec.classify(&empty_fact).unwrap().class,
            hdsampler_model::Classification::Empty
        );
        prop_assert_eq!(
            exec.classify(&overflow_fact).unwrap().class,
            hdsampler_model::Classification::Overflow,
            "k = 1 with ≥10 rows overflows"
        );

        // Random classify flood over the low attributes…
        for &(mask, values) in &qs {
            exec.classify(&decode_query(4, mask, values)).unwrap();
        }
        // …then a deterministic count flood: all 3⁴ = 81 queries over the
        // low attributes, one memoized count each — more than capacity.
        for mask in 0u32..16 {
            for values in 0u32..16 {
                if values & !mask == 0 {
                    exec.count(&decode_query(4, mask, values)).unwrap();
                }
            }
        }

        let stats = exec.history_stats();
        prop_assert!(stats.evictions >= 1, "the flood must bust capacity");
        prop_assert_eq!(stats.cold_restarts, 0, "containment facts alone never bust it");

        // The charged facts still answer derived queries without a fetch.
        let charged = exec.queries_issued();
        let refined_empty = decode_query(m, 0b10_0001, 0b10_0000); // a5=1 ∧ a0=0
        prop_assert_eq!(
            exec.classify(&refined_empty).unwrap().class,
            hdsampler_model::Classification::Empty
        );
        let broadened_overflow = decode_query(m, 0b01_0000, 0); // a4 = 0
        prop_assert_eq!(
            exec.classify(&broadened_overflow).unwrap().class,
            hdsampler_model::Classification::Overflow
        );
        prop_assert_eq!(
            exec.queries_issued(),
            charged,
            "surviving facts must answer for free after eviction pressure"
        );
    }

    /// The L2 arm of `inference_equals_direct_evaluation`: a fact log
    /// warmed by one run over any query mix answers the same mix for a
    /// fresh executor over a fresh database exactly as direct evaluation
    /// does — class, row keys and count — without a single charged query.
    /// Both tiers run the same rule code, so this covers it over random
    /// data from the L2 side.
    #[test]
    fn l2_inference_equals_direct_evaluation(
        rows in prop::collection::vec(0u32..32, 1..80),
        k in 1usize..5,
        qs in queries(5),
    ) {
        let m = 5;
        let root = l2_root();
        let open_log = |db: &HiddenDb| {
            let fp = SiteFingerprint::derive(db.schema(), k, db.supports_count(), None);
            Arc::new(L2Log::open(&root, fp).unwrap())
        };
        let mix: Vec<ConjunctiveQuery> =
            qs.iter().map(|&(mask, values)| decode_query(m, mask, values)).collect();
        {
            let db = build_db(m, &rows, k, CountMode::Exact);
            let warm = CachingExecutor::new(&db).with_l2(open_log(&db));
            for q in &mix {
                warm.classify(q).unwrap();
                warm.count(q).unwrap();
            }
        }
        let db_direct = build_db(m, &rows, k, CountMode::Exact);
        let db_cached = build_db(m, &rows, k, CountMode::Exact);
        let direct = DirectExecutor::new(&db_direct);
        let cached = CachingExecutor::new(&db_cached).with_l2(open_log(&db_cached));
        for q in &mix {
            let d = direct.classify(q).unwrap();
            let c = cached.classify(q).unwrap();
            prop_assert_eq!(d.class, c.class, "query {:?}", q);
            prop_assert_eq!(row_keys(&d), row_keys(&c), "query {:?}", q);
            prop_assert_eq!(direct.count(q).unwrap(), cached.count(q).unwrap());
        }
        prop_assert_eq!(cached.queries_issued(), 0, "the warmed log answers every query");
        prop_assert!(cached.history_stats().l2_hits > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Write-behind across many valid facts that share tuples persists
    /// each tuple's row exactly once — within one run, and across a second
    /// run that attaches the log and learns more.
    #[test]
    fn l2_write_behind_persists_each_row_once(
        rows in prop::collection::vec(0u32..32, 1..80),
        k in 1usize..5,
        first in queries(5),
        second in queries(5),
    ) {
        let m = 5;
        let root = l2_root();
        let db = build_db(m, &rows, k, CountMode::Exact);
        let fp = SiteFingerprint::derive(db.schema(), k, db.supports_count(), None);
        let log = || Arc::new(L2Log::open(&root, fp.clone()).unwrap());
        for mix in [&first, &second] {
            let exec = CachingExecutor::new(&db).with_l2(log());
            for &(mask, values) in mix {
                exec.classify(&decode_query(m, mask, values)).unwrap();
            }
            let log = log();
            let facts = log.load().unwrap();
            let mut keys: Vec<u64> = facts
                .iter()
                .flat_map(|f| f.rows().into_iter().flatten().map(|r| r.key))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let stats = log.stats().unwrap();
            prop_assert_eq!(stats.rows, keys.len() as u64, "one row record per tuple");
            prop_assert_eq!(stats.facts, facts.len() as u64);
            prop_assert_eq!(stats.skipped, 0);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// Damage one log's lines the way `kind` says, aimed by `at` (taken
/// modulo the lines it can hit): 0 inserts a torn fact line, 1 breaks a row
/// record's body behind its intact key, 2 adds a record of a row with other
/// content, 3 moves a row record to just after the first fact that names
/// its key, and 4 truncates the log at a byte.
fn damage(text: &mut String, kind: u8, at: usize) {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let rows: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("{\"Row\":["))
        .collect();
    let key_of = |line: &str| {
        line["{\"Row\":[".len()..]
            .split(',')
            .next()
            .unwrap()
            .to_owned()
    };
    match kind {
        0 => lines.insert(at % (lines.len() + 1), "{\"Valid\":[[[0,".into()),
        1 | 2 if rows.is_empty() => {}
        1 => {
            let line = &mut lines[rows[at % rows.len()]];
            let measures = line.rfind(",[").unwrap() + 2;
            line.insert(measures, 'x');
        }
        2 => {
            let line = &lines[rows[at % rows.len()]];
            let changed = line.replacen("]]}", "],[1.5]]}", 1).replacen("],[]", "", 1);
            lines.insert(at % (lines.len() + 1), changed);
        }
        3 => {
            let Some(&row) = rows.get(at % rows.len().max(1)) else {
                return;
            };
            let key = key_of(&lines[row]);
            let names = |l: &String| {
                l.starts_with("{\"Valid\":") && l.split(['[', ']', ',']).any(|k| k == key)
            };
            if let Some(fact) = (row + 1..lines.len()).find(|&i| names(&lines[i])) {
                let moved = lines.remove(row);
                lines.insert(fact, moved);
            }
        }
        _ => {}
    }
    *text = lines.join("\n") + "\n";
    if kind == 4 {
        text.truncate(at % (text.len() + 1));
    }
}

/// One lookup as a cooperative driver makes it: the history's answer with
/// its tier and stamp, or the wire's answer fed back as a miss.
fn ask<F: FormInterface>(
    exec: &CachingExecutor<F>,
    q: &ConjunctiveQuery,
) -> (Classified, Option<(HitTier, u64)>) {
    match exec.try_classify_stamped(q) {
        Some(hit) => (hit.answer, Some((hit.tier, hit.learned_at))),
        None => {
            let wire = exec.interface().execute_for_sampler(q).unwrap();
            let answer = Classified::from_response(wire);
            exec.record_response_at(q, &answer, 0);
            (answer, None)
        }
    }
}

/// An answer's rows: keys, values and measure bits, in order.
fn rows_of(c: &Classified) -> Vec<(u64, Vec<DomIx>, Vec<u64>)> {
    let rows = c.rows.iter().flat_map(|rows| rows.iter());
    rows.map(|r| {
        let bits = r.measures.iter().map(|m| m.to_bits()).collect();
        (r.key, r.values.to_vec(), bits)
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An attach decodes rows on first use and drops a fact whose rows do
    /// not resolve only then. Over a log the program wrote and then
    /// damaged — torn lines, a row body broken behind its key, a row with
    /// other content, a row moved behind the first fact naming it,
    /// truncation — every lookup must answer exactly as the index built
    /// from `load()` over the same bytes does (its facts written to a
    /// clean log and attached): class, row keys, values and measure bits,
    /// tier and stamp, counts, and charged queries. Answering a count
    /// from a valid fact without checking that its rows resolve fails
    /// this property and no other test.
    #[test]
    fn l2_lazy_attach_answers_as_a_full_load(
        rows in prop::collection::vec(0u32..32, 1..80),
        k in 1usize..5,
        warm in queries(5),
        mix in queries(5),
        damages in prop::collection::vec((0u8..5, 0usize..10_000), 0..4),
    ) {
        let m = 5;
        let root = l2_root();
        let fp = |db: &HiddenDb| SiteFingerprint::derive(db.schema(), k, db.supports_count(), None);
        {
            let db = build_db(m, &rows, k, CountMode::Exact);
            let log = Arc::new(L2Log::open(&root.join("lazy"), fp(&db)).unwrap());
            let exec = CachingExecutor::new(&db).with_l2(log);
            for &(mask, values) in &warm {
                let q = decode_query(m, mask, values);
                exec.classify(&q).unwrap();
                exec.count(&q).unwrap();
            }
        }
        let db = build_db(m, &rows, k, CountMode::Exact);
        let seg = root.join("lazy").join(fp(&db).as_str()).join("seg-00000.jsonl");
        let mut text = std::fs::read_to_string(&seg).unwrap();
        for &(kind, at) in &damages {
            damage(&mut text, kind, at);
        }
        std::fs::write(&seg, &text).unwrap();
        let full = root.join("full").join(fp(&db).as_str());
        std::fs::create_dir_all(&full).unwrap();
        std::fs::write(full.join("seg-00000.jsonl"), &text).unwrap();
        let facts = L2Log::open(&root.join("full"), fp(&db)).unwrap().load().unwrap();
        let clean = L2Log::open(&root.join("clean"), fp(&db)).unwrap();
        for fact in &facts {
            clean.append(fact).unwrap();
        }

        let db_lazy = build_db(m, &rows, k, CountMode::Exact);
        let db_full = build_db(m, &rows, k, CountMode::Exact);
        let lazy = CachingExecutor::new(&db_lazy)
            .with_l2(Arc::new(L2Log::open(&root.join("lazy"), fp(&db)).unwrap()));
        let full = CachingExecutor::new(&db_full).with_l2(Arc::new(clean));
        prop_assert!(lazy.history_stats().l2_loads >= full.history_stats().l2_loads);
        for (i, &(mask, values)) in mix.iter().enumerate() {
            let q = decode_query(m, mask, values);
            // Half the counts come first, before rule 4 has looked at the
            // valid fact that taught them.
            if i % 2 == 0 {
                prop_assert_eq!(lazy.count(&q).unwrap(), full.count(&q).unwrap(), "count {:?}", q);
            }
            let (a, a_hit) = ask(&lazy, &q);
            let (b, b_hit) = ask(&full, &q);
            prop_assert_eq!(a.class, b.class, "query {:?}", q);
            prop_assert_eq!(rows_of(&a), rows_of(&b), "query {:?}", q);
            prop_assert_eq!(a_hit, b_hit, "query {:?}", q);
            if i % 2 == 1 {
                prop_assert_eq!(lazy.count(&q).unwrap(), full.count(&q).unwrap(), "count {:?}", q);
            }
        }
        prop_assert_eq!(lazy.queries_issued(), full.queries_issued());
        let (a, b) = (lazy.history_stats(), full.history_stats());
        prop_assert_eq!((a.l2_hits, a.l2_misses), (b.l2_hits, b.l2_misses));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A fresh, empty L2 root per proptest case.
fn l2_root() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hds-l2-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_walkers_on_one_cache_agree_with_direct() {
    // 8 walker threads hammer one shared cache; every distinct answer the
    // cache ever gave must match direct evaluation.
    let rows: Vec<u32> = (0..200u32)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % 64)
        .collect();
    let db = build_db(6, &rows, 3, CountMode::Absent);
    let exec = Arc::new(CachingExecutor::new(&db));
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let exec = Arc::clone(&exec);
            scope.spawn(move || {
                let mut s =
                    HdsSampler::new(exec, SamplerConfig::seeded(500 + w)).expect("valid config");
                for _ in 0..15 {
                    s.next_sample().expect("healthy site");
                }
            });
        }
    });
    assert!(
        exec.history_stats().total_hits() > 0,
        "parallel walkers must share inference savings"
    );

    let db2 = build_db(6, &rows, 3, CountMode::Absent);
    let direct = DirectExecutor::new(&db2);
    for mask in 0u32..64 {
        for values in [0u32, 21, 42, 63] {
            let q = decode_query(6, mask, values);
            let c = exec.classify(&q).unwrap();
            let d = direct.classify(&q).unwrap();
            assert_eq!(c.class, d.class, "{q:?}");
            assert_eq!(row_keys(&c), row_keys(&d), "{q:?}");
        }
    }
}

#[test]
fn cache_and_direct_agree_after_heavy_sampling() {
    // Deterministic end-to-end: run a sampler against the cache, then
    // replay every distinct query directly and compare.
    let rows: Vec<u32> = (0..200u32)
        .map(|i| (i.wrapping_mul(2_654_435_761)) % 64)
        .collect();
    let db = build_db(6, &rows, 3, CountMode::Exact);
    let cached = CachingExecutor::new(&db);
    let mut sampler = HdsSampler::new(&cached, SamplerConfig::seeded(3)).unwrap();
    for _ in 0..100 {
        sampler.next_sample().unwrap();
    }
    // Replay a probe battery.
    let db2 = build_db(6, &rows, 3, CountMode::Exact);
    let direct = DirectExecutor::new(&db2);
    for mask in 0u32..64 {
        for values in [0u32, 21, 42, 63] {
            let q = decode_query(6, mask, values);
            let c = cached.classify(&q).unwrap();
            let d = direct.classify(&q).unwrap();
            assert_eq!(c.class, d.class, "{q:?}");
            assert_eq!(row_keys(&c), row_keys(&d), "{q:?}");
        }
    }
}
