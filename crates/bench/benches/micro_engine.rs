//! Criterion micro-benchmarks for the substrate (§3.5 "Implementation
//! Platform" analogue): query-engine classification throughput at three
//! depths of the drill-down tree, the zero-materialization fast path
//! against the full-materialization baseline, and history-cache lookup
//! cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hdsampler_core::{
    CachingExecutor, DirectExecutor, HdsSampler, QueryExecutor, Sampler, SamplerConfig,
};
use hdsampler_hidden_db::HiddenDb;
use hdsampler_model::{AttrId, ConjunctiveQuery, FormInterface};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

/// Find a query with the requested predicate count whose cardinality
/// satisfies `accept`, scanning attribute values in a deterministic order.
fn find_query(db: &HiddenDb, attrs: &[AttrId], accept: impl Fn(u64) -> bool) -> ConjunctiveQuery {
    let schema = db.schema();
    let mut best: Option<(u64, ConjunctiveQuery)> = None;
    let mut stack: Vec<Vec<(AttrId, u16)>> = vec![vec![]];
    for &a in attrs {
        let dom = schema.domain_size(a) as u16;
        let mut next = Vec::new();
        for partial in &stack {
            for v in 0..dom {
                let mut p = partial.clone();
                p.push((a, v));
                next.push(p);
            }
        }
        stack = next;
    }
    for pairs in stack {
        let q = ConjunctiveQuery::from_pairs(pairs).expect("distinct attrs");
        let count = db.oracle().count(&q);
        if accept(count) && best.as_ref().is_none_or(|(c, _)| count > *c) {
            best = Some((count, q));
        }
    }
    best.expect("workload contains a query of the requested shape")
        .1
}

/// The tentpole acceptance benchmark: classification probes at n = 500k,
/// k = 1000, fast path vs. the full-materialization baseline.
fn engine_classification(c: &mut Criterion) {
    let n = 500_000;
    let k = 1000;
    let db =
        WorkloadSpec::vehicles(VehiclesSpec::full(n, 1), DbConfig::no_counts().with_k(k)).build();
    let schema = db.schema().clone();
    let make = schema.attr_by_name("make").unwrap();
    let year = schema.attr_by_name("year").unwrap();
    let body = schema.attr_by_name("body").unwrap();
    let k64 = k as u64;

    // The root of the query tree itself: the empty query, overflowing by
    // the whole table.
    let root = ConjunctiveQuery::empty();
    // One broad predicate: still root-region, overflowing massively.
    let broad = find_query(&db, &[make], |c| c > 50 * k64);
    // Mid-tree: two predicates, still overflowing but much narrower.
    let mid = find_query(&db, &[make, year], |c| c > k64 && c <= 20 * k64);
    // Leaf: three predicates, valid (non-empty, fits the page).
    let leaf = find_query(&db, &[make, year, body], |c| c > 0 && c <= k64);
    assert!(db.execute(&root).unwrap().overflow);
    assert!(db.execute(&broad).unwrap().overflow);
    assert!(db.execute(&mid).unwrap().overflow);
    assert!(!db.execute(&leaf).unwrap().overflow);

    let mut group = c.benchmark_group("engine");
    for (name, query) in [
        ("root_overflow", &root),
        ("broad_1pred_overflow", &broad),
        ("mid_tree_overflow", &mid),
        ("leaf_valid", &leaf),
    ] {
        group.bench_function(&format!("{name}/fast"), |b| {
            b.iter(|| db.execute(query).unwrap().classification())
        });
        group.bench_function(&format!("{name}/full_materialization"), |b| {
            b.iter(|| db.execute_unbounded(query).unwrap().classification())
        });
    }
    group.bench_function("count_probe_exact_mode", |b| {
        let db_counts = WorkloadSpec::vehicles(
            VehiclesSpec::full(100_000, 1),
            DbConfig::exact_counts().with_k(k),
        )
        .build();
        let q = ConjunctiveQuery::from_pairs([(make, 0), (year, 10)]).unwrap();
        b.iter(|| db_counts.count(&q).unwrap())
    });
    group.finish();
}

fn sampler_walks(c: &mut Criterion) {
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(20_000, 2),
        DbConfig::no_counts().with_k(250),
    )
    .build();

    let mut group = c.benchmark_group("sampler");
    group.bench_function("hds_sample_direct", |b| {
        b.iter_batched(
            || HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(3)).unwrap(),
            |mut s| s.next_sample().unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("hds_sample_cached_warm", |b| {
        let mut s = HdsSampler::new(CachingExecutor::new(&db), SamplerConfig::seeded(3)).unwrap();
        // Warm the cache.
        for _ in 0..200 {
            s.next_sample().unwrap();
        }
        b.iter(|| s.next_sample().unwrap())
    });
    group.finish();
}

fn cache_lookup(c: &mut Criterion) {
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(20_000, 2),
        DbConfig::no_counts().with_k(250),
    )
    .build();
    let exec = CachingExecutor::new(&db);
    let schema = db.schema().clone();
    // Populate with a spread of depth-1/2 queries.
    let mut rng = StdRng::seed_from_u64(9);
    let mut queries = Vec::new();
    for _ in 0..500 {
        let a1 = AttrId(rng.gen_range(0..schema.arity() as u16));
        let v1 = rng.gen_range(0..schema.domain_size(a1)) as u16;
        let q = ConjunctiveQuery::from_pairs([(a1, v1)]).unwrap();
        let _ = exec.classify(&q);
        queries.push(q);
    }
    c.bench_function("cache/memo_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            exec.classify(&queries[i]).unwrap().class
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = engine_classification, sampler_walks, cache_lookup
);
criterion_main!(benches);
