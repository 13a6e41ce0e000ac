//! Hit-type distribution and wall-clock of the parallel-walker workload,
//! for tuning the history-cache sharding. Run with
//! `cargo run --release -p hdsampler-bench --example profile_contention`.

use std::sync::Arc;
use std::time::Instant;

use hdsampler_core::{CachingExecutor, HdsSampler, QueryExecutor, Sampler, SamplerConfig};
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

fn main() {
    let db = WorkloadSpec::vehicles(
        VehiclesSpec::compact(20_000, 2),
        DbConfig::no_counts().with_k(250),
    )
    .build();
    for shards in [16usize, 1] {
        let exec = Arc::new(CachingExecutor::with_shards(&db, 250_000, shards));
        let mut s = HdsSampler::new(Arc::clone(&exec), SamplerConfig::seeded(11)).unwrap();
        for _ in 0..1_000 {
            s.next_sample().unwrap();
        }
        let warm_stats = exec.history_stats();
        let warm_requests = exec.requests();
        let t0 = Instant::now();
        let mut iters = 0;
        while t0.elapsed().as_millis() < 3000 {
            // 8 walker threads, 75 samples each: one 600-sample session.
            std::thread::scope(|scope| {
                for w in 0..8u64 {
                    let exec = Arc::clone(&exec);
                    scope.spawn(move || {
                        let mut s = HdsSampler::new(exec, SamplerConfig::seeded(1000 + w))
                            .expect("valid config");
                        for _ in 0..75 {
                            s.next_sample().expect("healthy site");
                        }
                    });
                }
            });
            iters += 1;
        }
        let per_iter = t0.elapsed() / iters;
        let st = exec.history_stats();
        let requests = exec.requests() - warm_requests;
        println!(
            "shards={shards}: {per_iter:?}/session  requests/meas={requests}  \
             memo={} empty={} overflow={} filter={} count_memo={} miss={}",
            st.memo_hits - warm_stats.memo_hits,
            st.empty_rule_hits - warm_stats.empty_rule_hits,
            st.overflow_rule_hits - warm_stats.overflow_rule_hits,
            st.filter_rule_hits - warm_stats.filter_rule_hits,
            st.count_memo_hits - warm_stats.count_memo_hits,
            st.misses - warm_stats.misses,
        );
    }
}
