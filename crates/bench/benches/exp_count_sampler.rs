//! EXP-T6 — the count-reporting spectrum (§3.1 + ref [2]).
//!
//! Google Base prints *approximate* count banners which the demo
//! deliberately "ignored for the purpose of this system" (§3.1). This
//! experiment shows the whole spectrum and thereby justifies that choice:
//!
//! * **exact counts** (ref [2]'s setting): the count-weighted walk is
//!   perfectly uniform with zero rejections and the lowest query cost;
//! * **noisy counts** (Google Base's setting): the same walk becomes
//!   biased; the table prints the importance-weighted error next to the
//!   unweighted one as an observation (no assertion is made about it);
//! * **no counts**: HIDDEN-DB-SAMPLER at C = 1 — costlier than exact-count
//!   walking but immune to banner noise, which is exactly why the demo
//!   ignored Google's banners.

use hdsampler_bench::{collect, f, section, table, tuple_frequencies};
use hdsampler_core::{CountWalkSampler, DirectExecutor, HdsSampler, SamplerConfig};
use hdsampler_estimator::{skew_coefficient, tv_distance, Histogram};
use hdsampler_hidden_db::CountMode;
use hdsampler_model::FormInterface;
use hdsampler_workload::vehicles::N_JAPANESE_MAKES;
use hdsampler_workload::{DbConfig, VehiclesSpec, WorkloadSpec};

fn main() {
    section("EXP-T6: exact vs noisy vs absent count banners (§3.1, ref [2])");
    let n_tuples = 8_000;
    let k = 250;
    let samples = 500;
    let spec = VehiclesSpec::compact(n_tuples, 55);

    let build = |mode: CountMode| {
        WorkloadSpec::vehicles(
            spec,
            DbConfig {
                count_mode: mode,
                ..DbConfig::no_counts().with_k(k)
            },
        )
        .build()
    };

    let mut rows = Vec::new();
    let mut japanese_unweighted_noisy = f64::NAN;
    let mut japanese_weighted_noisy = f64::NAN;
    let mut exact_cost = f64::NAN;
    let mut noisy_tv = Vec::new();
    let hds_cost;

    // --- count-weighted walk on exact and noisy banners ----------------
    for (label, mode) in [
        ("COUNT exact", CountMode::Exact),
        (
            "COUNT noisy σ=0.15",
            CountMode::Noisy {
                sigma: 0.15,
                seed: 9,
            },
        ),
        (
            "COUNT noisy σ=0.50",
            CountMode::Noisy {
                sigma: 0.50,
                seed: 9,
            },
        ),
    ] {
        let db = build(mode);
        let schema = db.schema().clone();
        let make = schema.attr_by_name("make").unwrap();
        let truth = db.oracle().marginal(make);
        let truth_share: f64 = truth[..N_JAPANESE_MAKES].iter().sum();

        let mut sampler =
            CountWalkSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(13)).unwrap();
        let (set, stats) = collect(&mut sampler, samples);
        let hist = Histogram::from_rows(&schema, make, set.rows());
        let weighted = Histogram::from_weighted(
            &schema,
            make,
            set.samples().iter().map(|s| (&s.row, s.weight)),
        );
        let tv_plain = tv_distance(&hist.proportions(), &truth);
        let tv_weighted = tv_distance(&weighted.proportions(), &truth);
        let freqs = tuple_frequencies(&db, &set);
        let skew = skew_coefficient(&freqs, n_tuples, set.len() as u64);

        if label.contains("0.50") {
            let unw: f64 = hist.proportions()[..N_JAPANESE_MAKES].iter().sum();
            let w: f64 = weighted.proportions()[..N_JAPANESE_MAKES].iter().sum();
            japanese_unweighted_noisy = (unw - truth_share).abs();
            japanese_weighted_noisy = (w - truth_share).abs();
        }
        if label.contains("noisy") {
            noisy_tv.push((label, tv_plain, tv_weighted));
        }
        if label == "COUNT exact" {
            exact_cost = stats.queries_per_sample();
        }
        rows.push(vec![
            label.into(),
            f(stats.queries_per_sample(), 2),
            stats.rejected.to_string(),
            f(tv_plain, 4),
            f(tv_weighted, 4),
            f(skew, 3),
        ]);
    }

    // --- HDS without counts (the demo's actual configuration) ----------
    {
        let db = build(CountMode::Absent);
        let schema = db.schema().clone();
        let make = schema.attr_by_name("make").unwrap();
        let truth = db.oracle().marginal(make);
        let mut sampler =
            HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(13)).unwrap();
        let (set, stats) = collect(&mut sampler, samples);
        let hist = Histogram::from_rows(&schema, make, set.rows());
        let freqs = tuple_frequencies(&db, &set);
        hds_cost = stats.queries_per_sample();
        rows.push(vec![
            "HDS C=1 (no counts)".into(),
            f(stats.queries_per_sample(), 2),
            stats.rejected.to_string(),
            f(tv_distance(&hist.proportions(), &truth), 4),
            "—".into(),
            f(skew_coefficient(&freqs, n_tuples, set.len() as u64), 3),
        ]);
    }

    table(
        &[
            "sampler",
            "queries/sample",
            "rejections",
            "TV(make)",
            "TV weighted",
            "skew coeff",
        ],
        &rows,
    );
    println!(
        "\n  Japanese-share |error| under σ=0.50 noise: unweighted {:.2}pp vs weighted {:.2}pp",
        japanese_unweighted_noisy * 100.0,
        japanese_weighted_noisy * 100.0
    );

    assert!(
        exact_cost < hds_cost,
        "exact counts beat rejection sampling"
    );
    println!(
        "  PASS: exact-count walking charges fewer queries per sample than HDS \
         at C = 1 (the only assertion)"
    );
    for (label, plain, weighted) in noisy_tv {
        println!("  observed ({label}): TV(make) unweighted {plain:.4} vs weighted {weighted:.4}");
    }
}
