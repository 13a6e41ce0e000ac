//! Quickstart: sample a simulated hidden database and look at a marginal.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a small simulated vehicle-listing site behind a top-k form,
//! draws 400 samples with HIDDEN-DB-SAMPLER at C = 1, and prints
//! the sampled `make` histogram next to the ground truth that only the
//! simulation can reveal.

use hdsampler::prelude::*;

fn main() {
    // A hidden site: 5 000 listings, at most k = 250 shown per query.
    let db = hdsampler::simulated_site(5_000, 250, 42);
    let schema = db.schema().clone();
    println!(
        "Simulated hidden database: {} listings behind a top-{} conjunctive form",
        db.n_tuples(),
        db.result_limit()
    );

    // C = 1 sampler with the history cache enabled: uniform over distinct
    // tuples, not over duplicates (README, "Limitations").
    let mut sampler = hdsampler::uniform_sampler(&db, 7);
    let session = SamplingSession::new(400);
    let outcome = session.run(&mut sampler, |event| {
        if let SessionEvent::SampleAccepted {
            collected, target, ..
        } = event
        {
            if collected % 100 == 0 {
                println!("  … {collected}/{target} samples");
            }
        }
    });
    println!(
        "Collected {} samples with {} interface queries ({:.1} queries/sample, {:.0}% served from cache)\n",
        outcome.samples.len(),
        outcome.stats.queries_issued,
        outcome.stats.queries_per_sample(),
        outcome.stats.savings_rate() * 100.0,
    );

    // The sampled marginal distribution of `make` …
    let make = schema.attr_by_name("make").expect("vehicles have makes");
    let hist = Histogram::from_rows(&schema, make, outcome.samples.rows());
    println!("{}", hist.render(40));

    // … compared against ground truth (only possible on a simulated site).
    let comparison = MarginalComparison::new(
        &schema,
        make,
        hist.proportions(),
        db.oracle().marginal(make),
    );
    println!("{}", comparison.render(0.02));
}
