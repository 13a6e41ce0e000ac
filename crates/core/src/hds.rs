//! HIDDEN-DB-SAMPLER: random drill-down + acceptance–rejection.
//!
//! This is the algorithm the demo system packages (§2, ref \[1\]): the Sample
//! Generator performs drill-down walks ([`crate::walk`]) and the Sample
//! Processor filters the resulting candidates
//! ([`crate::acceptance`]) so that, at scaling factor `C = 1`, every tuple
//! of the (scoped) database is emitted with identical probability per walk.

use hdsampler_model::AttrId;

use crate::config::SamplerConfig;
use crate::executor::QueryExecutor;
use crate::machine::{WalkMachine, WalkStep};
use crate::sample::{Sample, Sampler, SamplerError};
use crate::stats::SamplerStats;

/// The HIDDEN-DB-SAMPLER.
///
/// A thin synchronous loop over [`WalkMachine`]: every
/// [`WalkStep::NeedCount`] the machine yields is answered by a blocking
/// [`QueryExecutor::classify`] call. The cooperative driver in
/// `hdsampler-webform` runs the *same* machine with the answers arriving
/// from a pipelined wire instead — both paths consume the machine's RNG
/// identically, so, seed for seed, they produce the identical sample
/// sequence.
#[derive(Debug)]
pub struct HdsSampler<E> {
    exec: E,
    machine: WalkMachine,
}

impl<E: QueryExecutor> HdsSampler<E> {
    /// Construct a sampler over an executor.
    ///
    /// # Errors
    /// [`SamplerError::Config`] on invalid scope/drill configuration.
    pub fn new(exec: E, cfg: SamplerConfig) -> Result<Self, SamplerError> {
        let machine = WalkMachine::new(exec.schema(), cfg)?;
        Ok(HdsSampler { exec, machine })
    }

    /// The resolved scaling factor `C`.
    pub fn c_factor(&self) -> f64 {
        self.machine.c_factor()
    }

    /// The domain product `B` over the drillable attributes.
    pub fn domain_product(&self) -> f64 {
        self.machine.domain_product()
    }

    /// The drillable attributes in schema order.
    pub fn drill_attrs(&self) -> &[AttrId] {
        self.machine.drill_attrs()
    }

    /// Access the underlying executor (e.g. to read cache statistics).
    pub fn executor(&self) -> &E {
        &self.exec
    }
}

impl<E: QueryExecutor> Sampler for HdsSampler<E> {
    fn next_sample(&mut self) -> Result<Sample, SamplerError> {
        let mut step = self.machine.step();
        loop {
            match step {
                WalkStep::NeedCount(q) => step = self.machine.resume(self.exec.classify(&q)),
                WalkStep::Sample(s) => return Ok(s),
                WalkStep::Failed(e) => return Err(e),
            }
        }
    }

    fn stats(&self) -> SamplerStats {
        let mut s = self.machine.stats();
        s.requests = self.exec.requests();
        s.queries_issued = self.exec.queries_issued();
        s
    }

    fn name(&self) -> &'static str {
        "HIDDEN-DB-SAMPLER"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acceptance::AcceptancePolicy;
    use crate::executor::DirectExecutor;
    use crate::order::OrderStrategy;
    use hdsampler_model::ConjunctiveQuery;
    use hdsampler_workload::figure1_db;

    #[test]
    fn uniform_on_figure1() {
        // C = 1 on the paper's own example: all four tuples equally likely.
        let db = figure1_db(1);
        let cfg = SamplerConfig::seeded(11).with_order(OrderStrategy::Fixed);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        assert_eq!(s.c_factor(), 1.0);
        assert_eq!(s.domain_product(), 8.0);

        let n = 4_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let smp = s.next_sample().unwrap();
            *counts.entry(smp.row.values.to_vec()).or_insert(0u32) += 1;
            assert_eq!(smp.weight, 1.0);
        }
        assert_eq!(counts.len(), 4, "all tuples reachable");
        for (vals, c) in &counts {
            let share = *c as f64 / n as f64;
            assert!(
                (share - 0.25).abs() < 0.025,
                "tuple {vals:?} share {share} (expect 0.25)"
            );
        }
        let stats = s.stats();
        assert_eq!(stats.accepted, n as u64);
        assert!(stats.rejected > 0, "C = 1 must reject some candidates");
        assert!(stats.queries_issued > 0);
    }

    #[test]
    fn accept_all_reproduces_raw_walk_skew() {
        // With AcceptAll the sampler must reproduce the §2 walk
        // distribution (t4 twice as likely as t1, four times t2/t3).
        let db = figure1_db(1);
        let cfg = SamplerConfig::seeded(5)
            .with_order(OrderStrategy::Fixed)
            .with_acceptance(AcceptancePolicy::AcceptAll);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        let n = 8_000;
        let mut t4 = 0u32;
        for _ in 0..n {
            let smp = s.next_sample().unwrap();
            if smp.row.values.as_ref() == [1, 1, 0] {
                t4 += 1;
            }
        }
        let share = t4 as f64 / n as f64;
        assert!(
            (share - 0.5).abs() < 0.02,
            "t4 share {share} under raw walk"
        );
        assert_eq!(s.stats().rejected, 0);
    }

    #[test]
    fn scoped_sampling_stays_in_scope() {
        let db = figure1_db(1);
        let scope = ConjunctiveQuery::from_pairs([(hdsampler_model::AttrId(1), 1)]).unwrap();
        let cfg = SamplerConfig::seeded(9).with_scope(scope);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        assert_eq!(s.domain_product(), 4.0, "two drillable Booleans remain");
        for _ in 0..200 {
            let smp = s.next_sample().unwrap();
            assert_eq!(smp.row.values[1], 1);
        }
    }

    #[test]
    fn empty_scope_reported() {
        let db = figure1_db(1);
        let scope = ConjunctiveQuery::from_pairs([
            (hdsampler_model::AttrId(0), 1),
            (hdsampler_model::AttrId(1), 0),
        ])
        .unwrap();
        let cfg = SamplerConfig::seeded(1).with_scope(scope);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        assert_eq!(s.next_sample(), Err(SamplerError::EmptyScope));
    }

    #[test]
    fn budget_exhaustion_surfaces() {
        use hdsampler_hidden_db::HiddenDb;
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
            .result_limit(1)
            .query_budget(3);
        for vals in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        let mut s = HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(2)).unwrap();
        // Eventually the 3-query budget dies; every sample costs ≥ 1 query.
        let mut err = None;
        for _ in 0..10 {
            match s.next_sample() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(SamplerError::BudgetExhausted { issued: 3 }));
    }

    #[test]
    fn walk_limit_enforced() {
        // A database where every tuple shares one value behind k=1 and the
        // only drill attribute is useless: acceptance at C=1 is 1, but make
        // the walk limit 0 to force the error path.
        let db = figure1_db(1);
        let cfg = SamplerConfig::seeded(3).with_max_walks(0);
        let mut s = HdsSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        assert_eq!(s.next_sample(), Err(SamplerError::WalkLimit { walks: 0 }));
    }

    #[test]
    fn invalid_drill_config_rejected() {
        let db = figure1_db(1);
        let cfg = SamplerConfig::seeded(1).with_drill_attrs(["bogus"]);
        assert!(matches!(
            HdsSampler::new(DirectExecutor::new(&db), cfg),
            Err(SamplerError::Config(_))
        ));
    }

    #[test]
    fn same_seed_same_samples() {
        let db = figure1_db(1);
        let mk = || {
            let mut s =
                HdsSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(42)).unwrap();
            (0..20)
                .map(|_| s.next_sample().unwrap().row.key)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
