//! Count-weighted drill-down (ref \[2\], ICDE 2009).
//!
//! When the interface reports result *counts* (even for overflowing
//! queries), the walk no longer needs to gamble: at each level it probes
//! its children's counts and descends into child `v` with probability
//! `c(q ∧ a=v) / Σ_w c(q ∧ a=w)`. Telescoping, the probability of reaching
//! any node equals `count(node)/count(scope)`, so picking one of the `j`
//! rows of the first non-overflowing node uniformly yields an **exactly
//! uniform** sample with **zero rejections** — when the counts are exact.
//!
//! Sites like Google Base report only *approximate* counts (§3.1 — the
//! demo "ignores" them for this reason). This sampler can still run on
//! noisy counts: the descent becomes biased, and each sample carries an
//! importance `weight` (the inverse of its realized selection probability,
//! up to the unknown global constant) for weighted estimators. Whether the
//! weights reduce the bias is not established: the count-sampler
//! experiment prints weighted and unweighted errors side by side as
//! observations and asserts nothing about them.
//!
//! ## Query cost
//!
//! A level with branching factor `b` needs `b − 1` count probes — the last
//! child's count is *derived* from the parent count (sibling-difference
//! rule, one of the ref \[2\] savings) — and the terminal node needs one
//! retrieval query. Memoized counts (via
//! [`CachingExecutor`](crate::history::CachingExecutor)) cut repeat visits
//! to the upper tree to zero charged queries.

use hdsampler_model::{AttrId, Classification, ConjunctiveQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SamplerConfig;
use crate::executor::QueryExecutor;
use crate::sample::{Sample, SampleMeta, Sampler, SamplerError};
use crate::stats::SamplerStats;
use crate::walk::resolve_drill_attrs;

/// The count-weighted sampler.
#[derive(Debug)]
pub struct CountWalkSampler<E> {
    exec: E,
    cfg: SamplerConfig,
    drill: Vec<AttrId>,
    rng: StdRng,
    stats: SamplerStats,
    /// Count probes that were *derived* instead of issued.
    derived_counts: u64,
    /// Derived counts that went negative under noisy reporting (clamped).
    negative_derivations: u64,
}

impl<E: QueryExecutor> CountWalkSampler<E> {
    /// Construct over a count-reporting executor.
    ///
    /// # Errors
    /// [`SamplerError::CountUnsupported`] when the site has no count
    /// banner; [`SamplerError::Config`] on scope/drill errors.
    pub fn new(exec: E, cfg: SamplerConfig) -> Result<Self, SamplerError> {
        if !exec.supports_count() {
            return Err(SamplerError::CountUnsupported);
        }
        cfg.scope
            .validate(exec.schema())
            .map_err(|e| SamplerError::Config(e.to_string()))?;
        let drill = resolve_drill_attrs(exec.schema(), &cfg.scope, cfg.drill_attrs.as_deref())?;
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0_4217);
        Ok(CountWalkSampler {
            exec,
            cfg,
            drill,
            rng,
            stats: SamplerStats::default(),
            derived_counts: 0,
            negative_derivations: 0,
        })
    }

    /// Count probes answered by sibling-difference derivation.
    pub fn derived_counts(&self) -> u64 {
        self.derived_counts
    }

    /// Derivations clamped at zero (only possible under noisy counts).
    pub fn negative_derivations(&self) -> u64 {
        self.negative_derivations
    }

    /// Access the underlying executor.
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// One count-weighted descent. Returns `Ok(None)` on a dead end
    /// (possible only under noisy counts or leaf overflow).
    fn descend(&mut self) -> Result<Option<Sample>, SamplerError> {
        let k = self.exec.result_limit() as u64;
        let order = self.cfg.order.make_order(&self.drill, &mut self.rng);

        let mut query: ConjunctiveQuery = self.cfg.scope.clone();
        let mut count = self.exec.count(&query).map_err(SamplerError::from)?;
        if count == 0 {
            return Err(SamplerError::EmptyScope);
        }
        // log of the realized selection probability of the final node.
        let mut log_reach = 0.0f64;

        for depth in 0..=order.len() {
            if count <= k {
                // Reported small enough to retrieve. Under noisy counts the
                // truth may still overflow — fall through to drilling if so.
                let resp = self.exec.classify(&query).map_err(SamplerError::from)?;
                match resp.class {
                    Classification::Empty => {
                        self.stats.dead_ends += 1;
                        return Ok(None);
                    }
                    Classification::Valid => {
                        let rows = resp.rows.as_ref().expect("valid carries rows");
                        let j = rows.len();
                        let row = rows[self.rng.gen_range(0..j)].clone();
                        self.stats.candidates += 1;
                        self.stats.accepted += 1;
                        // P(select t) = P(reach node) / j, so the importance
                        // weight is j / P(reach); the unknown global
                        // constant cancels in self-normalized estimators.
                        // With exact counts this is N for every tuple.
                        let weight = j as f64 * (-log_reach).exp();
                        return Ok(Some(Sample {
                            row,
                            weight,
                            meta: SampleMeta {
                                depth,
                                result_size: j,
                                acceptance: 1.0,
                                walks: 1,
                            },
                        }));
                    }
                    Classification::Overflow => {
                        // Noisy banner under-reported; keep drilling.
                    }
                }
            }
            if depth == order.len() {
                self.stats.leaf_overflows += 1;
                return Ok(None);
            }

            // Probe children counts, deriving the last from the parent.
            let attr = order[depth];
            let dom = self.exec.schema().domain_size(attr);
            let mut child_counts = Vec::with_capacity(dom);
            let mut sum_known = 0u64;
            for v in 0..dom {
                if v + 1 == dom {
                    let derived = count.saturating_sub(sum_known);
                    if sum_known > count {
                        self.negative_derivations += 1;
                    }
                    self.derived_counts += 1;
                    child_counts.push(derived);
                } else {
                    let child = query.refine(attr, v as u16).expect("unbound");
                    let c = self.exec.count(&child).map_err(SamplerError::from)?;
                    sum_known += c;
                    child_counts.push(c);
                }
            }
            let total: u64 = child_counts.iter().sum();
            if total == 0 {
                // All children reported empty (noise artefact).
                self.stats.dead_ends += 1;
                return Ok(None);
            }
            // Weighted choice proportional to reported counts.
            let mut pick = self.rng.gen_range(0..total);
            let mut chosen = 0usize;
            for (v, &c) in child_counts.iter().enumerate() {
                if pick < c {
                    chosen = v;
                    break;
                }
                pick -= c;
            }
            log_reach += (child_counts[chosen] as f64 / total as f64).ln();
            query = query.refine(attr, chosen as u16).expect("unbound");
            count = child_counts[chosen];
        }
        unreachable!("loop returns at depth == order.len()");
    }
}

impl<E: QueryExecutor> Sampler for CountWalkSampler<E> {
    fn next_sample(&mut self) -> Result<Sample, SamplerError> {
        let mut walks = 0u64;
        loop {
            if walks >= self.cfg.max_walks_per_sample {
                return Err(SamplerError::WalkLimit { walks });
            }
            walks += 1;
            self.stats.walks += 1;
            match self.descend() {
                Ok(Some(mut sample)) => {
                    sample.meta.walks = walks;
                    self.stats.requests = self.exec.requests();
                    self.stats.queries_issued = self.exec.queries_issued();
                    return Ok(sample);
                }
                Ok(None) => continue,
                Err(e) => {
                    self.stats.requests = self.exec.requests();
                    self.stats.queries_issued = self.exec.queries_issued();
                    return Err(e);
                }
            }
        }
    }

    fn stats(&self) -> SamplerStats {
        let mut s = self.stats;
        s.requests = self.exec.requests();
        s.queries_issued = self.exec.queries_issued();
        s
    }

    fn name(&self) -> &'static str {
        "COUNT-WEIGHTED-SAMPLER"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::DirectExecutor;
    use crate::order::OrderStrategy;
    use hdsampler_hidden_db::{CountMode, HiddenDb};
    use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
    use std::sync::Arc;

    fn db_with_counts(mode: CountMode, k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("a1"))
            .attribute(Attribute::boolean("a2"))
            .attribute(Attribute::boolean("a3"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema))
            .result_limit(k)
            .count_mode(mode);
        for vals in [[0u16, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 0]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn requires_count_support() {
        let db = db_with_counts(CountMode::Absent, 1);
        assert!(matches!(
            CountWalkSampler::new(DirectExecutor::new(&db), SamplerConfig::seeded(1)),
            Err(SamplerError::CountUnsupported)
        ));
    }

    #[test]
    fn exact_counts_give_uniform_zero_rejection() {
        let db = db_with_counts(CountMode::Exact, 1);
        let cfg = SamplerConfig::seeded(31).with_order(OrderStrategy::Fixed);
        let mut s = CountWalkSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        let n = 4_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let smp = s.next_sample().unwrap();
            assert!((smp.weight * 4.0 - 1.0).abs() < 1e-9 || smp.weight > 0.0);
            *counts.entry(smp.row.values.to_vec()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (vals, c) in &counts {
            let share = *c as f64 / n as f64;
            assert!((share - 0.25).abs() < 0.025, "tuple {vals:?} share {share}");
        }
        let st = s.stats();
        assert_eq!(st.rejected, 0, "exact counts never reject");
        assert_eq!(st.walks, n as u64, "every walk yields a sample");
    }

    #[test]
    fn exact_weights_are_uniform() {
        // With exact counts every sample's weight equals N / j-corrected
        // constant — i.e. all weights are identical.
        let db = db_with_counts(CountMode::Exact, 1);
        let cfg = SamplerConfig::seeded(5).with_order(OrderStrategy::Fixed);
        let mut s = CountWalkSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        let w0 = s.next_sample().unwrap().weight;
        for _ in 0..50 {
            let w = s.next_sample().unwrap().weight;
            assert!(
                (w - w0).abs() < 1e-9,
                "exact-count weights must be constant: {w} vs {w0}"
            );
        }
    }

    #[test]
    fn derivation_saves_one_probe_per_level() {
        let db = db_with_counts(CountMode::Exact, 1);
        let cfg = SamplerConfig::seeded(7).with_order(OrderStrategy::Fixed);
        let mut s = CountWalkSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        for _ in 0..10 {
            s.next_sample().unwrap();
        }
        assert!(s.derived_counts() >= 10, "at least one derivation per walk");
        assert_eq!(s.negative_derivations(), 0, "exact counts never clamp");
    }

    #[test]
    fn noisy_counts_still_produce_samples_with_weights() {
        // A larger Boolean database so the banner counts are big enough for
        // the multiplicative noise to actually move them.
        let (schema, tuples) = hdsampler_workload::boolean_iid(6, 100, 0.5, 99);
        let mut b = HiddenDb::builder(schema)
            .result_limit(4)
            .count_mode(CountMode::Noisy {
                sigma: 0.3,
                seed: 3,
            });
        b.extend(tuples.iter()).unwrap();
        let db = b.finish();

        let cfg = SamplerConfig::seeded(11).with_order(OrderStrategy::Fixed);
        let mut s = CountWalkSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        let mut weights = Vec::new();
        for _ in 0..300 {
            let smp = s.next_sample().unwrap();
            assert!(smp.weight.is_finite() && smp.weight > 0.0);
            weights.push(smp.weight);
        }
        let min = weights.iter().cloned().fold(f64::MAX, f64::min);
        let max = weights.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min * 1.01, "noise must produce varying weights");
    }

    #[test]
    fn empty_scope_detected() {
        let db = db_with_counts(CountMode::Exact, 1);
        let scope = ConjunctiveQuery::from_pairs([(AttrId(0), 1), (AttrId(1), 0)]).unwrap();
        let cfg = SamplerConfig::seeded(2).with_scope(scope);
        let mut s = CountWalkSampler::new(DirectExecutor::new(&db), cfg).unwrap();
        assert_eq!(s.next_sample(), Err(SamplerError::EmptyScope));
    }

    #[test]
    fn cheaper_than_rejection_sampling_on_the_same_tree() {
        // Exact-count descent needs ~(b-1) probes/level + 1 retrieval and
        // never restarts; HDS at C = 1 pays for rejected walks. Compare
        // charged queries for 100 samples on the same database.
        let db_counts = db_with_counts(CountMode::Exact, 1);
        let cfg = SamplerConfig::seeded(13).with_order(OrderStrategy::Fixed);
        let mut cs = CountWalkSampler::new(DirectExecutor::new(&db_counts), cfg).unwrap();
        for _ in 0..100 {
            cs.next_sample().unwrap();
        }
        let count_cost = cs.stats().queries_per_sample();

        let db_plain = db_with_counts(CountMode::Absent, 1);
        let cfg = SamplerConfig::seeded(13).with_order(OrderStrategy::Fixed);
        let mut hs = crate::hds::HdsSampler::new(DirectExecutor::new(&db_plain), cfg).unwrap();
        for _ in 0..100 {
            hs.next_sample().unwrap();
        }
        let hds_cost = hs.stats().queries_per_sample();
        assert!(
            count_cost < hds_cost,
            "count-weighted ({count_cost}) should beat rejection ({hds_cost})"
        );
    }
}
