//! [`WalkMachine`]: the HIDDEN-DB-SAMPLER walk as a resumable state
//! machine.
//!
//! [`HdsSampler`](crate::hds::HdsSampler) couples the walk logic to a
//! synchronous [`QueryExecutor`](crate::executor::QueryExecutor): every
//! drill-down step *calls* `classify` and blocks until the site answers.
//! That binds one in-flight request to one call stack — and therefore one
//! OS thread per walker, which is exactly the wrong currency for a scraper
//! whose cost model is round trips, not CPU.
//!
//! The machine inverts the control flow. It never touches an executor;
//! instead [`WalkMachine::step`] / [`WalkMachine::resume`] *yield* what the
//! walk needs next:
//!
//! * [`WalkStep::NeedCount`] — the machine is blocked on the classification
//!   of one query. The caller obtains it however it likes (a blocking
//!   executor, a history-cache hit, a pipelined wire completion harvested
//!   much later) and feeds it back through [`WalkMachine::resume`].
//! * [`WalkStep::Sample`] — a sample was accepted; the machine is reset and
//!   ready for the next walk.
//! * [`WalkStep::Failed`] — the walk cannot continue (budget, walk limit,
//!   empty scope, transport failure); also a reset.
//!
//! One thread can interleave hundreds of machines, parking each one while
//! its query is on the wire — the cooperative driver in `hdsampler-webform`
//! does exactly that. `HdsSampler` itself is now a thin synchronous loop
//! over this machine, so the two execution styles cannot drift apart: they
//! are the same algorithm consuming the same RNG stream in the same order,
//! and a machine fed by any semantically-correct answer source produces
//! the *identical* sample sequence for a given seed.

use hdsampler_model::{AttrId, ConjunctiveQuery, InterfaceError, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::acceptance::acceptance_probability;
use crate::config::SamplerConfig;
use crate::executor::Classified;
use crate::sample::{Sample, SampleMeta, SamplerError};
use crate::stats::SamplerStats;
use crate::walk::{domain_product, drill_step, resolve_drill_attrs, DrillStep, WalkOutcome};

/// What a [`WalkMachine`] needs (or produced) after one step.
#[derive(Debug)]
pub enum WalkStep {
    /// The machine is blocked on the classification of this query; feed
    /// the answer back via [`WalkMachine::resume`]. (The name follows the
    /// paper's vocabulary: the walk asks the interface how many tuples a
    /// query selects — empty, valid-with-rows, or more-than-k.)
    NeedCount(ConjunctiveQuery),
    /// A sample was accepted. The machine has reset and the next
    /// [`WalkMachine::step`] begins a fresh walk.
    Sample(Sample),
    /// The walk cannot continue. The machine has reset; whether retrying
    /// is sensible depends on the error (a walk limit may clear, an empty
    /// scope never will).
    Failed(SamplerError),
}

/// Progress of the current walk.
#[derive(Debug)]
enum State {
    /// No walk in progress; `step` starts one.
    Fresh { walks_this_sample: u64 },
    /// Blocked on the classification of `query` at `depth`.
    Awaiting {
        walks_this_sample: u64,
        query: ConjunctiveQuery,
        order: Vec<AttrId>,
        depth: usize,
        branch_product: f64,
    },
}

/// The HIDDEN-DB-SAMPLER walk + acceptance logic, decoupled from any
/// executor (see the module docs).
#[derive(Debug)]
pub struct WalkMachine {
    schema: Schema,
    cfg: SamplerConfig,
    drill: Vec<AttrId>,
    b_product: f64,
    c_factor: f64,
    rng: StdRng,
    stats: SamplerStats,
    state: State,
}

impl WalkMachine {
    /// Build a machine for a form exposing `schema`.
    ///
    /// # Errors
    /// [`SamplerError::Config`] on invalid scope/drill configuration.
    pub fn new(schema: &Schema, cfg: SamplerConfig) -> Result<Self, SamplerError> {
        cfg.scope
            .validate(schema)
            .map_err(|e| SamplerError::Config(e.to_string()))?;
        let drill = resolve_drill_attrs(schema, &cfg.scope, cfg.drill_attrs.as_deref())?;
        let b_product = domain_product(schema, &drill);
        let c_factor = cfg.acceptance.resolve_c(b_product);
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(WalkMachine {
            schema: schema.clone(),
            cfg,
            drill,
            b_product,
            c_factor,
            rng,
            stats: SamplerStats::default(),
            state: State::Fresh {
                walks_this_sample: 0,
            },
        })
    }

    /// The resolved scaling factor `C`.
    pub fn c_factor(&self) -> f64 {
        self.c_factor
    }

    /// The domain product `B` over the drillable attributes.
    pub fn domain_product(&self) -> f64 {
        self.b_product
    }

    /// The drillable attributes in schema order.
    pub fn drill_attrs(&self) -> &[AttrId] {
        &self.drill
    }

    /// Sampler-local counters (walks, dead ends, accepted, …). The
    /// executor-view counters (`requests`, `queries_issued`) stay zero —
    /// the machine never talks to an executor; whoever answers its
    /// [`WalkStep::NeedCount`]s owns those figures.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Whether the machine is parked on a [`WalkStep::NeedCount`].
    pub fn is_awaiting(&self) -> bool {
        matches!(self.state, State::Awaiting { .. })
    }

    /// Advance until the machine blocks or produces.
    ///
    /// Fresh machines (and machines that just emitted a
    /// [`WalkStep::Sample`]/[`WalkStep::Failed`]) begin the next walk and
    /// return its first [`WalkStep::NeedCount`] (or fail immediately, e.g.
    /// on a zero walk limit). A machine already blocked re-yields the same
    /// pending query, so `step` is safe to call without tracking state.
    pub fn step(&mut self) -> WalkStep {
        match &self.state {
            State::Awaiting { query, .. } => WalkStep::NeedCount(query.clone()),
            State::Fresh { walks_this_sample } => {
                let walks = *walks_this_sample;
                self.begin_walk(walks)
            }
        }
    }

    /// Feed the answer to the pending [`WalkStep::NeedCount`] and advance.
    ///
    /// The machine itself never retries: transient-failure handling
    /// (backoff on `Throttled`/5xx, see the webform drivers) lives in
    /// whoever answers the `NeedCount`. An error fed here — e.g. a
    /// [`InterfaceError::Throttled`] whose retry budget the driver has
    /// exhausted — terminally fails the walk as
    /// [`WalkStep::Failed`]`(`[`SamplerError::Interface`]`)`.
    ///
    /// # Panics
    /// If the machine is not blocked on a query (misuse: `resume` without
    /// a preceding `NeedCount`).
    pub fn resume(&mut self, answer: Result<Classified, InterfaceError>) -> WalkStep {
        let State::Awaiting {
            walks_this_sample,
            query,
            order,
            depth,
            branch_product,
        } = std::mem::replace(
            &mut self.state,
            State::Fresh {
                walks_this_sample: 0,
            },
        )
        else {
            panic!("WalkMachine::resume without a pending NeedCount");
        };

        let classified = match answer {
            Ok(c) => c,
            Err(e) => return self.emit_failure(SamplerError::from(e)),
        };

        // The one drill-down transition (`walk::drill_step`); this machine
        // is the only loop that applies it outside `walk`'s own tests.
        let step = drill_step(
            &self.schema,
            &classified,
            &query,
            &order,
            depth,
            branch_product,
            &mut self.rng,
        );
        match step {
            DrillStep::Outcome(WalkOutcome::EmptyScope) => {
                self.emit_failure(SamplerError::EmptyScope)
            }
            DrillStep::Outcome(WalkOutcome::DeadEnd { .. }) => {
                self.stats.dead_ends += 1;
                self.begin_walk(walks_this_sample)
            }
            DrillStep::Outcome(WalkOutcome::LeafOverflow { .. }) => {
                self.stats.leaf_overflows += 1;
                self.begin_walk(walks_this_sample)
            }
            DrillStep::Outcome(WalkOutcome::Candidate(cand)) => {
                self.stats.candidates += 1;
                let a = acceptance_probability(
                    self.c_factor,
                    cand.branch_product,
                    cand.result_size,
                    self.b_product,
                );
                if a >= 1.0 || self.rng.gen_bool(a) {
                    self.stats.accepted += 1;
                    self.state = State::Fresh {
                        walks_this_sample: 0,
                    };
                    WalkStep::Sample(Sample {
                        row: cand.row,
                        weight: 1.0,
                        meta: SampleMeta {
                            depth: cand.depth,
                            result_size: cand.result_size,
                            acceptance: a,
                            walks: walks_this_sample,
                        },
                    })
                } else {
                    self.stats.rejected += 1;
                    self.begin_walk(walks_this_sample)
                }
            }
            DrillStep::Descend {
                query,
                branch_product,
            } => {
                let next = query.clone();
                self.state = State::Awaiting {
                    walks_this_sample,
                    query,
                    order,
                    depth: depth + 1,
                    branch_product,
                };
                WalkStep::NeedCount(next)
            }
        }
    }

    /// Start the next walk of the current sample attempt (enforcing the
    /// walk limit) and block on the scope query.
    fn begin_walk(&mut self, walks_this_sample: u64) -> WalkStep {
        if walks_this_sample >= self.cfg.max_walks_per_sample {
            return self.emit_failure(SamplerError::WalkLimit {
                walks: walks_this_sample,
            });
        }
        self.stats.walks += 1;
        let order = self.cfg.order.make_order(&self.drill, &mut self.rng);
        let query = self.cfg.scope.clone();
        let first = query.clone();
        self.state = State::Awaiting {
            walks_this_sample: walks_this_sample + 1,
            query,
            order,
            depth: 0,
            branch_product: 1.0,
        };
        WalkStep::NeedCount(first)
    }

    /// Reset and report a failure.
    fn emit_failure(&mut self, err: SamplerError) -> WalkStep {
        self.state = State::Fresh {
            walks_this_sample: 0,
        };
        WalkStep::Failed(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{DirectExecutor, QueryExecutor};
    use crate::hds::HdsSampler;
    use crate::sample::Sampler;
    use hdsampler_model::Classification;
    use hdsampler_workload::figure1_db;

    /// Drive a machine synchronously against an executor — the reference
    /// loop `HdsSampler` also uses.
    fn drive_one<E: QueryExecutor>(m: &mut WalkMachine, exec: &E) -> Result<Sample, SamplerError> {
        let mut step = m.step();
        loop {
            match step {
                WalkStep::NeedCount(q) => step = m.resume(exec.classify(&q)),
                WalkStep::Sample(s) => return Ok(s),
                WalkStep::Failed(e) => return Err(e),
            }
        }
    }

    #[test]
    fn machine_replays_hds_sampler_exactly() {
        // Same seed, same executor semantics ⇒ byte-identical sample
        // sequence and identical local counters.
        let db = figure1_db(1);
        let cfg = SamplerConfig::seeded(42);
        let mut sampler = HdsSampler::new(DirectExecutor::new(&db), cfg.clone()).unwrap();
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut machine = WalkMachine::new(&schema, cfg).unwrap();
        let exec = DirectExecutor::new(&db);

        for _ in 0..50 {
            let a = sampler.next_sample().unwrap();
            let b = drive_one(&mut machine, &exec).unwrap();
            assert_eq!(a, b);
        }
        let s = sampler.stats();
        let m = machine.stats();
        assert_eq!(
            (s.walks, s.dead_ends, s.accepted),
            (m.walks, m.dead_ends, m.accepted)
        );
        assert_eq!((s.candidates, s.rejected), (m.candidates, m.rejected));
    }

    #[test]
    fn step_is_idempotent_while_blocked() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut m = WalkMachine::new(&schema, SamplerConfig::seeded(1)).unwrap();
        let WalkStep::NeedCount(q1) = m.step() else {
            panic!("fresh machine must ask for the scope query");
        };
        assert!(m.is_awaiting());
        let WalkStep::NeedCount(q2) = m.step() else {
            panic!("blocked machine must re-yield its pending query");
        };
        assert_eq!(q1, q2);
        // Only one walk was started despite two steps.
        assert_eq!(m.stats().walks, 1);
    }

    #[test]
    fn walk_limit_and_reset() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut m = WalkMachine::new(&schema, SamplerConfig::seeded(3).with_max_walks(0)).unwrap();
        match m.step() {
            WalkStep::Failed(SamplerError::WalkLimit { walks: 0 }) => {}
            other => panic!("expected immediate walk limit, got {other:?}"),
        }
        // The machine reset: the next step hits the limit again, exactly
        // like a fresh `next_sample` call.
        assert!(matches!(
            m.step(),
            WalkStep::Failed(SamplerError::WalkLimit { walks: 0 })
        ));
    }

    #[test]
    fn empty_scope_fails_and_resets() {
        use hdsampler_model::{AttrId, ConjunctiveQuery};
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let scope = ConjunctiveQuery::from_pairs([(AttrId(0), 1), (AttrId(1), 0)]).unwrap();
        let cfg = SamplerConfig::seeded(1).with_scope(scope);
        let mut m = WalkMachine::new(&schema, cfg).unwrap();
        let exec = DirectExecutor::new(&db);
        assert_eq!(drive_one(&mut m, &exec), Err(SamplerError::EmptyScope));
        assert_eq!(drive_one(&mut m, &exec), Err(SamplerError::EmptyScope));
    }

    #[test]
    fn transport_errors_surface_as_failures() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut m = WalkMachine::new(&schema, SamplerConfig::seeded(5)).unwrap();
        let WalkStep::NeedCount(_) = m.step() else {
            panic!("must block on the scope query");
        };
        let step = m.resume(Err(InterfaceError::BudgetExhausted { issued: 7 }));
        assert!(matches!(
            step,
            WalkStep::Failed(SamplerError::BudgetExhausted { issued: 7 })
        ));
        assert!(!m.is_awaiting(), "failure resets the machine");
    }

    #[test]
    fn exhausted_retry_throttle_fails_the_walk() {
        // The retrying drivers only feed a Throttled error to the machine
        // once their retry budget is spent — at which point it must be
        // terminal, not silently swallowed.
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut m = WalkMachine::new(&schema, SamplerConfig::seeded(6)).unwrap();
        let WalkStep::NeedCount(_) = m.step() else {
            panic!("must block on the scope query");
        };
        let step = m.resume(Err(InterfaceError::Throttled {
            retry_after_ms: 250,
        }));
        assert!(matches!(
            step,
            WalkStep::Failed(SamplerError::Interface(InterfaceError::Throttled {
                retry_after_ms: 250
            }))
        ));
        assert!(!m.is_awaiting(), "failure resets the machine");
    }

    #[test]
    #[should_panic(expected = "without a pending NeedCount")]
    fn resume_without_pending_query_panics() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let mut m = WalkMachine::new(&schema, SamplerConfig::seeded(1)).unwrap();
        let _ = m.resume(Ok(Classified {
            class: Classification::Empty,
            rows: None,
        }));
    }

    #[test]
    fn invalid_config_rejected() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db).clone();
        let cfg = SamplerConfig::seeded(1).with_drill_attrs(["bogus"]);
        assert!(matches!(
            WalkMachine::new(&schema, cfg),
            Err(SamplerError::Config(_))
        ));
    }
}
