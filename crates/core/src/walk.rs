//! The random drill-down walk (paper §2).
//!
//! Starting from the (possibly user-pinned) scope query, the walk adds one
//! randomly-valued predicate per level of the query tree until the query
//! stops overflowing:
//!
//! * **overflow** → descend another level;
//! * **empty** → dead end, the walk restarts;
//! * **valid** (1..=k rows) → pick one returned row uniformly; this is a
//!   *candidate* for the Sample Processor, together with the quantities the
//!   acceptance formula needs (depth, branch product, result size).
//!
//! If every drillable attribute is bound and the query still overflows, the
//! walk has found a mass of more than `k` tuples that the interface cannot
//! tell apart — those tuples are unreachable by drill-down sampling
//! ([`WalkOutcome::LeafOverflow`]); the data-shape experiment measures this
//! "invisible mass".

use hdsampler_model::{AttrId, Classification, ConjunctiveQuery, Row, Schema};
use rand::Rng;

use crate::executor::Classified;

/// A candidate sample produced by a successful walk.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The uniformly picked row of the terminal valid node.
    pub row: Row,
    /// Number of predicates added on top of the scope (tree depth `d`).
    pub depth: usize,
    /// Result size `j` of the terminal node.
    pub result_size: usize,
    /// `∏_{i ≤ d} |Dom(π_i)|` along the walked path.
    pub branch_product: f64,
}

/// Terminal state of one walk.
#[derive(Debug, Clone)]
pub enum WalkOutcome {
    /// Reached a valid node and picked a row.
    Candidate(Candidate),
    /// Hit an empty node at the given depth.
    DeadEnd {
        /// Depth at which the walk died.
        depth: usize,
    },
    /// Exhausted all attributes while still overflowing.
    LeafOverflow {
        /// Depth reached (= number of drillable attributes).
        depth: usize,
    },
    /// The scope query itself selects nothing — no walk can succeed.
    EmptyScope,
}

/// What one classification does to a walk in progress.
///
/// This is THE drill-down transition (paper §2). The one drill-down loop,
/// [`WalkMachine`](crate::machine::WalkMachine), applies it once per
/// resumption.
#[derive(Debug)]
pub(crate) enum DrillStep {
    /// The walk terminated with an outcome.
    Outcome(WalkOutcome),
    /// The node overflows and a fresh predicate was drawn: descend.
    Descend {
        /// The refined query for the next level.
        query: ConjunctiveQuery,
        /// Updated `∏ |Dom(π_i)|` along the path.
        branch_product: f64,
    },
}

/// Apply one classification to the walk state at `depth`.
pub(crate) fn drill_step<R: Rng>(
    schema: &Schema,
    resp: &Classified,
    query: &ConjunctiveQuery,
    order: &[AttrId],
    depth: usize,
    branch_product: f64,
    rng: &mut R,
) -> DrillStep {
    match resp.class {
        Classification::Empty => DrillStep::Outcome(if depth == 0 {
            WalkOutcome::EmptyScope
        } else {
            WalkOutcome::DeadEnd { depth }
        }),
        Classification::Valid => {
            let rows = resp.rows.as_ref().expect("valid responses carry rows");
            let j = rows.len();
            debug_assert!(j >= 1);
            let row = rows[rng.gen_range(0..j)].clone();
            DrillStep::Outcome(WalkOutcome::Candidate(Candidate {
                row,
                depth,
                result_size: j,
                branch_product,
            }))
        }
        Classification::Overflow => {
            if depth == order.len() {
                return DrillStep::Outcome(WalkOutcome::LeafOverflow { depth });
            }
            let attr = order[depth];
            let dom = schema.domain_size(attr);
            let value = rng.gen_range(0..dom) as u16;
            DrillStep::Descend {
                query: query
                    .refine(attr, value)
                    .expect("drill attributes are unbound by construction"),
                branch_product: branch_product * dom as f64,
            }
        }
    }
}

/// Domain product `B = ∏ |Dom(a)|` over a set of drillable attributes.
pub fn domain_product(schema: &hdsampler_model::Schema, drill: &[AttrId]) -> f64 {
    drill
        .iter()
        .map(|&a| schema.domain_size(a) as f64)
        .product()
}

/// Resolve the drillable attribute set for a scope query: every schema
/// attribute not bound by the scope, optionally restricted to a named
/// subset (Figure 3's attribute selection).
pub fn resolve_drill_attrs(
    schema: &hdsampler_model::Schema,
    scope: &ConjunctiveQuery,
    restrict_to: Option<&[String]>,
) -> Result<Vec<AttrId>, crate::sample::SamplerError> {
    let mut drill = Vec::new();
    match restrict_to {
        None => {
            for id in schema.attr_ids() {
                if !scope.binds(id) {
                    drill.push(id);
                }
            }
        }
        Some(names) => {
            for name in names {
                let id = schema
                    .attr_by_name(name)
                    .map_err(|e| crate::sample::SamplerError::Config(e.to_string()))?;
                if scope.binds(id) {
                    return Err(crate::sample::SamplerError::Config(format!(
                        "attribute `{name}` is pinned by the scope and cannot be drilled"
                    )));
                }
                drill.push(id);
            }
            drill.sort_unstable();
            drill.dedup();
        }
    }
    Ok(drill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{DirectExecutor, QueryExecutor};
    use hdsampler_model::InterfaceError;
    use hdsampler_workload::figure1_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One blocking drill-down walk: [`drill_step`] folded over an
    /// executor, the reference these tests walk. `order` must list the
    /// drillable attributes (none of them bound by `scope`), in the order
    /// this walk will constrain them.
    fn random_walk<E: QueryExecutor, R: Rng>(
        exec: &E,
        scope: &ConjunctiveQuery,
        order: &[AttrId],
        rng: &mut R,
    ) -> Result<WalkOutcome, InterfaceError> {
        let schema = exec.schema();
        let mut query = scope.clone();
        let mut branch_product = 1.0f64;

        for depth in 0..=order.len() {
            let resp = exec.classify(&query)?;
            match drill_step(schema, &resp, &query, order, depth, branch_product, rng) {
                DrillStep::Outcome(outcome) => return Ok(outcome),
                DrillStep::Descend {
                    query: refined,
                    branch_product: b,
                } => {
                    query = refined;
                    branch_product = b;
                }
            }
        }
        unreachable!("the transition terminates at depth == order.len()");
    }

    fn attrs(n: u16) -> Vec<AttrId> {
        (0..n).map(AttrId).collect()
    }

    #[test]
    fn figure1_walk_reaches_every_tuple_with_paper_probabilities() {
        let db = figure1_db(1);
        let exec = DirectExecutor::new(&db);
        let order = attrs(3);
        let mut rng = StdRng::seed_from_u64(17);

        let n = 40_000;
        let mut by_values: std::collections::HashMap<Vec<u16>, u32> = Default::default();
        let mut dead_ends = 0u32;
        for _ in 0..n {
            match random_walk(&exec, &ConjunctiveQuery::empty(), &order, &mut rng).unwrap() {
                WalkOutcome::Candidate(c) => {
                    *by_values.entry(c.row.values.to_vec()).or_insert(0) += 1;
                }
                WalkOutcome::DeadEnd { .. } => dead_ends += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Paper §2 / Figure 1: reach probabilities 1/4, 1/8, 1/8, 1/2 and a
        // 0 probability of dead end on this database? No: path a1=1,a2=0 is
        // empty, giving a dead-end probability of... a1=1 (prob 1/2) is
        // VALID immediately (t4 unique), so the dead end is never reached.
        assert_eq!(dead_ends, 0, "a1=1 terminates before the empty branch");
        let freq =
            |vals: [u16; 3]| by_values.get(vals.as_slice()).copied().unwrap_or(0) as f64 / n as f64;
        assert!(
            (freq([0, 0, 1]) - 0.25).abs() < 0.01,
            "t1 {}",
            freq([0, 0, 1])
        );
        assert!(
            (freq([0, 1, 0]) - 0.125).abs() < 0.01,
            "t2 {}",
            freq([0, 1, 0])
        );
        assert!(
            (freq([0, 1, 1]) - 0.125).abs() < 0.01,
            "t3 {}",
            freq([0, 1, 1])
        );
        assert!(
            (freq([1, 1, 0]) - 0.5).abs() < 0.01,
            "t4 {}",
            freq([1, 1, 0])
        );
    }

    #[test]
    fn candidate_carries_walk_geometry() {
        let db = figure1_db(1);
        let exec = DirectExecutor::new(&db);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            if let WalkOutcome::Candidate(c) =
                random_walk(&exec, &ConjunctiveQuery::empty(), &attrs(3), &mut rng).unwrap()
            {
                assert_eq!(c.branch_product, 2f64.powi(c.depth as i32));
                assert_eq!(c.result_size, 1, "k = 1 forces singleton nodes");
                assert!(c.depth >= 1 && c.depth <= 3);
            }
        }
    }

    #[test]
    fn scope_restricts_the_walk() {
        let db = figure1_db(1);
        let exec = DirectExecutor::new(&db);
        let mut rng = StdRng::seed_from_u64(5);
        // Scope a2=1 → tuples t2, t3, t4; drill on a1, a3 only.
        let scope = ConjunctiveQuery::from_pairs([(AttrId(1), 1)]).unwrap();
        let drill = resolve_drill_attrs(exec.schema(), &scope, None).unwrap();
        assert_eq!(drill, vec![AttrId(0), AttrId(2)]);
        for _ in 0..300 {
            if let WalkOutcome::Candidate(c) = random_walk(&exec, &scope, &drill, &mut rng).unwrap()
            {
                assert_eq!(c.row.values[1], 1, "sampled row must satisfy the scope");
            }
        }
    }

    #[test]
    fn empty_scope_detected_at_depth_zero() {
        let db = figure1_db(1);
        let exec = DirectExecutor::new(&db);
        let mut rng = StdRng::seed_from_u64(6);
        // a1=1 ∧ a2=0 selects nothing.
        let scope = ConjunctiveQuery::from_pairs([(AttrId(0), 1), (AttrId(1), 0)]).unwrap();
        let out = random_walk(&exec, &scope, &[AttrId(2)], &mut rng).unwrap();
        assert!(matches!(out, WalkOutcome::EmptyScope));
    }

    #[test]
    fn leaf_overflow_on_indistinguishable_mass() {
        // 5 identical tuples behind k = 2: every walk bottoms out still
        // overflowing.
        use hdsampler_hidden_db::HiddenDb;
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema)).result_limit(2);
        for _ in 0..5 {
            b.push(&Tuple::new(&schema, vec![1], vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        let exec = DirectExecutor::new(&db);
        let mut rng = StdRng::seed_from_u64(7);
        let mut saw_leaf_overflow = false;
        for _ in 0..20 {
            match random_walk(&exec, &ConjunctiveQuery::empty(), &[AttrId(0)], &mut rng).unwrap() {
                WalkOutcome::LeafOverflow { depth } => {
                    assert_eq!(depth, 1);
                    saw_leaf_overflow = true;
                }
                WalkOutcome::DeadEnd { depth } => assert_eq!(depth, 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_leaf_overflow);
    }

    #[test]
    fn resolve_drill_attrs_validates() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db);
        let scope = ConjunctiveQuery::from_pairs([(AttrId(0), 1)]).unwrap();
        let names = vec!["a1".to_string()];
        assert!(matches!(
            resolve_drill_attrs(schema, &scope, Some(&names)),
            Err(crate::sample::SamplerError::Config(_))
        ));
        let names = vec!["nope".to_string()];
        assert!(resolve_drill_attrs(schema, &ConjunctiveQuery::empty(), Some(&names)).is_err());
        let names = vec!["a2".to_string(), "a3".to_string(), "a2".to_string()];
        let drill = resolve_drill_attrs(schema, &ConjunctiveQuery::empty(), Some(&names)).unwrap();
        assert_eq!(drill, vec![AttrId(1), AttrId(2)], "deduplicated and sorted");
    }

    #[test]
    fn domain_product_multiplies() {
        let db = figure1_db(1);
        let schema = hdsampler_model::FormInterface::schema(&db);
        assert_eq!(domain_product(schema, &attrs(3)), 8.0);
        assert_eq!(domain_product(schema, &[]), 1.0);
    }
}
