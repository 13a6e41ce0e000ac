//! [`QueryExecutor`]: the sampler-side view of a form interface.
//!
//! Samplers never call [`FormInterface`] directly; they go through an
//! executor, which (a) asks the interface through
//! [`FormInterface::execute_for_sampler`] and strips responses down to
//! what a sampler may legally use — full row lists only for *valid*
//! queries, classification only for overflow/empty — and (b) optionally
//! routes through the history cache
//! ([`CachingExecutor`](crate::history::CachingExecutor)) so repeated or
//! inferable queries cost nothing (§3.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hdsampler_model::{
    Classification, ConjunctiveQuery, FormInterface, InterfaceError, QueryResponse, Row, Schema,
};

/// A response reduced to sampler-legal information.
#[derive(Debug, Clone)]
pub struct Classified {
    /// Empty / valid / overflow.
    pub class: Classification,
    /// The complete result rows — present **only** for valid queries. Rows
    /// of overflowing queries are deliberately discarded: they are top-k
    /// under a non-random ranking and would bias any sample (§2). A
    /// web-form interface does not even decode them
    /// ([`FormInterface::execute_for_sampler`]).
    pub rows: Option<Arc<[Row]>>,
}

impl Classified {
    /// Number of rows for valid responses (the `j` in the acceptance
    /// formula), 0 otherwise.
    pub fn result_size(&self) -> usize {
        self.rows.as_ref().map_or(0, |r| r.len())
    }

    /// Reduce an interface response (full, or a sampler response whose
    /// overflow rows were left empty) to sampler-legal information: rows
    /// are kept only when the response is valid (top-k rows of an
    /// overflowing query would bias any sample, §2).
    pub fn from_response(resp: QueryResponse) -> Self {
        let class = resp.classification();
        let rows = match class {
            Classification::Valid => Some(Arc::from(resp.rows)),
            _ => None,
        };
        Classified { class, rows }
    }
}

/// The sampler-side query service.
pub trait QueryExecutor {
    /// Classify a query, returning full rows when (and only when) valid.
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError>;

    /// The result count of a query (exact or site-noisy), when the site
    /// reports counts.
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError>;

    /// The form's schema.
    fn schema(&self) -> &Schema;

    /// The top-k limit.
    fn result_limit(&self) -> usize;

    /// Whether [`count`](QueryExecutor::count) can succeed.
    fn supports_count(&self) -> bool;

    /// Queries actually charged at the interface.
    fn queries_issued(&self) -> u64;

    /// Logical requests made by samplers (≥ `queries_issued` when a cache
    /// absorbs some of them).
    fn requests(&self) -> u64;
}

/// Pass-through executor: every request hits the interface.
#[derive(Debug)]
pub struct DirectExecutor<F> {
    interface: F,
    requests: AtomicU64,
    /// Interface charges that predate this executor, so several samplers
    /// run sequentially against one site each report only their own cost.
    charge_baseline: u64,
}

impl<F: FormInterface> DirectExecutor<F> {
    /// Wrap an interface.
    pub fn new(interface: F) -> Self {
        let charge_baseline = interface.queries_issued();
        DirectExecutor {
            interface,
            requests: AtomicU64::new(0),
            charge_baseline,
        }
    }

    /// The wrapped interface.
    pub fn interface(&self) -> &F {
        &self.interface
    }
}

impl<F: FormInterface> QueryExecutor for DirectExecutor<F> {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(Classified::from_response(
            self.interface.execute_for_sampler(query)?,
        ))
    }

    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.interface.count(query)
    }

    fn schema(&self) -> &Schema {
        self.interface.schema()
    }

    fn result_limit(&self) -> usize {
        self.interface.result_limit()
    }

    fn supports_count(&self) -> bool {
        self.interface.supports_count()
    }

    fn queries_issued(&self) -> u64 {
        self.interface
            .queries_issued()
            .saturating_sub(self.charge_baseline)
    }

    fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

impl<E: QueryExecutor + ?Sized> QueryExecutor for &E {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        (**self).classify(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        (**self).count(query)
    }
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn result_limit(&self) -> usize {
        (**self).result_limit()
    }
    fn supports_count(&self) -> bool {
        (**self).supports_count()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn requests(&self) -> u64 {
        (**self).requests()
    }
}

impl<E: QueryExecutor + ?Sized> QueryExecutor for Arc<E> {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        (**self).classify(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        (**self).count(query)
    }
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn result_limit(&self) -> usize {
        (**self).result_limit()
    }
    fn supports_count(&self) -> bool {
        (**self).supports_count()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn requests(&self) -> u64 {
        (**self).requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{AttrId, Attribute, SchemaBuilder, Tuple};
    use std::sync::Arc as StdArc;

    fn tiny_db(k: usize) -> HiddenDb {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(StdArc::clone(&schema)).result_limit(k);
        for vals in [[0u16, 0], [0, 1], [1, 0], [1, 1]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn overflow_rows_are_withheld() {
        let db = tiny_db(2);
        let exec = DirectExecutor::new(&db);
        let c = exec.classify(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(c.class, Classification::Overflow);
        assert!(c.rows.is_none(), "top-k rows must not leak to samplers");
        assert_eq!(c.result_size(), 0);
    }

    #[test]
    fn valid_rows_are_complete() {
        let db = tiny_db(2);
        let exec = DirectExecutor::new(&db);
        let q = ConjunctiveQuery::from_pairs([(AttrId(0), 0)]).unwrap();
        let c = exec.classify(&q).unwrap();
        assert_eq!(c.class, Classification::Valid);
        assert_eq!(c.result_size(), 2);
    }

    /// An interface that answers only through the sampler method.
    struct SamplerOnly(HiddenDb);

    impl FormInterface for SamplerOnly {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn result_limit(&self) -> usize {
            self.0.result_limit()
        }
        fn execute(&self, _q: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
            panic!("a sampler path called execute");
        }
        fn execute_for_sampler(
            &self,
            q: &ConjunctiveQuery,
        ) -> Result<QueryResponse, InterfaceError> {
            self.0.execute(q)
        }
        fn queries_issued(&self) -> u64 {
            self.0.queries_issued()
        }
    }

    #[test]
    fn executors_classify_through_execute_for_sampler() {
        let valid_q = ConjunctiveQuery::from_pairs([(AttrId(0), 0)]).unwrap();
        let direct = DirectExecutor::new(SamplerOnly(tiny_db(2)));
        let caching = crate::history::CachingExecutor::new(SamplerOnly(tiny_db(2)));
        for exec in [&direct as &dyn QueryExecutor, &caching] {
            let c = exec.classify(&ConjunctiveQuery::empty()).unwrap();
            assert_eq!(c.class, Classification::Overflow);
            assert_eq!(exec.classify(&valid_q).unwrap().result_size(), 2);
            assert_eq!(exec.queries_issued(), 2, "both were misses");
        }
    }

    #[test]
    fn charges_and_requests_align_without_cache() {
        let db = tiny_db(2);
        let exec = DirectExecutor::new(&db);
        exec.classify(&ConjunctiveQuery::empty()).unwrap();
        exec.classify(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(exec.requests(), 2);
        assert_eq!(exec.queries_issued(), 2);
    }
}
