//! The [`FormInterface`] trait: the *only* channel between samplers and a
//! hidden database.
//!
//! Every implementation — the in-memory engine, the simulated web-form
//! scraper — enforces the same observable contract, so samplers are oblivious
//! to what sits behind the form, exactly like the real HDSampler was
//! oblivious to Google Base's internals.

use crate::error::InterfaceError;
use crate::outcome::QueryResponse;
use crate::query::ConjunctiveQuery;
use crate::schema::Schema;

/// A conjunctive web form interface with a top-k restriction (paper §1–2).
///
/// # Contract
///
/// * `execute(q)` returns the full result set when at most
///   [`result_limit`](FormInterface::result_limit) tuples qualify, otherwise
///   the top-k under a **deterministic, non-random** ranking plus
///   `overflow = true`.
/// * Responses are *stable*: re-issuing the same query yields the same
///   response (no randomness server-side) until the underlying data changes.
/// * Every `execute` / `execute_for_sampler` / `count` call **charges one
///   query** against the interface's budget, whether or not the result was
///   useful — matching how sites meter page fetches per IP.
/// * [`execute_for_sampler`](FormInterface::execute_for_sampler) answers
///   as `execute` does, except that an overflowing response may leave its
///   rows empty: samplers use an overflow only for its class (§2), so an
///   implementation that pays per row may skip them.
/// * Implementations must be usable behind a shared reference so that
///   concurrent walkers can share one session.
pub trait FormInterface: Send + Sync {
    /// The attributes/measures this form exposes.
    fn schema(&self) -> &Schema;

    /// The top-k display limit (`k = 1000` for Google Base, `k = 25` for MSN
    /// Stock Screener, … — §2).
    fn result_limit(&self) -> usize;

    /// Submit a query and scrape its response.
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError>;

    /// Submit a query for a sampler: the response of
    /// [`execute`](FormInterface::execute), except that when it overflows
    /// its rows may be left empty (`overflow` and `reported_count` are
    /// kept). The default is `execute`.
    fn execute_for_sampler(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryResponse, InterfaceError> {
        self.execute(query)
    }

    /// Ask only for the result *count* of a query.
    ///
    /// Sites that print a count banner can answer this with one page fetch
    /// (still one charged query). Sites without count reporting return
    /// `Err(Unsupported)`. The default implementation falls back to
    /// [`execute_for_sampler`](FormInterface::execute_for_sampler) and
    /// inspects the banner.
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        let resp = self.execute_for_sampler(query)?;
        resp.reported_count
            .ok_or(InterfaceError::Unsupported("count reporting"))
    }

    /// Whether [`count`](FormInterface::count) is expected to succeed.
    fn supports_count(&self) -> bool {
        false
    }

    /// Total queries charged so far on this session (for efficiency
    /// accounting; §1 motivates minimizing this number).
    fn queries_issued(&self) -> u64;

    /// A stable digest of the dataset behind the form, when the
    /// implementation can compute one (the in-memory engine hashes its
    /// table; a scraper cannot see past the form and returns `None`).
    ///
    /// Combined with the schema and display limit it identifies a site
    /// *version*: persistent caches key their facts on it so stale
    /// knowledge from a changed dataset is never replayed.
    fn dataset_digest(&self) -> Option<u64> {
        None
    }
}

/// Blanket implementation so `&T`, `Box<T>`, `Arc<T>` are interfaces too.
impl<T: FormInterface + ?Sized> FormInterface for &T {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn result_limit(&self) -> usize {
        (**self).result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        (**self).execute(query)
    }
    fn execute_for_sampler(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryResponse, InterfaceError> {
        (**self).execute_for_sampler(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        (**self).count(query)
    }
    fn supports_count(&self) -> bool {
        (**self).supports_count()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        (**self).dataset_digest()
    }
}

impl<T: FormInterface + ?Sized> FormInterface for std::sync::Arc<T> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn result_limit(&self) -> usize {
        (**self).result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        (**self).execute(query)
    }
    fn execute_for_sampler(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryResponse, InterfaceError> {
        (**self).execute_for_sampler(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        (**self).count(query)
    }
    fn supports_count(&self) -> bool {
        (**self).supports_count()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        (**self).dataset_digest()
    }
}

impl<T: FormInterface + ?Sized> FormInterface for Box<T> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn result_limit(&self) -> usize {
        (**self).result_limit()
    }
    fn execute(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
        (**self).execute(query)
    }
    fn execute_for_sampler(
        &self,
        query: &ConjunctiveQuery,
    ) -> Result<QueryResponse, InterfaceError> {
        (**self).execute_for_sampler(query)
    }
    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        (**self).count(query)
    }
    fn supports_count(&self) -> bool {
        (**self).supports_count()
    }
    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }
    fn dataset_digest(&self) -> Option<u64> {
        (**self).dataset_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::outcome::Row;
    use crate::schema::SchemaBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A toy interface over a fixed value list, used to test the trait's
    /// default methods and blanket impls.
    struct Toy {
        schema: Schema,
        charged: AtomicU64,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                schema: SchemaBuilder::new()
                    .attribute(Attribute::boolean("x"))
                    .finish()
                    .unwrap(),
                charged: AtomicU64::new(0),
            }
        }
    }

    /// A toy whose sampler answer differs from its `execute` answer: an
    /// overflow with its rows left out.
    struct SamplerToy(Toy);

    impl FormInterface for SamplerToy {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn result_limit(&self) -> usize {
            self.0.result_limit()
        }
        fn execute(&self, q: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
            self.0.execute(q)
        }
        fn execute_for_sampler(
            &self,
            _q: &ConjunctiveQuery,
        ) -> Result<QueryResponse, InterfaceError> {
            self.0.charged.fetch_add(1, Ordering::Relaxed);
            Ok(QueryResponse {
                rows: vec![],
                overflow: true,
                reported_count: Some(7),
            })
        }
        fn queries_issued(&self) -> u64 {
            self.0.queries_issued()
        }
    }

    impl FormInterface for Toy {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn result_limit(&self) -> usize {
            1
        }
        fn execute(&self, _q: &ConjunctiveQuery) -> Result<QueryResponse, InterfaceError> {
            self.charged.fetch_add(1, Ordering::Relaxed);
            Ok(QueryResponse {
                rows: vec![Row::new(0, vec![1], vec![])],
                overflow: false,
                reported_count: Some(1),
            })
        }
        fn queries_issued(&self) -> u64 {
            self.charged.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn default_count_goes_through_execute() {
        let toy = Toy::new();
        let c = toy.count(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(c, 1);
        assert_eq!(toy.queries_issued(), 1, "count charged one query");
        assert!(!toy.supports_count(), "default advertises no count support");
    }

    #[test]
    fn blanket_impls_delegate() {
        let toy = std::sync::Arc::new(Toy::new());
        let as_ref: &dyn FormInterface = &toy;
        assert_eq!(as_ref.result_limit(), 1);
        as_ref.execute(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(toy.queries_issued(), 1);

        let boxed: Box<dyn FormInterface> = Box::new(Toy::new());
        boxed.execute(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(boxed.queries_issued(), 1);
    }

    #[test]
    fn execute_for_sampler_defaults_to_execute() {
        let toy = Toy::new();
        let q = ConjunctiveQuery::empty();
        assert_eq!(
            toy.execute_for_sampler(&q).unwrap(),
            toy.execute(&q).unwrap()
        );
        assert_eq!(toy.queries_issued(), 2, "each call charged one query");
    }

    #[test]
    fn blanket_impls_forward_execute_for_sampler() {
        fn sampler_view<F: FormInterface>(f: F) -> QueryResponse {
            f.execute_for_sampler(&ConjunctiveQuery::empty()).unwrap()
        }
        let toy = std::sync::Arc::new(SamplerToy(Toy::new()));
        let views = [
            sampler_view(&*toy),
            sampler_view(std::sync::Arc::clone(&toy)),
            sampler_view(Box::new(SamplerToy(Toy::new())) as Box<dyn FormInterface>),
        ];
        for view in views {
            assert!(view.overflow && view.rows.is_empty(), "{view:?}");
        }
        assert_eq!(
            toy.queries_issued(),
            2,
            "&T and Arc<T> reached the override"
        );
        let full = toy.execute(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(full.rows.len(), 1, "execute keeps its own answer");
    }
}
