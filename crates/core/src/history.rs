//! Query-history cache with containment inference (§3.2, ref \[2\]).
//!
//! "This module also keeps track of the query history and results to ensure
//! that the random query generation process accumulates savings by not
//! issuing the same query twice, or queries whose results can be inferred
//! from the query history."
//!
//! Four inference rules answer a query without touching the site:
//!
//! 1. **Memo** — the exact query was asked before.
//! 2. **Empty-subset** — some remembered *empty* query's predicate set is a
//!    subset of the new query's: a refinement of an empty query is empty.
//! 3. **Overflow-superset** — the new query's predicate set is a subset of
//!    some remembered *overflowing* query's: a broadening of an overflowing
//!    query overflows. (Samplers only need the classification of
//!    overflowing nodes, never their rows — so this rule fully answers.)
//! 4. **Valid-ancestor filtering** — some remembered *valid* query's
//!    predicate set is a subset of the new query's: the new result is
//!    computed by filtering the remembered (complete) row list locally.
//!
//! Counts are memoized separately; a valid (complete) response additionally
//! reveals its exact count regardless of how noisy the site's banner is.
//!
//! With per-walk attribute scrambling, rules 2–4 fire *across* walks that
//! constrained the same values in different orders — exactly the repeat
//! structure random drill-downs generate in the upper tree.
//!
//! ## Tiers and learn-time stamps
//!
//! The in-memory index above is the **L1** tier. An optional **L2** tier
//! ([`CachingExecutor::with_l2`]) sits behind it: a persistent fact log
//! ([`crate::l2::L2Log`]) loaded into an index of its own at attach time.
//! Both tiers are the same `HistoryInner` type and answer through the same
//! rule code; both sit behind one lock with the hit counters. L1 misses
//! consult L2 before reporting a miss; L2 hits are promoted into L1 and
//! counted per tier, and newly wire-learned facts are written behind to the
//! log, so the next run against the same site starts warm.
//!
//! Every fact carries the site-clock time it was learned at
//! ([`CachingExecutor::record_response_at`]). A history hit reports the
//! stamp of the witness the index finds for it ([`HistoryHit::learned_at`]):
//! a sound causal floor for a cooperative walker resuming on that hit, since
//! the answer was known by then. Which witness answers depends on the
//! history alone, never on the host. Facts loaded from L2 were known before
//! the run began and stamp `0`.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use hdsampler_model::{
    Classification, ConjunctiveQuery, FormInterface, InterfaceError, Predicate, Row, Schema,
};

use crate::executor::{Classified, QueryExecutor};
use crate::l2::{FactRecord, L2Index, L2Log, Shape};

/// Cache-hit counters, by rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryStats {
    /// Rule 1 hits (exact memo).
    pub memo_hits: u64,
    /// Rule 2 hits (empty-subset).
    pub empty_rule_hits: u64,
    /// Rule 3 hits (overflow-superset).
    pub overflow_rule_hits: u64,
    /// Rule 4 hits (valid-ancestor filtering).
    pub filter_rule_hits: u64,
    /// Count-probe memo hits.
    pub count_memo_hits: u64,
    /// Requests that had to be charged at the interface.
    pub misses: u64,
    /// Capacity-bound eviction passes (any layer).
    pub evictions: u64,
    /// Eviction passes that had to cold-restart the whole L1 index —
    /// containment facts alone busted the bound, so even the protected
    /// empty/overflow sets were dropped.
    pub cold_restarts: u64,
    /// Requests the persistent L2 tier answered after an L1 miss.
    pub l2_hits: u64,
    /// Requests that missed both tiers with an L2 attached.
    pub l2_misses: u64,
    /// Wire-learned facts written behind to the L2 log.
    pub l2_puts: u64,
    /// Facts the L2 tier indexed from its log at attach time.
    pub l2_loads: u64,
    /// What the L2 tier skipped: log lines that are no record (at attach),
    /// and valid facts found unusable at first use with the row records
    /// that did not decode. It grows during the run, so read it when the
    /// run reports.
    pub l2_skipped: u64,
}

impl HistoryStats {
    /// Total requests answered from history (either tier).
    pub fn total_hits(&self) -> u64 {
        self.memo_hits
            + self.empty_rule_hits
            + self.overflow_rule_hits
            + self.filter_rule_hits
            + self.count_memo_hits
            + self.l2_hits
    }

    /// Credit one L1 hit to the rule that answered it.
    fn credit(&mut self, rule: Rule) {
        *match rule {
            Rule::Memo => &mut self.memo_hits,
            Rule::CountMemo => &mut self.count_memo_hits,
            Rule::Empty => &mut self.empty_rule_hits,
            Rule::Overflow => &mut self.overflow_rule_hits,
            Rule::Filter => &mut self.filter_rule_hits,
        } += 1;
    }
}

/// FNV-1a: the hash of the index's maps. Cheap on the short structured
/// keys this cache stores; DoS resistance is not a concern because every
/// key comes from our own walkers.
pub(crate) struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        // FNV-1a offset basis — starting from 0 would absorb leading zero
        // bytes and degrade bucket distribution.
        FnvHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FnvMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FnvHasher>>;

/// A set of predicate-sets supporting subset/superset queries via a
/// per-predicate inverted index. Every stored set carries the site-clock
/// stamp it was learned at, so an inference can report the causal floor
/// of its witness.
#[derive(Debug, Default)]
struct ContainmentSet {
    queries: Vec<ConjunctiveQuery>,
    /// Learn-time stamps, parallel to `queries`.
    stamps: Vec<u64>,
    /// predicate → indices of stored queries containing it.
    by_pred: FnvMap<Predicate, Vec<u32>>,
    /// The stored empty query, if any — a subset of everything, and
    /// invisible to the predicate index above, so subset searches fall
    /// back to it explicitly.
    empty: Option<(ConjunctiveQuery, u64)>,
}

impl ContainmentSet {
    fn insert(&mut self, q: &ConjunctiveQuery, at: u64) {
        if q.is_empty() {
            self.empty = Some((q.clone(), at));
            return;
        }
        let ix = self.queries.len() as u32;
        for p in q.predicates() {
            self.by_pred.entry(*p).or_default().push(ix);
        }
        self.queries.push(q.clone());
        self.stamps.push(at);
    }

    fn len(&self) -> usize {
        self.queries.len() + usize::from(self.empty.is_some())
    }

    /// Is some stored set a subset of `q`'s predicates?
    fn any_subset_of(&self, q: &ConjunctiveQuery) -> bool {
        self.find_subset_of(q).is_some()
    }

    /// Find a stored set that is a subset of `q`'s predicates, with its
    /// learn-time stamp.
    ///
    /// Every stored non-trivial subset shares at least one predicate with
    /// `q`, so the candidates are exactly the entries of `q`'s predicates'
    /// posting lists. They are scanned smallest-posting-first and tested in
    /// place — no candidate union is ever materialized, and the first hit
    /// returns immediately. A candidate sharing several predicates with `q`
    /// may be tested more than once; the duplicate work is bounded by what
    /// the old extend/sort/dedup pass also paid, without its allocation.
    /// The stored empty query (a subset of everything) is the fallback when
    /// no indexed candidate matches.
    fn find_subset_of(&self, q: &ConjunctiveQuery) -> Option<(&ConjunctiveQuery, u64)> {
        let mut lists: Vec<&[u32]> = q
            .predicates()
            .iter()
            .filter_map(|p| self.by_pred.get(p).map(Vec::as_slice))
            .collect();
        lists.sort_unstable_by_key(|l| l.len());
        for list in lists {
            for &ix in list {
                let cand = &self.queries[ix as usize];
                if q.is_refinement_of(cand) {
                    return Some((cand, self.stamps[ix as usize]));
                }
            }
        }
        self.empty.as_ref().map(|(q, at)| (q, *at))
    }

    /// Is `q` a subset of some stored set (i.e. does a stored superset
    /// exist)?
    fn any_superset_of(&self, q: &ConjunctiveQuery) -> bool {
        self.find_superset_of(q).is_some()
    }

    /// Find a stored superset of `q`, with its learn-time stamp.
    fn find_superset_of(&self, q: &ConjunctiveQuery) -> Option<(&ConjunctiveQuery, u64)> {
        if q.is_empty() {
            if let Some((eq, at)) = self.empty.as_ref() {
                return Some((eq, *at));
            }
            return self.queries.first().map(|first| (first, self.stamps[0]));
        }
        // A superset must contain *every* predicate of q, so scanning the
        // smallest of q's posting lists covers all candidates.
        let smallest = q
            .predicates()
            .iter()
            .map(|p| self.by_pred.get(p).map_or(&[][..], Vec::as_slice))
            .min_by_key(|l| l.len())
            .expect("non-empty query has predicates");
        smallest
            .iter()
            .find(|&&ix| self.queries[ix as usize].is_refinement_of(q))
            .map(|&ix| (&self.queries[ix as usize], self.stamps[ix as usize]))
    }

    fn clear(&mut self) {
        self.queries.clear();
        self.stamps.clear();
        self.by_pred.clear();
        self.empty = None;
    }
}

/// What an eviction pass had to shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Eviction {
    /// Capacity not reached; nothing evicted.
    None,
    /// Rederivable layers (memo, rule-4 rows, oldest counts) made room;
    /// the empty/overflow containment facts survived.
    Layered,
    /// Containment facts alone busted the bound: cold restart of the index.
    ColdRestart,
}

/// Which inference rule answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// Rule 1: the exact classification was memoized.
    Memo,
    /// The exact count was memoized.
    CountMemo,
    /// Rule 2: empty-subset.
    Empty,
    /// Rule 3: overflow-superset.
    Overflow,
    /// Rule 4: valid-ancestor filtering.
    Filter,
}

/// One containment index: the L1 tier, or the L2 tier's facts. Memo and
/// count values carry the stamp of the fact that produced them.
///
/// `V` is what rule 4 keeps per valid query: the complete rows in L1. The
/// L2 tier keeps nothing there; its rows stay in its log index until rule
/// 4 first needs them (see [`L2Tier`]).
#[derive(Debug)]
struct HistoryInner<V = Arc<[Row]>> {
    /// Rule 1: exact memo of classifications (+ rows for valid), stamped.
    /// Only L1 fills it; L2's exact repeats are caught by rules 2–4, which
    /// include equality.
    memo: FnvMap<ConjunctiveQuery, (Classified, u64)>,
    /// Rule 2 support: known-empty predicate sets (kept minimal-ish).
    empties: ContainmentSet,
    /// Rule 3 support: known-overflowing predicate sets (kept maximal-ish).
    overflows: ContainmentSet,
    /// Rule 4 support: known-valid queries, each with what `V` keeps.
    valids: ContainmentSet,
    valid_rows: FnvMap<ConjunctiveQuery, V>,
    /// Count memo, stamped (exact counts learned from valid/empty
    /// responses are inserted here too).
    counts: FnvMap<ConjunctiveQuery, (u64, u64)>,
    /// Insertion order of `counts` keys (oldest first), so count pressure
    /// evicts the stalest memoized counts instead of the whole index.
    count_order: std::collections::VecDeque<ConjunctiveQuery>,
}

impl<V> Default for HistoryInner<V> {
    fn default() -> Self {
        HistoryInner {
            memo: FnvMap::default(),
            empties: ContainmentSet::default(),
            overflows: ContainmentSet::default(),
            valids: ContainmentSet::default(),
            valid_rows: FnvMap::default(),
            counts: FnvMap::default(),
            count_order: std::collections::VecDeque::new(),
        }
    }
}

const EMPTY: Classified = Classified {
    class: Classification::Empty,
    rows: None,
};

const OVERFLOW: Classified = Classified {
    class: Classification::Overflow,
    rows: None,
};

/// Rule 4's answer: the rows of a complete valid ancestor that match
/// `query`, or empty when none does.
fn filter<'a>(query: &ConjunctiveQuery, rows: impl Iterator<Item = &'a Row>) -> Classified {
    let filtered: Vec<Row> = rows.filter(|r| query.matches(&r.values)).cloned().collect();
    if filtered.is_empty() {
        EMPTY
    } else {
        Classified {
            class: Classification::Valid,
            rows: Some(Arc::from(filtered)),
        }
    }
}

impl<V> HistoryInner<V> {
    fn entries(&self) -> usize {
        // Everything that grows: the exact-match maps and the containment
        // sets. Counting the latter keeps the capacity contract a real
        // memory bound — a long run over a huge query space must not grow
        // `overflows`/`empties`/`valids` without limit.
        self.memo.len()
            + self.counts.len()
            + self.empties.len()
            + self.overflows.len()
            + self.valids.len()
    }

    /// Record a count, tracking first-insert order for layered eviction.
    fn learn_count(&mut self, query: &ConjunctiveQuery, count: u64, at: u64) {
        if self.counts.insert(query.clone(), (count, at)).is_none() {
            self.count_order.push_back(query.clone());
        }
    }

    /// Learn that `query` is empty, known at `at`.
    fn learn_empty(&mut self, query: &ConjunctiveQuery, at: u64) {
        // Keep the set minimal-ish: skip a fact already implied.
        if !self.empties.any_subset_of(query) {
            self.empties.insert(query, at);
        }
        self.learn_count(query, 0, at);
    }

    /// Learn that `query` overflows, known at `at`.
    fn learn_overflow(&mut self, query: &ConjunctiveQuery, at: u64) {
        if !self.overflows.any_superset_of(query) {
            self.overflows.insert(query, at);
        }
    }

    /// Learn that `query` is valid with `count` rows, known at `at`; the
    /// first such fact for a query keeps `rows`.
    fn learn_valid(&mut self, query: &ConjunctiveQuery, count: u64, rows: V, at: u64) {
        self.learn_count(query, count, at);
        if !self.valid_rows.contains_key(query) {
            self.valids.insert(query, at);
            self.valid_rows.insert(query.clone(), rows);
        }
    }

    /// The witness rules 2–4 find for `query`, in rule order: the rule
    /// that fires, the stored query, and its stamp.
    fn witness(&self, query: &ConjunctiveQuery) -> Option<(Rule, &ConjunctiveQuery, u64)> {
        if let Some((w, at)) = self.empties.find_subset_of(query) {
            return Some((Rule::Empty, w, at));
        }
        if let Some((w, at)) = self.overflows.find_superset_of(query) {
            return Some((Rule::Overflow, w, at));
        }
        let (w, at) = self.valids.find_subset_of(query)?;
        Some((Rule::Filter, w, at))
    }

    /// The count lookup: the count memo, then the empty-subset rule.
    fn count_of(&self, query: &ConjunctiveQuery) -> Option<(u64, u64, Rule)> {
        if let Some(&(c, at)) = self.counts.get(query) {
            return Some((c, at, Rule::CountMemo));
        }
        let (_, at) = self.empties.find_subset_of(query)?;
        Some((0, at, Rule::Empty))
    }

    /// Make room for one charged insert, shedding state in layers of
    /// increasing preciousness. The memo goes first — every entry is
    /// rederivable, from the containment sets or by re-asking. Next the
    /// rule-4 support (`valids` + `valid_rows`; without its rows a valid
    /// ancestor has no inference power, so the two always go together —
    /// the exact counts those rows taught stay in `counts`). Then the
    /// oldest memoized counts, one by one. The empty/overflow containment
    /// facts — each one a budgeted page fetch whose classification powers
    /// rules 2 and 3 — are dropped only in the final cold restart, when
    /// they alone bust the bound.
    fn evict_for_insert(&mut self, capacity: usize) -> Eviction {
        if self.entries() < capacity {
            return Eviction::None;
        }
        self.memo.clear();
        if self.entries() >= capacity {
            self.valids.clear();
            self.valid_rows.clear();
        }
        while self.entries() >= capacity {
            let Some(oldest) = self.count_order.pop_front() else {
                break;
            };
            self.counts.remove(&oldest);
        }
        if self.entries() >= capacity {
            self.clear();
            return Eviction::ColdRestart;
        }
        Eviction::Layered
    }

    fn clear(&mut self) {
        self.memo.clear();
        self.empties.clear();
        self.overflows.clear();
        self.valids.clear();
        self.valid_rows.clear();
        self.counts.clear();
        self.count_order.clear();
    }
}

impl HistoryInner {
    /// Learn one fact: `query` classified as `fact`, known at site-clock
    /// `at`. Feeds the containment sets of rules 2–4 and the count memo.
    fn learn(&mut self, query: &ConjunctiveQuery, fact: &Classified, at: u64) {
        match fact.class {
            Classification::Empty => self.learn_empty(query, at),
            Classification::Overflow => self.learn_overflow(query, at),
            Classification::Valid => {
                let rows = fact.rows.as_ref().expect("valid carries rows");
                self.learn_valid(query, rows.len() as u64, Arc::clone(rows), at);
            }
        }
    }

    /// Rules 2–4 against this index, in rule order: the answer, the stamp
    /// of the witness that gave it, and the rule that fired.
    fn infer(&self, query: &ConjunctiveQuery) -> Option<(Classified, u64, Rule)> {
        let (rule, witness, at) = self.witness(query)?;
        let answer = match rule {
            Rule::Empty => EMPTY,
            Rule::Overflow => OVERFLOW,
            _ => filter(query, self.valid_rows[witness].iter()),
        };
        Some((answer, at, rule))
    }
}

/// The L2 tier: its log's index, and a containment index over the facts
/// the log index holds.
///
/// The containment index stamps each fact with its position in the log
/// index, not with its learn time: an L2 answer always floors at `0`, and
/// the position is how a lookup finds the witness's rows. A valid fact's
/// rows are decoded the first time rule 4 selects it, or the count lookup
/// answers from the count it taught. A fact whose rows turn out unusable
/// leaves the log index, the containment index is rebuilt without it, and
/// the lookup runs again — so every answer is the one the tier would give
/// had attach skipped that fact.
#[derive(Debug)]
struct L2Tier {
    log: L2Index,
    index: HistoryInner<()>,
}

impl L2Tier {
    fn new(log: L2Index) -> Self {
        let mut tier = L2Tier {
            log,
            index: HistoryInner::default(),
        };
        tier.rebuild();
        tier
    }

    /// Absorb the log index's facts in log order.
    fn rebuild(&mut self) {
        let mut index = HistoryInner::default();
        for (id, (query, shape)) in self.log.facts().enumerate() {
            let id = id as u64;
            match shape {
                Shape::Count(c) => index.learn_count(query, c, id),
                Shape::Empty => index.learn_empty(query, id),
                Shape::Overflow => index.learn_overflow(query, id),
                Shape::Valid(rows) => index.learn_valid(query, rows, (), id),
            }
        }
        self.index = index;
    }

    /// Drop fact `id`, found unusable, and rebuild without it.
    fn drop_fact(&mut self, id: usize, stats: &mut HistoryStats) {
        self.log.drop_fact(id);
        stats.l2_skipped = self.log.skipped();
        self.rebuild();
    }

    /// Rules 2–4 against the tier, decoding a valid witness's rows on
    /// first use.
    fn infer(&mut self, query: &ConjunctiveQuery, stats: &mut HistoryStats) -> Option<Classified> {
        loop {
            let (rule, _, id) = self.index.witness(query)?;
            let id = id as usize;
            match rule {
                Rule::Empty => return Some(EMPTY),
                Rule::Overflow => return Some(OVERFLOW),
                _ => {
                    if let Some(rows) = self.log.rows(id) {
                        return Some(filter(query, rows));
                    }
                    self.drop_fact(id, stats);
                }
            }
        }
    }

    /// The count lookup against the tier. A count a valid fact taught
    /// holds only if that fact's rows resolve.
    fn count_of(&mut self, query: &ConjunctiveQuery, stats: &mut HistoryStats) -> Option<u64> {
        loop {
            let (count, id, rule) = self.index.count_of(query)?;
            let id = id as usize;
            if rule == Rule::CountMemo && self.log.is_valid(id) && self.log.rows(id).is_none() {
                self.drop_fact(id, stats);
                continue;
            }
            return Some(count);
        }
    }
}

/// Everything the executor's one lock guards: both tiers' indexes and the
/// counters they feed.
#[derive(Debug)]
struct History {
    /// Entry bound of the L1 index.
    capacity: usize,
    l1: HistoryInner,
    /// The L2 tier, indexed from its log at attach time. It is never
    /// evicted; only L1 misses consult it.
    l2: Option<L2Tier>,
    stats: HistoryStats,
    requests: u64,
}

impl History {
    /// Make room in L1 for one charged insert, counting the pass.
    fn make_room(&mut self) {
        match self.l1.evict_for_insert(self.capacity) {
            Eviction::None => {}
            Eviction::Layered => self.stats.evictions += 1,
            Eviction::ColdRestart => {
                self.stats.evictions += 1;
                self.stats.cold_restarts += 1;
            }
        }
    }

    /// Learn a fact into L1, memo included, stamped `at`.
    fn learn_l1(&mut self, query: &ConjunctiveQuery, fact: &Classified, at: u64) {
        self.make_room();
        self.l1.learn(query, fact, at);
        self.l1.memo.insert(query.clone(), (fact.clone(), at));
    }
}

/// A [`QueryExecutor`] that answers from history whenever inference allows.
///
/// Thread-safe: concurrent walkers share one cache (`&CachingExecutor`
/// implements `QueryExecutor` via the blanket impl). The L1 index, the L2
/// index and the hit counters live behind one lock, held for a whole
/// lookup and released while a miss is fetched from the interface. Every
/// run has one driver thread, so the lock is uncontended in practice, and
/// a single index makes every answer, stamp and counter a function of the
/// query history alone.
#[derive(Debug)]
pub struct CachingExecutor<F> {
    interface: F,
    /// Interface charges that predate this executor (see
    /// `DirectExecutor` — sequential samplers report only their own cost).
    charge_baseline: u64,
    /// The persistent tier's log — the write-behind target — when attached
    /// ([`CachingExecutor::with_l2`]).
    l2_log: Option<Arc<L2Log>>,
    history: Mutex<History>,
}

/// Which tier answered a history hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// The in-memory tier.
    L1,
    /// The persistent disk-backed tier.
    L2,
}

/// A history hit with its causal provenance: the answer, the site-clock
/// time the witness that answered it was learned at (`0` for facts that
/// predate the run — i.e. everything loaded from L2), and the tier that
/// answered.
#[derive(Debug, Clone)]
pub struct HistoryHit {
    /// The classification answered from history.
    pub answer: Classified,
    /// Learn time of the answering witness on the run's site clock (ms).
    pub learned_at: u64,
    /// Tier that answered.
    pub tier: HitTier,
}

/// Default cache capacity (entries across memo + counts).
pub const DEFAULT_CACHE_CAPACITY: usize = 250_000;

impl<F: FormInterface> CachingExecutor<F> {
    /// Wrap an interface with an inference cache of default capacity.
    pub fn new(interface: F) -> Self {
        Self::with_capacity(interface, DEFAULT_CACHE_CAPACITY)
    }

    /// Wrap with an explicit entry capacity.
    ///
    /// When the L1 index reaches `capacity`, it sheds state in layers of
    /// increasing preciousness — memo, then rule-4 rows, then the oldest
    /// memoized counts — and cold-restarts only when the empty/overflow
    /// containment facts alone bust the bound (each of those cost a
    /// budgeted page fetch to learn). The eviction counters record both
    /// kinds of pass.
    pub fn with_capacity(interface: F, capacity: usize) -> Self {
        let charge_baseline = interface.queries_issued();
        CachingExecutor {
            interface,
            charge_baseline,
            l2_log: None,
            history: Mutex::new(History {
                capacity,
                l1: HistoryInner::default(),
                l2: None,
                stats: HistoryStats::default(),
                requests: 0,
            }),
        }
    }

    /// Attach a persistent L2 tier: index the log's facts without
    /// decoding a row (counting the facts indexed and the lines that are
    /// no record), consult the tier on every L1 miss, and write newly
    /// learned facts behind to the log.
    ///
    /// A valid fact's rows are decoded the first time a lookup needs them.
    /// A fact that proves unusable then is dropped and counted in
    /// [`HistoryStats::l2_skipped`], and the lookup answers as if it had
    /// never been indexed.
    ///
    /// Facts indexed here were learned before this run began, so history
    /// hits they answer carry a causal floor of `0`.
    pub fn with_l2(mut self, log: Arc<L2Log>) -> Self {
        let history = self.history.get_mut();
        // An unreadable log directory warm-starts nothing; the executor
        // still works (and still tries to write behind).
        let index = log.attach().unwrap_or_default();
        history.stats.l2_loads = index.len() as u64;
        history.stats.l2_skipped = index.skipped();
        history.l2 = Some(L2Tier::new(index));
        self.l2_log = Some(log);
        self
    }

    /// The attached L2 log, if any.
    pub fn l2_log(&self) -> Option<&Arc<L2Log>> {
        self.l2_log.as_ref()
    }

    /// The wrapped interface.
    pub fn interface(&self) -> &F {
        &self.interface
    }

    /// Hit/miss counters.
    pub fn history_stats(&self) -> HistoryStats {
        self.history.lock().stats
    }

    /// Non-blocking half of [`QueryExecutor::classify`] for cooperative
    /// drivers: count the request and answer from history when inference
    /// allows, with causal provenance — which tier answered, and the
    /// site-clock time the answering witness was learned at. A cooperative
    /// driver resuming a walker on this hit may floor the walker's clock at
    /// [`HistoryHit::learned_at`] instead of the conservative run-knowledge
    /// floor; an L2-answered fact was known before the run began and floors
    /// at `0`.
    ///
    /// `None` means the query must be fetched over the wire — the miss is
    /// already counted, and the wire result must be fed back through
    /// [`record_response_at`](Self::record_response_at) so the history
    /// keeps learning. The pair is counter-for-counter equivalent to one
    /// `classify` call; the only difference is that the wire fetch happens
    /// outside the cache, where a single-threaded driver can keep hundreds
    /// of them in flight.
    pub fn try_classify_stamped(&self, query: &ConjunctiveQuery) -> Option<HistoryHit> {
        let mut guard = self.history.lock();
        let h = &mut *guard;
        h.requests += 1;
        if let Some((answer, learned_at)) = h.l1.memo.get(query) {
            h.stats.credit(Rule::Memo);
            return Some(HistoryHit {
                answer: answer.clone(),
                learned_at: *learned_at,
                tier: HitTier::L1,
            });
        }
        if let Some((answer, learned_at, rule)) = h.l1.infer(query) {
            h.stats.credit(rule);
            // Memoize the derived answer, so re-asking is a memo hit
            // instead of another containment search. Containment sets are
            // left untouched (this result adds no inference power), and a
            // full index is never *evicted* for a derived entry — that would
            // trade learned facts for a convenience cache. At capacity the
            // answer simply stays un-memoized.
            if h.l1.entries() < h.capacity {
                h.l1.memo
                    .insert(query.clone(), (answer.clone(), learned_at));
            }
            return Some(HistoryHit {
                answer,
                learned_at,
                tier: HitTier::L1,
            });
        }
        match h.l2.as_mut().map(|l2| l2.infer(query, &mut h.stats)) {
            Some(Some(answer)) => {
                h.stats.l2_hits += 1;
                // Promote into L1 — at floor 0 (the fact predates the run)
                // and without re-appending to the log (the fact is already
                // persisted; a write-behind here would duplicate it on
                // every warm run).
                h.learn_l1(query, &answer, 0);
                return Some(HistoryHit {
                    answer,
                    learned_at: 0,
                    tier: HitTier::L2,
                });
            }
            Some(None) => h.stats.l2_misses += 1,
            None => {}
        }
        h.stats.misses += 1;
        None
    }

    /// Feed back a wire-fetched response learned at `at_ms` on the run's
    /// site clock, for a query
    /// [`try_classify_stamped`](Self::try_classify_stamped) missed on. The
    /// stamp travels with the fact: later history hits it answers report it
    /// as their causal floor, and it is persisted with the fact when an L2
    /// log is attached.
    pub fn record_response_at(&self, query: &ConjunctiveQuery, result: &Classified, at_ms: u64) {
        let mut h = self.history.lock();
        h.learn_l1(query, result, at_ms);
        self.write_behind(&mut h.stats, || match result.class {
            Classification::Empty => FactRecord::empty(query.clone(), at_ms),
            Classification::Overflow => FactRecord::overflow(query.clone(), at_ms),
            Classification::Valid => {
                let rows = result.rows.as_ref().expect("valid carries rows");
                FactRecord::valid(query.clone(), Arc::clone(rows), at_ms)
            }
        });
    }

    /// Write one wire-learned fact behind to the attached L2 log, if any.
    /// Log I/O errors are swallowed — persistence is an optimization, and
    /// a full disk must never fail a sampling run.
    fn write_behind(&self, stats: &mut HistoryStats, record: impl FnOnce() -> FactRecord) {
        if let Some(log) = &self.l2_log {
            if log.append(&record()).is_ok() {
                stats.l2_puts += 1;
            }
        }
    }
}

impl<F: FormInterface> QueryExecutor for CachingExecutor<F> {
    fn classify(&self, query: &ConjunctiveQuery) -> Result<Classified, InterfaceError> {
        if let Some(hit) = self.try_classify_stamped(query) {
            return Ok(hit.answer);
        }
        let result = Classified::from_response(self.interface.execute_for_sampler(query)?);
        self.record_response_at(query, &result, 0);
        Ok(result)
    }

    fn count(&self, query: &ConjunctiveQuery) -> Result<u64, InterfaceError> {
        {
            let mut guard = self.history.lock();
            let h = &mut *guard;
            h.requests += 1;
            if let Some((c, at, rule)) = h.l1.count_of(query) {
                h.stats.credit(rule);
                // Memoize a derived zero (when there is room) so repeat
                // probes become count-memo hits.
                if rule == Rule::Empty && h.l1.entries() < h.capacity {
                    h.l1.learn_count(query, 0, at);
                }
                return Ok(c);
            }
            // L2: a persisted count (or empty fact) answers without a
            // probe; promote it into L1 at floor 0.
            match h.l2.as_mut().map(|l2| l2.count_of(query, &mut h.stats)) {
                Some(Some(c)) => {
                    h.stats.l2_hits += 1;
                    h.make_room();
                    h.l1.learn_count(query, c, 0);
                    return Ok(c);
                }
                Some(None) => h.stats.l2_misses += 1,
                None => {}
            }
            h.stats.misses += 1;
        }
        let c = self.interface.count(query)?;
        let mut h = self.history.lock();
        h.make_room();
        h.l1.learn_count(query, c, 0);
        self.write_behind(&mut h.stats, || FactRecord::count(query.clone(), c, 0));
        Ok(c)
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
        self.history.lock().requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_model::AttrId;
    use hdsampler_workload::figure1_db;

    fn q(pairs: &[(u16, u16)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_pairs(pairs.iter().map(|&(a, v)| (AttrId(a), v))).unwrap()
    }

    #[test]
    fn memo_absorbs_repeats() {
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db);
        for _ in 0..5 {
            exec.classify(&q(&[(0, 0)])).unwrap();
        }
        assert_eq!(exec.queries_issued(), 1);
        assert_eq!(exec.requests(), 5);
        assert_eq!(exec.history_stats().memo_hits, 4);
    }

    #[test]
    fn empty_subset_rule() {
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db);
        // a1=1 ∧ a2=0 is empty.
        exec.classify(&q(&[(0, 1), (1, 0)])).unwrap();
        // Its refinement must be answered without a charge.
        let before = exec.queries_issued();
        let c = exec.classify(&q(&[(0, 1), (1, 0), (2, 1)])).unwrap();
        assert_eq!(c.class, Classification::Empty);
        assert_eq!(exec.queries_issued(), before);
        assert_eq!(exec.history_stats().empty_rule_hits, 1);
    }

    #[test]
    fn overflow_superset_rule() {
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db);
        // a1=0 ∧ a2=1 overflows (t2, t3 behind k=1).
        exec.classify(&q(&[(0, 0), (1, 1)])).unwrap();
        // The broader query a2=1 must be inferred overflowing, free.
        let before = exec.queries_issued();
        let c = exec.classify(&q(&[(1, 1)])).unwrap();
        assert_eq!(c.class, Classification::Overflow);
        assert_eq!(exec.queries_issued(), before);
        assert_eq!(exec.history_stats().overflow_rule_hits, 1);
    }

    #[test]
    fn valid_ancestor_filter_rule() {
        let db = figure1_db(2); // k=2: a1=0 ∧ a2=1 is now valid (t2, t3).
        let exec = CachingExecutor::new(&db);
        let parent = exec.classify(&q(&[(0, 0), (1, 1)])).unwrap();
        assert_eq!(parent.class, Classification::Valid);
        assert_eq!(parent.result_size(), 2);

        let before = exec.queries_issued();
        // Refinement a3=0 isolates t2 — derivable by local filtering.
        let child = exec.classify(&q(&[(0, 0), (1, 1), (2, 0)])).unwrap();
        assert_eq!(child.class, Classification::Valid);
        assert_eq!(child.result_size(), 1);
        assert_eq!(child.rows.unwrap()[0].values.as_ref(), &[0, 1, 0]);
        assert_eq!(exec.queries_issued(), before, "derived without a charge");
        assert_eq!(exec.history_stats().filter_rule_hits, 1);
    }

    #[test]
    fn valid_ancestor_filter_to_empty() {
        // a1=0 ∧ a2=0 holds only t1 = (0,0,1); refining with a3=0 filters
        // the cached single row away, deriving Empty locally.
        let db = figure1_db(2);
        let exec = CachingExecutor::new(&db);
        let parent = exec.classify(&q(&[(0, 0), (1, 0)])).unwrap();
        assert_eq!(parent.class, Classification::Valid);

        let before = exec.queries_issued();
        let derived = exec.classify(&q(&[(0, 0), (1, 0), (2, 0)])).unwrap();
        assert_eq!(derived.class, Classification::Empty);
        assert!(derived.rows.is_none());
        assert_eq!(exec.queries_issued(), before, "filtered locally");
        assert_eq!(exec.history_stats().filter_rule_hits, 1);
    }

    #[test]
    fn inference_agrees_with_direct_evaluation_exhaustively() {
        // Ask every query of depth ≤ 3 twice — once against a cold direct
        // interface, once against a warmed cache — and compare classes and
        // row sets.
        for k in [1usize, 2, 3] {
            let db_direct = figure1_db(k);
            let db_cached = figure1_db(k);
            let cached = CachingExecutor::new(&db_cached);
            let direct = crate::executor::DirectExecutor::new(&db_direct);

            let mut all_queries = vec![ConjunctiveQuery::empty()];
            for a in 0..3u16 {
                for v in 0..2u16 {
                    let mut next = Vec::new();
                    for base in &all_queries {
                        if !base.binds(AttrId(a)) {
                            next.push(base.refine(AttrId(a), v).unwrap());
                        }
                    }
                    all_queries.extend(next);
                }
            }
            // Two passes: the second is served heavily from inference.
            for _pass in 0..2 {
                for query in &all_queries {
                    let d = direct.classify(query).unwrap();
                    let c = cached.classify(query).unwrap();
                    assert_eq!(d.class, c.class, "k={k} q={query:?}");
                    let mut dk: Vec<u64> = d
                        .rows
                        .iter()
                        .flat_map(|r| r.iter().map(|x| x.key))
                        .collect();
                    let mut ck: Vec<u64> = c
                        .rows
                        .iter()
                        .flat_map(|r| r.iter().map(|x| x.key))
                        .collect();
                    dk.sort_unstable();
                    ck.sort_unstable();
                    assert_eq!(dk, ck, "k={k} q={query:?}");
                }
            }
            assert!(
                cached.queries_issued() < direct.queries_issued(),
                "cache must save charges (k={k}): {} vs {}",
                cached.queries_issued(),
                direct.queries_issued()
            );
        }
    }

    #[test]
    fn count_memo_and_learned_counts() {
        use hdsampler_hidden_db::{CountMode, HiddenDb};
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
            .result_limit(2)
            .count_mode(CountMode::Exact);
        for vals in [[0u16, 0], [0, 1], [1, 0]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        let exec = CachingExecutor::new(&db);

        assert_eq!(exec.count(&q(&[(0, 0)])).unwrap(), 2);
        assert_eq!(exec.count(&q(&[(0, 0)])).unwrap(), 2);
        assert_eq!(exec.queries_issued(), 1, "second probe memoized");

        // A valid classification teaches the cache the exact count.
        exec.classify(&q(&[(0, 1)])).unwrap();
        let before = exec.queries_issued();
        assert_eq!(exec.count(&q(&[(0, 1)])).unwrap(), 1);
        assert_eq!(exec.queries_issued(), before, "count learned from rows");
    }

    #[test]
    fn capacity_bound_evicts() {
        let db = figure1_db(1);
        // A tiny bound, so the charged inserts below must trip it.
        let exec = CachingExecutor::with_capacity(&db, 4);
        // 3 attrs × 2 values of depth-1 queries + deeper ones: generate
        // more than 16 distinct queries.
        let mut issued = Vec::new();
        for a in 0..3u16 {
            for v in 0..2u16 {
                issued.push(q(&[(a, v)]));
                for a2 in 0..3u16 {
                    if a2 != a {
                        for v2 in 0..2u16 {
                            issued.push(q(&[(a, v), (a2, v2)]));
                        }
                    }
                }
            }
        }
        for query in &issued {
            let _ = exec.classify(query);
        }
        assert!(
            exec.history_stats().evictions >= 1,
            "capacity must trigger eviction"
        );
        // Still correct after eviction.
        let c = exec.classify(&q(&[(0, 1)])).unwrap();
        assert_eq!(c.class, Classification::Valid);
    }

    #[test]
    fn count_pressure_sheds_layers_not_containment_facts() {
        use hdsampler_hidden_db::{CountMode, HiddenDb};
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .attribute(Attribute::boolean("z"))
            .attribute(Attribute::boolean("w"))
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
            .result_limit(1)
            .count_mode(CountMode::Exact);
        for vals in [[0u16, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0]] {
            b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                .unwrap();
        }
        let db = b.finish();
        // A bound the count flood below must bust.
        let exec = CachingExecutor::with_capacity(&db, 8);

        // Two charged containment facts: x=1 is empty, y=1 overflows.
        assert_eq!(
            exec.classify(&q(&[(0, 1)])).unwrap().class,
            Classification::Empty
        );
        assert_eq!(
            exec.classify(&q(&[(1, 1)])).unwrap().class,
            Classification::Overflow
        );

        // Count flood over z/w: 8 distinct memoized counts on a capacity-8
        // index force layered eviction passes.
        for &(a, v) in &[(2u16, 0u16), (2, 1), (3, 0), (3, 1)] {
            exec.count(&q(&[(a, v)])).unwrap();
        }
        for v in 0..2u16 {
            for w in 0..2u16 {
                exec.count(&q(&[(2, v), (3, w)])).unwrap();
            }
        }

        let stats = exec.history_stats();
        assert!(stats.evictions >= 1, "count flood must bust the bound");
        assert_eq!(
            stats.cold_restarts, 0,
            "containment facts never pay for count pressure"
        );

        // Both facts still answer derived queries without a charge.
        let charged = exec.queries_issued();
        assert_eq!(
            exec.classify(&q(&[(0, 1), (2, 1)])).unwrap().class,
            Classification::Empty,
            "refinement of the empty fact"
        );
        assert_eq!(
            exec.classify(&ConjunctiveQuery::empty()).unwrap().class,
            Classification::Overflow,
            "broadening of the overflow fact"
        );
        assert_eq!(
            exec.count(&q(&[(0, 1), (3, 1)])).unwrap(),
            0,
            "evicted count memo rederives from the surviving empty fact"
        );
        assert_eq!(exec.queries_issued(), charged, "all answered from history");
    }

    #[test]
    fn derived_inferences_never_evict_learned_facts() {
        // An index at capacity skips memoizing derived answers instead of
        // clearing itself: a flood of inferable queries must not wipe the
        // charged facts the inferences derive from.
        let db = figure1_db(1);
        // Capacity 2: the one charged classification below (memo +
        // learned count) fills the index exactly.
        let exec = CachingExecutor::with_capacity(&db, 2);
        // Charge the empty fact a1=1 ∧ a2=0; every refinement of it is
        // thereafter inferable by the empty-subset rule.
        let parent = exec.classify(&q(&[(0, 1), (1, 0)])).unwrap();
        assert_eq!(parent.class, Classification::Empty);
        let charged = exec.queries_issued();
        // Distinct inferable refinements, repeated — the full index must
        // neither evict nor re-charge.
        for _pass in 0..2 {
            for v in 0..2u16 {
                let c = exec.classify(&q(&[(0, 1), (1, 0), (2, v)])).unwrap();
                assert_eq!(c.class, Classification::Empty);
            }
        }
        assert_eq!(
            exec.queries_issued(),
            charged,
            "every refinement must come from the empty rule, not a re-charge"
        );
        assert_eq!(
            exec.history_stats().evictions,
            0,
            "inference must not evict"
        );
        assert_eq!(exec.history_stats().empty_rule_hits, 4);
    }

    #[test]
    fn history_hits_report_exact_learn_time_stamps() {
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db);
        // Wire-learn three facts at distinct site-clock times.
        exec.record_response_at(
            &q(&[(0, 1), (1, 0)]),
            &Classified {
                class: Classification::Empty,
                rows: None,
            },
            0,
        );
        let overflow_q = q(&[(0, 0), (1, 1)]);
        let wired = Classified::from_response(db.execute(&overflow_q).unwrap());
        assert_eq!(wired.class, Classification::Overflow);
        exec.record_response_at(&overflow_q, &wired, 70);
        let valid_q = q(&[(0, 0), (1, 0)]);
        let wired = Classified::from_response(db.execute(&valid_q).unwrap());
        assert_eq!(wired.class, Classification::Valid);
        exec.record_response_at(&valid_q, &wired, 135);

        // Rule 2: the empty fact (stamp 0) answers its refinement.
        let hit = exec
            .try_classify_stamped(&q(&[(0, 1), (1, 0), (2, 1)]))
            .unwrap();
        assert_eq!(hit.answer.class, Classification::Empty);
        assert_eq!((hit.learned_at, hit.tier), (0, HitTier::L1));
        // Rule 3: the overflow fact carries its 70ms stamp.
        let hit = exec.try_classify_stamped(&q(&[(1, 1)])).unwrap();
        assert_eq!(hit.answer.class, Classification::Overflow);
        assert_eq!(hit.learned_at, 70);
        // Rule 4: filtering the valid fact's rows carries its 135ms stamp.
        let hit = exec
            .try_classify_stamped(&q(&[(0, 0), (1, 0), (2, 1)]))
            .unwrap();
        assert_eq!(hit.answer.class, Classification::Valid);
        assert_eq!(hit.learned_at, 135);
        // Rule 1: the exact memo replays the original stamp too.
        let hit = exec.try_classify_stamped(&valid_q).unwrap();
        assert_eq!(hit.learned_at, 135);
        // The derived rule-4 answer was memoized with its witness stamp.
        let hit = exec
            .try_classify_stamped(&q(&[(0, 0), (1, 0), (2, 1)]))
            .unwrap();
        assert_eq!((hit.learned_at, hit.tier), (135, HitTier::L1));
    }

    fn l2_tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hds-hist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn figure1_log(root: &std::path::Path) -> Arc<crate::l2::L2Log> {
        let db = figure1_db(1);
        let fp = crate::l2::SiteFingerprint::derive(db.schema(), 1, db.supports_count(), None);
        Arc::new(crate::l2::L2Log::open(root, fp).unwrap())
    }

    #[test]
    fn l2_warm_start_answers_without_wire_and_promotes() {
        let root = l2_tmpdir("warm");
        // Cold run: wire-learn facts, written behind to the log.
        {
            let db = figure1_db(1);
            let exec = CachingExecutor::new(&db).with_l2(figure1_log(&root));
            exec.classify(&q(&[(0, 1), (1, 0)])).unwrap(); // empty
            exec.classify(&q(&[(0, 0), (1, 1)])).unwrap(); // overflow
            exec.classify(&q(&[(0, 0), (1, 0)])).unwrap(); // valid
            let stats = exec.history_stats();
            assert_eq!(stats.l2_puts, 3, "each wire fact written behind");
            assert_eq!(stats.l2_loads, 0, "nothing to load on the first run");
        }
        // Warm run: a fresh executor over the same log answers the same
        // queries — and their inferable relatives — without the wire.
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db).with_l2(figure1_log(&root));
        assert_eq!(exec.history_stats().l2_loads, 3);
        let hit = exec.try_classify_stamped(&q(&[(0, 1), (1, 0)])).unwrap();
        assert_eq!(hit.answer.class, Classification::Empty);
        assert_eq!((hit.learned_at, hit.tier), (0, HitTier::L2));
        // The promoted fact answers its refinement from L1 — at the same
        // pre-run floor.
        let hit = exec
            .try_classify_stamped(&q(&[(0, 1), (1, 0), (2, 0)]))
            .unwrap();
        assert_eq!(hit.answer.class, Classification::Empty);
        assert_eq!((hit.learned_at, hit.tier), (0, HitTier::L1));
        // Rule-4 filtering works from the persisted rows as well.
        let hit = exec
            .try_classify_stamped(&q(&[(0, 0), (1, 0), (2, 1)]))
            .unwrap();
        assert_eq!(hit.answer.class, Classification::Valid);
        assert_eq!(hit.tier, HitTier::L2);
        // And a broadening of the persisted overflow fact infers from L2.
        let hit = exec.try_classify_stamped(&q(&[(1, 1)])).unwrap();
        assert_eq!(hit.answer.class, Classification::Overflow);
        assert_eq!(hit.tier, HitTier::L2);
        assert_eq!(exec.queries_issued(), 0, "warm run never touched the wire");
        let stats = exec.history_stats();
        assert_eq!(stats.l2_hits, 3);
        assert_eq!(stats.l2_puts, 0, "promotions must not re-append to the log");
        // The promoted facts now answer from L1.
        let hit = exec.try_classify_stamped(&q(&[(0, 1), (1, 0)])).unwrap();
        assert_eq!(hit.tier, HitTier::L1);
        assert_eq!(hit.learned_at, 0, "promoted at the pre-run floor");
        // And the log still holds exactly the cold run's three facts.
        assert_eq!(figure1_log(&root).load().unwrap().len(), 3);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn l2_serves_persisted_counts() {
        use hdsampler_hidden_db::{CountMode, HiddenDb};
        use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
        let schema = SchemaBuilder::new()
            .attribute(Attribute::boolean("x"))
            .attribute(Attribute::boolean("y"))
            .finish()
            .unwrap()
            .into_shared();
        let mk_db = || {
            let mut b = HiddenDb::builder(std::sync::Arc::clone(&schema))
                .result_limit(2)
                .count_mode(CountMode::Exact);
            for vals in [[0u16, 0], [0, 1], [1, 0]] {
                b.push(&Tuple::new(&schema, vals.to_vec(), vec![]).unwrap())
                    .unwrap();
            }
            b.finish()
        };
        let root = l2_tmpdir("counts");
        let mk_log = || {
            let db = mk_db();
            let fp = crate::l2::SiteFingerprint::derive(db.schema(), 2, true, None);
            Arc::new(crate::l2::L2Log::open(&root, fp).unwrap())
        };
        {
            let db = mk_db();
            let exec = CachingExecutor::new(&db).with_l2(mk_log());
            assert_eq!(exec.count(&q(&[(0, 0)])).unwrap(), 2);
            assert_eq!(exec.history_stats().l2_puts, 1);
        }
        let db = mk_db();
        let exec = CachingExecutor::new(&db).with_l2(mk_log());
        assert_eq!(exec.count(&q(&[(0, 0)])).unwrap(), 2);
        assert_eq!(exec.queries_issued(), 0, "count served from L2");
        assert_eq!(exec.history_stats().l2_hits, 1);
        // Promoted: the repeat is an L1 count-memo hit.
        assert_eq!(exec.count(&q(&[(0, 0)])).unwrap(), 2);
        assert_eq!(exec.history_stats().count_memo_hits, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn l2_miss_counters_only_tick_with_a_tier_attached() {
        let db = figure1_db(1);
        let exec = CachingExecutor::new(&db);
        exec.classify(&q(&[(0, 0)])).unwrap();
        let stats = exec.history_stats();
        assert_eq!((stats.l2_hits, stats.l2_misses, stats.l2_puts), (0, 0, 0));

        let root = l2_tmpdir("miss");
        let exec = CachingExecutor::new(&db).with_l2(figure1_log(&root));
        exec.classify(&q(&[(0, 0)])).unwrap();
        let stats = exec.history_stats();
        assert_eq!(stats.l2_misses, 1, "cold L2 missed before the wire fetch");
        assert_eq!(stats.misses, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn valid_root_powers_filter_rule() {
        // n <= k: the empty query is Valid with the complete table; every
        // refinement must then be answered locally from the root's rows
        // (the stored empty ancestor used to be invisible to rule 4).
        let db = figure1_db(10);
        let exec = CachingExecutor::new(&db);
        let root = exec.classify(&ConjunctiveQuery::empty()).unwrap();
        assert_eq!(root.class, Classification::Valid);
        assert_eq!(root.result_size(), 4);

        let before = exec.queries_issued();
        let child = exec.classify(&q(&[(0, 0), (1, 1)])).unwrap();
        assert_eq!(child.class, Classification::Valid);
        assert_eq!(child.result_size(), 2, "t2, t3 filtered from the root page");
        let nothing = exec.classify(&q(&[(0, 1), (1, 0)])).unwrap();
        assert_eq!(nothing.class, Classification::Empty);
        assert_eq!(
            exec.queries_issued(),
            before,
            "descendants of a valid root are derived free"
        );
        assert_eq!(exec.history_stats().filter_rule_hits, 2);
    }
}
