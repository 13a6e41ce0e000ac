//! # hdsampler-core
//!
//! The HDSampler engine (paper §3): the **Sample Generator** — random
//! drill-down walks over the query tree of a conjunctive form interface —
//! and the **Sample Processor** — acceptance–rejection refinement trading
//! efficiency against skew — plus the two reference samplers the paper
//! discusses (BRUTE-FORCE-SAMPLER and the count-weighted sampler of
//! ref [2]) and the query-history cache with containment inference (§3.2).
//!
//! ## Module map
//!
//! | paper concept | module |
//! |---|---|
//! | random drill-down (§2) | [`walk`] |
//! | resumable walk state machine | [`machine`] |
//! | attribute-order scrambling (ref [1]) | [`order`] |
//! | acceptance–rejection + slider (§3.1, §3.3) | [`acceptance`] |
//! | HIDDEN-DB-SAMPLER | [`hds`] |
//! | BRUTE-FORCE-SAMPLER (§3.4) | [`brute`] |
//! | count-weighted sampler (ref [2]) | [`count`] |
//! | query-history savings (§3.2, ref [2]) | [`history`] |
//! | incremental sessions + kill switch (§3.4) | [`session`] |
//!
//! All samplers speak to the hidden database exclusively through
//! [`QueryExecutor`], which either forwards to a
//! [`FormInterface`](hdsampler_model::FormInterface) directly or routes
//! through the inference cache.

pub mod acceptance;
pub mod brute;
pub mod config;
pub mod count;
pub mod executor;
pub mod hds;
pub mod history;
pub mod l2;
pub mod machine;
pub mod order;
pub mod sample;
pub mod session;
pub mod sink;
pub mod stats;
pub mod trace;
pub mod walk;

pub use acceptance::AcceptancePolicy;
pub use brute::BruteForceSampler;
pub use config::SamplerConfig;
pub use count::CountWalkSampler;
pub use executor::{Classified, DirectExecutor, QueryExecutor};
pub use hds::HdsSampler;
pub use history::{CachingExecutor, HistoryHit, HistoryStats, HitTier, DEFAULT_CACHE_CAPACITY};
pub use l2::{
    CompactReport, Fact, FactRecord, L2Config, L2DirStats, L2Log, RetiredLog, SiteFingerprint,
    FINGERPRINT_VERSION,
};
pub use machine::{WalkMachine, WalkStep};
pub use order::OrderStrategy;
pub use sample::{Sample, SampleMeta, SampleSet, Sampler, SamplerError};
pub use session::{SamplingSession, SessionEvent, SessionOutcome, StopReason};
pub use sink::{merged, observe_all, NullSink, SampleEvent, SampleSetSink, SampleSink};
pub use stats::SamplerStats;
pub use trace::{
    parse_exposition, trace_all, MetricsRegistry, MetricsSink, NullTraceSink, TraceEvent, TraceLog,
    TraceSink, Tracer, LATENCY_BUCKETS_MS,
};
