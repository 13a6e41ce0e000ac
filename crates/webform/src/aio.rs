//! Non-blocking fetches over per-connection virtual clocks.
//!
//! The wire in this reproduction is simulated, so "async" here is an
//! explicit poll/completion design rather than a real reactor: a fetch is
//! *submitted* on a virtual connection, stays *pending* until the
//! connection's clock is advanced past its completion time, and is then
//! *completed*. What the design buys is the paper's actual cost model —
//! round trips, not CPU: requests on one connection serialize (HTTP
//! keep-alive semantics), requests on different connections overlap, and
//! the fleet's virtual wall clock is the **maximum** over connection
//! clocks, never the sum over fetches.
//!
//! The one simulated transport,
//! [`ChaosTransport`](crate::chaos::ChaosTransport), rides this machinery
//! (with a fault-free spec it is the plain latency wire) and offers two
//! faces:
//!
//! * the blocking [`Transport`](crate::transport::Transport) face rides
//!   one connection, opened on first use, whatever thread calls it;
//! * the [`AsyncTransport`] face hands out explicit [`ConnId`]s, letting a
//!   single thread pipeline several requests and harvest completions in
//!   any order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use hdsampler_model::InterfaceError;
use parking_lot::Mutex;

/// Identifier of one virtual connection (scraper → site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub(crate) u32);

impl ConnId {
    /// The connection's index within its transport.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Token for one in-flight fetch.
///
/// The handle is affine: polling consumes it and returns it back only while
/// the fetch is still pending, so a completed fetch cannot be polled twice.
/// A handle that is no longer wanted must be passed to
/// [`AsyncTransport::cancel`] — simply dropping it leaves the buffered
/// result parked in the transport until the transport itself drops.
#[derive(Debug)]
pub struct FetchHandle {
    pub(crate) conn: ConnId,
    pub(crate) id: u64,
    pub(crate) ready_at: u64,
    /// Virtual wait between submission and departure (queued behind
    /// earlier requests on the connection); 0 on real wires.
    pub(crate) queued_ms: u64,
    /// Virtual service time of the fetch itself; 0 on real wires.
    pub(crate) service_ms: u64,
}

impl FetchHandle {
    /// The connection this fetch occupies.
    pub fn conn(&self) -> ConnId {
        self.conn
    }

    /// Completion time on the connection's virtual clock (ms).
    pub fn ready_at_ms(&self) -> u64 {
        self.ready_at
    }

    /// Virtual time this fetch spent queued behind earlier requests on
    /// its connection before departing (0 on real wires) — the "queue"
    /// half of the wire-latency split trace spans report.
    pub fn queued_ms(&self) -> u64 {
        self.queued_ms
    }

    /// Virtual service time of the fetch itself, excluding queueing
    /// (0 on real wires).
    pub fn service_ms(&self) -> u64 {
        self.service_ms
    }
}

/// Outcome of a non-blocking [`AsyncTransport::poll`].
#[derive(Debug)]
pub enum FetchPoll {
    /// The connection's clock has not reached the completion time; the
    /// handle is handed back for re-polling (or completion).
    Pending(FetchHandle),
    /// Done: the page body, or the transport error the site produced.
    Ready(Result<String, InterfaceError>),
}

/// A non-blocking page fetcher with explicit poll/completion.
///
/// Contract: `submit` never blocks and never advances any clock; `poll`
/// reports `Ready` only once the connection's clock has passed the fetch's
/// completion time (typically because an earlier `complete` on the same
/// connection advanced it); `complete` advances the connection's clock to
/// the completion time and returns the result.
pub trait AsyncTransport: Send + Sync {
    /// Open a fresh virtual connection.
    fn connect(&self) -> ConnId;

    /// Begin fetching `path` (path + query string) on `conn`.
    ///
    /// Requests submitted on one connection serialize: each departs when
    /// the previous one completes.
    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle;

    /// Check for completion without advancing virtual time.
    fn poll(&self, handle: FetchHandle) -> FetchPoll;

    /// Advance the connection's clock to the fetch's completion time and
    /// take the result.
    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError>;

    /// Abandon an in-flight fetch, releasing its buffered result without
    /// advancing any clock. The connection time the request occupied stays
    /// occupied — the request was sent; cancelling does not un-send it.
    fn cancel(&self, handle: FetchHandle);

    /// Declare that the next submitter on `conn` has observed virtual time
    /// `now_ms` — e.g. a cooperative walker that just consumed a
    /// history-cache hit derived from a completion on *another*
    /// connection. Virtual-clock transports floor `conn`'s future
    /// departures at this time so a request can never depart before the
    /// result that motivated it (causality); real-wire transports ignore
    /// it — physical time cannot be rewound in the first place.
    fn observe_now(&self, _conn: ConnId, _now_ms: u64) {}

    /// Virtual wall clock so far: the maximum completion time any
    /// connection has observed (max over connections, not sum over
    /// fetches).
    fn virtual_elapsed_ms(&self) -> u64;

    /// Whether this wire's clock is virtual (simulated) rather than
    /// physical. Cooperative drivers waiting out a retry backoff can jump
    /// a virtual clock forward for free, but must genuinely wait on a
    /// real one.
    fn wire_is_virtual(&self) -> bool {
        true
    }

    /// Block until at least one in-flight fetch *may* have completed, or
    /// `timeout_ms` elapses — one readiness wait across **all** of this
    /// transport's connections, so a driver with hundreds of pipelined
    /// fetches never has to pick which one to block on.
    ///
    /// Returns `Some(n)` with the number of connections that made
    /// progress (0 on timeout or when nothing is in flight); callers
    /// re-poll their pending handles after any `Some`. Returns `None`
    /// when the transport has no readiness reactor — virtual wires, whose
    /// completions are a clock advance away, and real wires on platforms
    /// without epoll — in which case callers fall back to a blocking
    /// [`complete`](AsyncTransport::complete).
    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        let _ = timeout_ms;
        None
    }
}

impl<A: AsyncTransport + ?Sized> AsyncTransport for &A {
    fn connect(&self) -> ConnId {
        (**self).connect()
    }
    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        (**self).submit(conn, path)
    }
    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        (**self).poll(handle)
    }
    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        (**self).complete(handle)
    }
    fn cancel(&self, handle: FetchHandle) {
        (**self).cancel(handle)
    }
    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        (**self).observe_now(conn, now_ms)
    }
    fn virtual_elapsed_ms(&self) -> u64 {
        (**self).virtual_elapsed_ms()
    }
    fn wire_is_virtual(&self) -> bool {
        (**self).wire_is_virtual()
    }
    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        (**self).wait_ready(timeout_ms)
    }
}

impl<A: AsyncTransport + ?Sized> AsyncTransport for std::sync::Arc<A> {
    fn connect(&self) -> ConnId {
        (**self).connect()
    }
    fn submit(&self, conn: ConnId, path: &str) -> FetchHandle {
        (**self).submit(conn, path)
    }
    fn poll(&self, handle: FetchHandle) -> FetchPoll {
        (**self).poll(handle)
    }
    fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        (**self).complete(handle)
    }
    fn cancel(&self, handle: FetchHandle) {
        (**self).cancel(handle)
    }
    fn observe_now(&self, conn: ConnId, now_ms: u64) {
        (**self).observe_now(conn, now_ms)
    }
    fn virtual_elapsed_ms(&self) -> u64 {
        (**self).virtual_elapsed_ms()
    }
    fn wire_is_virtual(&self) -> bool {
        (**self).wire_is_virtual()
    }
    fn wait_ready(&self, timeout_ms: u64) -> Option<usize> {
        (**self).wait_ready(timeout_ms)
    }
}

/// One connection's timeline.
#[derive(Debug, Default, Clone, Copy)]
struct ConnState {
    /// Virtual "now" as observed by completions on this connection.
    clock: u64,
    /// When the connection's last submitted request completes.
    busy_until: u64,
}

/// The wire inside the one simulated transport,
/// [`ChaosTransport`](crate::chaos::ChaosTransport): per-connection
/// clocks, the results of submitted fetches awaiting poll/complete, the
/// fetch-id counter, and the single connection the blocking face rides
/// (opened on first use). The transport decides what a request costs and
/// what it returns; the wire decides when it completes.
///
/// Each connection carries two marks: `busy_until` (when its last
/// submitted request will complete — submissions serialize behind it) and
/// `clock` (the latest completion it has *observed*). The fleet's elapsed
/// time is the maximum observed clock.
#[derive(Debug, Default)]
pub(crate) struct VirtualWire {
    conns: Mutex<Vec<ConnState>>,
    in_flight: Mutex<HashMap<u64, Result<String, InterfaceError>>>,
    next_fetch: AtomicU64,
    blocking: OnceLock<ConnId>,
}

impl VirtualWire {
    /// Open a new connection with both marks at zero.
    pub(crate) fn connect(&self) -> ConnId {
        let mut conns = self.conns.lock();
        let id = u32::try_from(conns.len()).expect("connection count fits u32");
        conns.push(ConnState::default());
        ConnId(id)
    }

    /// The connection the blocking face rides, opened on first use.
    pub(crate) fn blocking_conn(&self) -> ConnId {
        *self.blocking.get_or_init(|| self.connect())
    }

    /// Put a request on `conn` that occupies it for `service_ms` and
    /// answers `result` once the connection's clock reaches its
    /// completion time.
    pub(crate) fn submit(
        &self,
        conn: ConnId,
        service_ms: u64,
        result: Result<String, InterfaceError>,
    ) -> FetchHandle {
        let (ready_at, queued_ms) = self.schedule_split(conn, service_ms);
        let id = self.next_fetch.fetch_add(1, Ordering::Relaxed);
        self.in_flight.lock().insert(id, result);
        FetchHandle {
            conn,
            id,
            ready_at,
            queued_ms,
            service_ms,
        }
    }

    /// [`AsyncTransport::poll`]: ready once `conn`'s observed clock has
    /// reached the completion time.
    pub(crate) fn poll(&self, handle: FetchHandle) -> FetchPoll {
        if self.observed(handle.conn) >= handle.ready_at {
            FetchPoll::Ready(self.take(&handle))
        } else {
            FetchPoll::Pending(handle)
        }
    }

    /// [`AsyncTransport::complete`]: advance the clock, take the result.
    pub(crate) fn complete(&self, handle: FetchHandle) -> Result<String, InterfaceError> {
        self.advance_to(handle.conn, handle.ready_at);
        self.take(&handle)
    }

    /// [`AsyncTransport::cancel`]: drop the result; the connection time
    /// stays occupied.
    pub(crate) fn cancel(&self, handle: FetchHandle) {
        self.in_flight.lock().remove(&handle.id);
    }

    fn take(&self, handle: &FetchHandle) -> Result<String, InterfaceError> {
        self.in_flight
            .lock()
            .remove(&handle.id)
            .expect("pending fetch has a stored result")
    }

    /// Bill a retry backoff on the blocking face's connection: its clock
    /// moves `ms` forward instead of anyone sleeping.
    pub(crate) fn backoff(&self, ms: u64) {
        let conn = self.blocking_conn();
        let now = self.observed(conn);
        self.advance_to(conn, now + ms);
    }

    /// Occupy `conn` for `service_ms` of virtual time; returns the
    /// completion time.
    ///
    /// Departure is floored at the connection's *observed* clock, not just
    /// its queue tail: a fresh or idle connection whose submitter has
    /// already observed time `t` (its previous completion, or a
    /// cross-connection fact propagated via
    /// [`AsyncTransport::observe_now`]) cannot send a request into the
    /// past. Without the floor, a cooperative walker that learned a result
    /// at t = 200 on one connection could depart a follow-up at t = 0 on
    /// another — time-travel that undercharges the fleet clock.
    /// The second element of the returned pair is the queue wait: how
    /// long the request sat behind the connection's earlier traffic
    /// between the submitter's observed "now" and its actual departure
    /// (the queue/service split wire trace spans report).
    fn schedule_split(&self, conn: ConnId, service_ms: u64) -> (u64, u64) {
        let mut conns = self.conns.lock();
        let state = &mut conns[conn.index()];
        let departs = state.busy_until.max(state.clock);
        state.busy_until = departs + service_ms;
        (state.busy_until, departs - state.clock)
    }

    /// Move `conn`'s observed clock forward to `to_ms` (never backwards).
    pub(crate) fn advance_to(&self, conn: ConnId, to_ms: u64) {
        let mut conns = self.conns.lock();
        let state = &mut conns[conn.index()];
        state.clock = state.clock.max(to_ms);
    }

    /// `conn`'s observed clock.
    fn observed(&self, conn: ConnId) -> u64 {
        self.conns.lock()[conn.index()].clock
    }

    /// Fleet elapsed: max observed clock over all connections.
    pub(crate) fn elapsed(&self) -> u64 {
        self.conns.lock().iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Number of connections opened so far.
    pub(crate) fn connections(&self) -> usize {
        self.conns.lock().len()
    }

    /// Submitted fetches whose results have not yet been taken.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.in_flight.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_serialize_per_connection_and_overlap_across() {
        let clocks = VirtualWire::default();
        let a = clocks.connect();
        let b = clocks.connect();
        assert_eq!(clocks.connections(), 2);

        // Two requests on `a` serialize; one on `b` overlaps both. The
        // second request on `a` spends 100 ms queued behind the first.
        assert_eq!(clocks.schedule_split(a, 100), (100, 0));
        assert_eq!(clocks.schedule_split(a, 100), (200, 100));
        assert_eq!(clocks.schedule_split(b, 150), (150, 0));

        clocks.advance_to(a, 200);
        clocks.advance_to(b, 150);
        assert_eq!(clocks.observed(a), 200);
        assert_eq!(clocks.elapsed(), 200, "max over connections, not 350");

        // Clocks never run backwards.
        clocks.advance_to(a, 10);
        assert_eq!(clocks.observed(a), 200);
    }

    #[test]
    fn departures_are_floored_at_the_observed_clock() {
        // Regression (causality): a connection whose submitter has
        // observed t = 200 must not depart a new request at t = 0.
        let clocks = VirtualWire::default();
        let a = clocks.connect();
        let b = clocks.connect();

        // One round trip on `a` completes at 200.
        assert_eq!(clocks.schedule_split(a, 200), (200, 0));
        clocks.advance_to(a, 200);

        // `b` is fresh, but its submitter learned the motivating result at
        // t = 200 (e.g. via a shared history cache); propagating that
        // knowledge floors the departure. The floor is not queueing, so
        // the queue-wait component stays zero.
        clocks.advance_to(b, 200);
        assert_eq!(
            clocks.schedule_split(b, 50),
            (250, 0),
            "fresh connection departs at its observed clock, not 0"
        );

        // An idle (fully drained) connection behaves the same.
        clocks.advance_to(a, 300);
        assert_eq!(
            clocks.schedule_split(a, 50),
            (350, 0),
            "idle connection departs at its observed clock, not its stale queue tail"
        );
    }

    #[test]
    fn cancel_releases_buffered_results() {
        let wire = VirtualWire::default();
        let conn = wire.connect();
        let keep = wire.submit(conn, 100, Ok("kept".into()));
        let abandon = wire.submit(conn, 100, Ok("abandoned".into()));
        assert_eq!(wire.pending(), 2);
        wire.cancel(abandon);
        assert_eq!(wire.pending(), 1, "cancel frees the buffered page");
        assert_eq!(wire.complete(keep).unwrap(), "kept");
        assert_eq!(wire.pending(), 0);
        // Cancelling does not un-send: the connection time stays occupied,
        // so the next request queues behind the abandoned one.
        let next = wire.submit(conn, 100, Ok(String::new()));
        assert_eq!((next.ready_at_ms(), next.queued_ms()), (300, 100));
    }

    #[test]
    fn empty_fleet_has_zero_elapsed() {
        let clocks = VirtualWire::default();
        assert_eq!(clocks.elapsed(), 0);
        assert_eq!(clocks.connections(), 0);
    }
}
