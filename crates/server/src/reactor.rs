//! The server's one front door: a readiness loop per core (epoll on
//! Linux, `poll(2)` on other unix hosts — see
//! [`hdsampler_webform::reactor`]), each multiplexing thousands of
//! keep-alive connections through resumable [`ConnMachine`]s — the
//! server-side mirror of the client's `WalkMachine` trick (state machines
//! instead of stacks). A connection costs one slab slot (a few KiB), not
//! a thread, so one process holds 10k+ concurrent keep-alive connections
//! — the C10K shape the cooperative client drives.
//!
//! Nothing on a loop sleeps or blocks; every wait is a deadline the
//! poller's timeout honours, per connection on one generation-stamped
//! timer heap:
//!
//! * slowloris/idle deadlines close or answer `408`;
//! * short writes park the connection with residual output in its
//!   machine and resume on the next writable event;
//! * a delayed response ([`Response::delay`], e.g. an
//!   [`Adversary`](crate::Adversary)'s injected latency) *holds* its
//!   connection until the delay's deadline: the answers queued before it
//!   still flush, but nothing more is read, parsed or answered, and the
//!   delayed answer is queued only when the deadline fires; pipelined
//!   requests wait behind it, and a graceful drain still delivers it;
//! * a connection over the admission cap becomes a short-lived slot that
//!   flushes `503` + `Retry-After`, half-closes, and discards input until
//!   EOF or a fixed linger deadline;
//! * a failed accept (e.g. fd exhaustion) takes the listener out of the
//!   poller for 10 ms instead of spinning on its readiness;
//! * an `/events` watcher stays a slot that keeps its [`EventHub`]
//!   receiver: every 100 ms tick of its timer moves the frames published
//!   since the last tick onto its output as chunks, up to a backlog of
//!   `EVENTS_BACKLOG_CAP` (4 MiB), with a heartbeat comment after 25
//!   quiet ticks; a watcher that leaves more than the cap unwritten for a
//!   whole tick is not reading and is shed; on stop every stream gets the
//!   frames published before the stop and the chunk terminator, then
//!   closes like any other slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::events::EventHub;
use crate::http::{parse_request, write_response, Response};
use crate::server::{handle_request, Handled, Reply, ServerConfig, StatsInner, IDLE_POLL};
use crate::site::SiteBehavior;

/// Unwritten `/events` output past which a watcher is shed: it has
/// stopped reading, and the stream must not buffer without bound.
pub(crate) const EVENTS_BACKLOG_CAP: usize = 4 << 20;

/// Quiet ticks of a watcher's timer before a heartbeat comment goes out
/// (keeps dead watchers detectable and the stream warm).
const EVENTS_HEARTBEAT_EVERY: u32 = 25;

/// The `/events` response head: a chunked `text/event-stream` that ends
/// with the connection.
const EVENTS_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                           Cache-Control: no-cache\r\nConnection: close\r\n\
                           Transfer-Encoding: chunked\r\n\r\n";

/// One connection's resumable serve state: accumulated request bytes in,
/// queued response bytes out, and whether the connection closes once the
/// output drains.
///
/// The machine is I/O-agnostic — [`write_some`](ConnMachine::write_some)
/// takes any [`Write`] — so tests can drive it through writers that
/// inject `WouldBlock` at arbitrary chunk boundaries and assert the
/// reassembled byte stream is identical to a blocking write.
#[derive(Debug, Default)]
pub struct ConnMachine {
    /// Unparsed request bytes read so far.
    pub buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    close_after_flush: bool,
}

/// Outcome of one [`ConnMachine::write_some`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte is on the wire.
    Done,
    /// The writer would block; residual bytes stay queued for the next
    /// writable event.
    Blocked,
}

impl ConnMachine {
    /// A fresh machine with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialize `resp` onto the output queue with [`write_response`]'s
    /// framing, and arm close-after-flush when the exchange ends the
    /// connection.
    /// Returns the number of bytes queued.
    pub fn queue_response(&mut self, resp: &Response, keep_alive: bool) -> usize {
        let before = self.out.len();
        write_response(&mut self.out, resp, keep_alive).expect("writing into a Vec cannot fail");
        if !keep_alive {
            self.close_after_flush = true;
        }
        self.out.len() - before
    }

    /// Queue raw bytes behind whatever is unwritten, first dropping the
    /// already-written prefix so a long-lived stream's buffer holds only
    /// what is still to go out.
    pub(crate) fn queue_bytes(&mut self, bytes: &[u8]) {
        self.out.drain(..self.out_pos);
        self.out_pos = 0;
        self.out.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet written.
    pub(crate) fn pending_len(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Push queued output into `w` until done or it would block.
    /// `Interrupted` writes are retried; `Ok(0)` is an error (the peer
    /// cannot accept bytes but did not signal `WouldBlock`).
    pub fn write_some(&mut self, w: &mut impl Write) -> io::Result<WriteProgress> {
        while self.out_pos < self.out.len() {
            match w.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(WriteProgress::Blocked),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(WriteProgress::Done)
    }

    /// Whether response bytes are still queued for the wire.
    pub fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether the connection should close once the output drains.
    pub fn close_after_flush(&self) -> bool {
        self.close_after_flush
    }

    /// Arm close-after-flush: the connection ends once what is queued is
    /// out (e.g. an injected sever behind earlier answers).
    pub fn set_close_after_flush(&mut self) {
        self.close_after_flush = true;
    }
}

#[cfg(unix)]
pub(crate) use serve_loop::spawn;

/// Windows has never been built or tested: there is no serve loop to run.
#[cfg(not(unix))]
pub(crate) fn spawn<S: SiteBehavior + 'static>(
    _listener: TcpListener,
    _site: Arc<S>,
    _stats: Arc<StatsInner>,
    _stop: Arc<AtomicBool>,
    _hub: Arc<EventHub>,
    _cfg: ServerConfig,
) -> io::Result<JoinHandle<()>> {
    Err(io::Error::new(
        ErrorKind::Unsupported,
        "hdsampler-server needs a unix host (epoll or poll(2))",
    ))
}

/// The serve loop proper (unix only: it needs the fd-based poller).
#[cfg(unix)]
mod serve_loop {
    use super::*;
    use hdsampler_webform::reactor::{Epoll, Interest};
    use std::os::fd::AsRawFd;

    /// Spawn the serve loops. The returned handle is the supervisor: joining
    /// it joins every per-core loop, which is what
    /// [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown)
    /// waits on.
    pub(crate) fn spawn<S: SiteBehavior + 'static>(
        listener: TcpListener,
        site: Arc<S>,
        stats: Arc<StatsInner>,
        stop: Arc<AtomicBool>,
        hub: Arc<EventHub>,
        cfg: ServerConfig,
    ) -> io::Result<JoinHandle<()>> {
        listener.set_nonblocking(true)?;
        let threads = if cfg.reactor_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.reactor_threads
        };
        std::thread::Builder::new()
            .name("hds-reactor".into())
            .spawn(move || {
                std::thread::scope(|scope| {
                    for i in 0..threads {
                        // Every loop shares the listener's file description:
                        // the kernel wakes all of them on a pending accept
                        // (level-triggered) and the losers harvest
                        // `WouldBlock`.
                        let Ok(listener) = listener.try_clone() else {
                            continue;
                        };
                        let (site, stats, stop, hub, cfg) = (&*site, &*stats, &*stop, &*hub, &cfg);
                        let _ = std::thread::Builder::new()
                            .name(format!("hds-reactor-{i}"))
                            .spawn_scoped(scope, move || {
                                reactor_loop(listener, site, stats, stop, hub, cfg)
                            });
                    }
                });
            })
    }

    /// How long a connection turned away at the admission cap may keep
    /// sending after its `503`: long enough for the request bytes already in
    /// flight to land (closing over unread input would reset the `503` away),
    /// and fixed, so a peer trickling bytes cannot stretch it.
    const REJECT_LINGER: Duration = Duration::from_millis(500);

    struct ConnSlot {
        stream: TcpStream,
        machine: ConnMachine,
        /// The generation of its live deadline; timers stamped with any
        /// other are stale and skipped.
        gen: u64,
        /// The client half-closed; close once the output drains.
        eof: bool,
        /// Interest currently registered with the poller; `None` while the
        /// fd is out of it.
        registered: Option<Interest>,
        /// A delayed answer whose deadline has not fired. Until then the
        /// slot only flushes the answers queued before it: nothing is read,
        /// parsed or answered.
        held: Option<Reply>,
        /// Turned away at the admission cap: flush the queued `503`,
        /// half-close, discard input until EOF or [`REJECT_LINGER`]. Not
        /// counted in `open_connections`.
        rejected: bool,
        /// An `/events` watcher's subscription; its timer ticks every
        /// [`IDLE_POLL`] to move frames onto the output.
        events: Option<Receiver<Arc<str>>>,
        /// Ticks since the watcher last got a frame or heartbeat.
        quiet_ticks: u32,
    }

    /// The reserved poller token for the listener; connection slots map to
    /// `token - 1`.
    const LISTENER_TOKEN: u64 = 0;

    /// Min-heap of `(fire-at, slot, generation)` deadlines, and the last
    /// generation handed out. Generations never repeat within a loop: a
    /// closed connection's timers stay queued after its slot is reused, and
    /// must not match the next connection's.
    #[derive(Default)]
    struct Timers {
        heap: BinaryHeap<Reverse<(Instant, usize, u64)>>,
        gen: u64,
    }

    /// Re-arm `slot`'s one live deadline `after` from now; older timers for it
    /// go stale.
    fn arm(timers: &mut Timers, slot: &mut ConnSlot, ix: usize, after: Duration) {
        timers.gen += 1;
        slot.gen = timers.gen;
        timers
            .heap
            .push(Reverse((Instant::now() + after, ix, slot.gen)));
    }

    /// One serve loop's state: its poller, the connection slab, the timers.
    struct Reactor<'a> {
        ep: Epoll,
        site: &'a dyn SiteBehavior,
        stats: &'a StatsInner,
        stop: &'a AtomicBool,
        hub: &'a EventHub,
        cfg: &'a ServerConfig,
        slots: Vec<Option<ConnSlot>>,
        free: Vec<usize>,
        live: usize,
        timers: Timers,
    }

    enum Driven {
        Keep,
        Close,
    }

    fn reactor_loop(
        listener: TcpListener,
        site: &dyn SiteBehavior,
        stats: &StatsInner,
        stop: &AtomicBool,
        hub: &EventHub,
        cfg: &ServerConfig,
    ) {
        let Ok(ep) = Epoll::new() else { return };
        if ep
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read)
            .is_err()
        {
            return;
        }
        let mut r = Reactor {
            ep,
            site,
            stats,
            stop,
            hub,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            timers: Timers::default(),
        };
        let mut events = Vec::new();
        let mut grace: Option<Instant> = None;
        // A failed accept takes the listener out of the poller until then.
        let mut accept_paused: Option<Instant> = None;

        loop {
            if grace.is_none() && stop.load(Ordering::SeqCst) {
                grace = Some(Instant::now() + cfg.keep_alive_timeout);
                let _ = r.ep.deregister(listener.as_raw_fd());
                r.end_streams();
            }
            if let Some(grace) = grace {
                // Draining: connections close at their quiet points (nothing
                // buffered, queued or held); the rest finish their in-flight
                // exchange within the grace window.
                for ix in 0..r.slots.len() {
                    let idle = r.slots[ix].as_ref().is_some_and(|s| {
                        s.held.is_none() && s.machine.buf.is_empty() && !s.machine.has_pending_out()
                    });
                    if idle {
                        r.close(ix);
                    }
                }
                if r.live == 0 || Instant::now() >= grace {
                    for ix in 0..r.slots.len() {
                        r.close(ix);
                    }
                    return;
                }
            }

            if grace.is_none() && accept_paused.is_some_and(|at| Instant::now() >= at) {
                accept_paused = None;
                let _ =
                    r.ep.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::Read);
            }
            let mut timeout = IDLE_POLL;
            let next_timer = r.timers.heap.peek().map(|Reverse((at, _, _))| *at);
            if let Some(at) = next_timer.into_iter().chain(accept_paused).min() {
                timeout = timeout.min(at.saturating_duration_since(Instant::now()));
            }
            // Round up to the poller's 1 ms granularity: truncating would
            // wake before the deadline and busy-poll its last millisecond.
            // Deadlines only need to fire eventually, never early.
            let timeout_ms = timeout.as_nanos().div_ceil(1_000_000) as i32;
            let n = r.ep.wait(&mut events, timeout_ms).unwrap_or(0);
            stats.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
            stats
                .reactor_ready_events
                .fetch_add(n as u64, Ordering::Relaxed);

            for ev in events.iter().take(n) {
                if ev.token == LISTENER_TOKEN {
                    if grace.is_none() && !r.accept_ready(&listener) {
                        // Transient accept failure (e.g. fd exhaustion):
                        // pause the listener for a tick instead of
                        // spinning on its level-triggered readiness.
                        let _ = r.ep.deregister(listener.as_raw_fd());
                        accept_paused = Some(Instant::now() + Duration::from_millis(10));
                    }
                    continue;
                }
                r.drive((ev.token - 1) as usize, ev.readable);
            }
            r.fire_timers();
        }
    }

    impl Reactor<'_> {
        /// Accept every pending connection: admit it into a slot, or turn it
        /// away at the admission cap. `false` when an accept failed.
        fn accept_ready(&mut self, listener: &TcpListener) -> bool {
            loop {
                // Re-checked per accept: `ServerHandle::shutdown` stores the
                // stop flag and then dials a wake-up connection; that dial
                // (and anything racing it) must not be counted or served.
                if self.stop.load(Ordering::SeqCst) {
                    return true;
                }
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                self.stats.connections.fetch_add(1, Ordering::Relaxed);
                let mut slot = ConnSlot {
                    stream,
                    machine: ConnMachine::new(),
                    gen: 0,
                    eof: false,
                    registered: None,
                    held: None,
                    rejected: false,
                    events: None,
                    quiet_ticks: 0,
                };
                let deadline = if self.cfg.max_conns > 0
                    && self.stats.open_connections.load(Ordering::Relaxed)
                        >= self.cfg.max_conns as u64
                {
                    // Admission cap: the peer gets a short-lived slot that
                    // answers 503 and lingers, never a served connection.
                    self.stats.admission_rejects.fetch_add(1, Ordering::Relaxed);
                    let mut resp =
                        Response::text(503, "Service Unavailable", "503 server at capacity".into());
                    resp.extra_headers.push(("Retry-After".into(), "1".into()));
                    answer(self.stats, &mut slot, &resp, false);
                    slot.rejected = true;
                    if let Driven::Close = drive_sender(&mut slot) {
                        continue;
                    }
                    REJECT_LINGER
                } else {
                    self.stats.reactor_accepts.fetch_add(1, Ordering::Relaxed);
                    self.stats.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.cfg.keep_alive_timeout
                };
                let ix = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    self.slots.len() - 1
                });
                if update_interest(&self.ep, &mut slot, ix).is_err() {
                    self.free.push(ix);
                    if !slot.rejected {
                        self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
                    }
                    continue;
                }
                arm(&mut self.timers, &mut slot, ix, deadline);
                self.slots[ix] = Some(slot);
                self.live += 1;
            }
        }

        /// Resume slot `ix` and settle the outcome.
        fn drive(&mut self, ix: usize, readable: bool) {
            let Some(mut slot) = self.slots.get_mut(ix).and_then(Option::take) else {
                return;
            };
            let driven = if slot.rejected || slot.events.is_some() {
                drive_sender(&mut slot)
            } else {
                self.drive_conn(&mut slot, ix, readable)
            };
            match driven {
                Driven::Keep => {
                    let registered = update_interest(&self.ep, &mut slot, ix);
                    self.slots[ix] = Some(slot);
                    if registered.is_err() {
                        self.close(ix);
                    }
                }
                Driven::Close => {
                    self.slots[ix] = Some(slot);
                    self.close(ix);
                }
            }
        }

        /// On stop, end every `/events` stream: the frames published
        /// before the stop and the chunk terminator go out, then the slot
        /// closes once they are flushed, like any other.
        fn end_streams(&mut self) {
            for ix in 0..self.slots.len() {
                let Some(slot) = self.slots[ix].as_mut() else {
                    continue;
                };
                if slot.events.is_some() {
                    end_stream(self.stats, slot);
                    arm(&mut self.timers, slot, ix, self.cfg.keep_alive_timeout);
                    self.drive(ix, false);
                }
            }
        }

        fn close(&mut self, ix: usize) {
            let Some(slot) = self.slots[ix].take() else {
                return;
            };
            // Deregister before the stream drops (and its fd closes): see
            // `Epoll::deregister` on fd-number reuse.
            if slot.registered.is_some() {
                let _ = self.ep.deregister(slot.stream.as_raw_fd());
            }
            self.free.push(ix);
            self.live -= 1;
            if !slot.rejected {
                self.stats.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Fire due deadlines: held responses go out, idle keep-alive
        /// connections and lingering rejects close, partial requests get the
        /// slowloris 408, unflushed terminal responses get a bounded flush
        /// window and then a hard close.
        fn fire_timers(&mut self) {
            let now = Instant::now();
            while let Some(&Reverse((at, ix, gen))) = self.timers.heap.peek() {
                if at > now {
                    break;
                }
                self.timers.heap.pop();
                let Some(slot) = self.slots.get_mut(ix).and_then(Option::as_mut) else {
                    continue;
                };
                if slot.gen != gen {
                    continue;
                }
                self.stats.timers_fired.fetch_add(1, Ordering::Relaxed);
                if slot.events.is_some() {
                    // A watcher's tick: move the hub's new frames out.
                    arm(&mut self.timers, slot, ix, IDLE_POLL);
                    let live = matches!(pump_events(self.stats, slot), Driven::Keep)
                        && update_interest(&self.ep, slot, ix).is_ok();
                    if !live {
                        self.close(ix);
                    }
                    continue;
                }
                if let Some(held) = slot.held.take() {
                    // The delay is over: queue the answer, then deliver it
                    // (and answer whatever was pipelined behind it).
                    respond(self.stats, slot, &held);
                    arm(&mut self.timers, slot, ix, self.cfg.keep_alive_timeout);
                    self.drive(ix, true);
                    continue;
                }
                if slot.machine.close_after_flush() || slot.machine.buf.is_empty() {
                    // Flush window exhausted, linger over, or a clean idle
                    // timeout.
                    self.close(ix);
                    continue;
                }
                // A partial request sat past the deadline: slowloris. Answer
                // 408 and give the flush one more window.
                let resp = Response::text(408, "Request Timeout", "408 request timeout".into());
                answer(self.stats, slot, &resp, false);
                arm(&mut self.timers, slot, ix, self.cfg.keep_alive_timeout);
                match slot.machine.write_some(&mut slot.stream) {
                    Ok(WriteProgress::Blocked) if update_interest(&self.ep, slot, ix).is_ok() => {}
                    _ => self.close(ix),
                }
            }
        }

        /// Resume one admitted connection: flush pending output, drain the
        /// socket, parse and answer every complete request (holding the
        /// connection at the first delayed answer), decide whether the
        /// connection lives on.
        fn drive_conn(&mut self, slot: &mut ConnSlot, ix: usize, readable: bool) -> Driven {
            if slot.held.is_some() {
                // Only the answers queued before the held one move.
                return match slot.machine.write_some(&mut slot.stream) {
                    Ok(_) => Driven::Keep,
                    Err(_) => Driven::Close,
                };
            }
            // Short-write resumption first: a writable event (or any wakeup
            // with queued output) continues the interrupted response.
            if slot.machine.has_pending_out() && slot.machine.write_some(&mut slot.stream).is_err()
            {
                return Driven::Close;
            }

            if readable {
                let mut tmp = [0u8; 16 * 1024];
                loop {
                    match slot.stream.read(&mut tmp) {
                        Ok(0) => {
                            slot.eof = true;
                            break;
                        }
                        Ok(n) => {
                            slot.machine.buf.extend_from_slice(&tmp[..n]);
                            self.stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Driven::Close,
                    }
                }
            }

            // Answer every complete request already buffered (pipelining).
            while slot.held.is_none() && !slot.machine.close_after_flush() {
                match parse_request(&slot.machine.buf) {
                    Ok(None) => break,
                    Ok(Some((req, consumed))) => {
                        slot.machine.buf.drain(..consumed);
                        match handle_request(
                            &req, self.site, self.stats, self.stop, self.hub, self.cfg,
                        ) {
                            Handled::Response(reply) => {
                                if !reply.resp.delay.is_zero() {
                                    // Hold the answer until the delay's
                                    // deadline; the loop serves on.
                                    arm(&mut self.timers, slot, ix, reply.resp.delay);
                                    slot.held = Some(reply);
                                    break;
                                }
                                respond(self.stats, slot, &reply);
                                // Keep-alive reset: the idle clock restarts
                                // once a request is answered.
                                arm(&mut self.timers, slot, ix, self.cfg.keep_alive_timeout);
                            }
                            Handled::EventStream => {
                                // The connection becomes a watcher: its head
                                // and an opening comment (which tells the
                                // watcher the stream is live) go out now,
                                // the hub's frames on every tick.
                                slot.machine.buf.clear();
                                slot.events = Some(self.hub.subscribe());
                                queue_stream(self.stats, &mut slot.machine, EVENTS_HEAD.as_bytes());
                                queue_chunk(
                                    self.stats,
                                    &mut slot.machine,
                                    ": hds event stream\n\n",
                                );
                                if self.stop.load(Ordering::SeqCst) {
                                    // Subscribed while draining: the stream
                                    // ends at once, like every other.
                                    end_stream(self.stats, slot);
                                    break;
                                }
                                arm(&mut self.timers, slot, ix, IDLE_POLL);
                                return drive_sender(slot);
                            }
                        }
                    }
                    Err(e) => {
                        let (status, reason) = e.status();
                        let resp = Response::text(status, reason, format!("{status} {e}"));
                        answer(self.stats, slot, &resp, false);
                        break;
                    }
                }
            }

            match slot.machine.write_some(&mut slot.stream) {
                Ok(WriteProgress::Done) => {
                    if slot.held.is_none() && (slot.machine.close_after_flush() || slot.eof) {
                        return Driven::Close;
                    }
                }
                Ok(WriteProgress::Blocked) => {
                    if slot.eof && !slot.machine.has_pending_out() {
                        return Driven::Close;
                    }
                }
                Err(_) => return Driven::Close,
            }
            Driven::Keep
        }
    }

    /// Queue a handler's answer on `slot`. An injected drop writes nothing
    /// for its exchange: the connection closes once the answers before it
    /// are out.
    fn respond(stats: &StatsInner, slot: &mut ConnSlot, reply: &Reply) {
        if reply.resp.drop_connection {
            slot.machine.set_close_after_flush();
        } else {
            answer(stats, slot, &reply.resp, reply.keep_alive);
        }
    }

    /// Queue `resp` on `slot`, counting its status class and bytes.
    fn answer(stats: &StatsInner, slot: &mut ConnSlot, resp: &Response, keep_alive: bool) {
        stats.count_status(resp.status);
        let queued = slot.machine.queue_response(resp, keep_alive);
        stats.bytes_out.fetch_add(queued as u64, Ordering::Relaxed);
    }

    /// A watcher's tick. A watcher that left more than
    /// [`EVENTS_BACKLOG_CAP`] unwritten for a whole tick is not reading: it
    /// is shed and counted. Otherwise the frames published since the last
    /// tick (a heartbeat after [`EVENTS_HEARTBEAT_EVERY`] quiet ticks) are
    /// queued until the backlog passes the cap, and flushed; the rest wait
    /// in the hub's queue for the next tick.
    fn pump_events(stats: &StatsInner, slot: &mut ConnSlot) -> Driven {
        let Some(rx) = slot.events.as_ref() else {
            return Driven::Keep;
        };
        if slot.machine.write_some(&mut slot.stream).is_err() {
            return Driven::Close;
        }
        if slot.machine.pending_len() > EVENTS_BACKLOG_CAP {
            stats.events_shed.fetch_add(1, Ordering::Relaxed);
            return Driven::Close;
        }
        slot.quiet_ticks += 1;
        for frame in rx.try_iter() {
            slot.quiet_ticks = 0;
            queue_chunk(stats, &mut slot.machine, &frame);
            if slot.machine.pending_len() > EVENTS_BACKLOG_CAP {
                break;
            }
        }
        if slot.quiet_ticks == EVENTS_HEARTBEAT_EVERY {
            slot.quiet_ticks = 0;
            queue_chunk(stats, &mut slot.machine, ": hb\n\n");
        }
        match slot.machine.write_some(&mut slot.stream) {
            Ok(_) => Driven::Keep,
            Err(_) => Driven::Close,
        }
    }

    /// End a watcher's stream: queue the frames published so far and the
    /// chunk terminator, then let the slot close once they are out.
    fn end_stream(stats: &StatsInner, slot: &mut ConnSlot) {
        let Some(rx) = slot.events.take() else {
            return;
        };
        for frame in rx.try_iter() {
            queue_chunk(stats, &mut slot.machine, &frame);
        }
        queue_stream(stats, &mut slot.machine, b"0\r\n\r\n");
        slot.machine.set_close_after_flush();
    }

    /// Queue one chunked-transfer chunk carrying `text` on a stream,
    /// copying `text` only into the output.
    fn queue_chunk(stats: &StatsInner, machine: &mut ConnMachine, text: &str) {
        queue_stream(stats, machine, format!("{:X}\r\n", text.len()).as_bytes());
        queue_stream(stats, machine, text.as_bytes());
        queue_stream(stats, machine, b"\r\n");
    }

    /// Queue raw stream bytes, counting them.
    fn queue_stream(stats: &StatsInner, machine: &mut ConnMachine, bytes: &[u8]) {
        machine.queue_bytes(bytes);
        stats
            .bytes_out
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    /// Resume a slot that only sends — a turned-away connection or an
    /// `/events` watcher: flush its output (a reject half-closes once its
    /// `503` is out), and discard one read of whatever the peer still sends
    /// (the poller reports again while more is pending). EOF or an error
    /// ends it, so a watcher that hangs up closes at once.
    fn drive_sender(slot: &mut ConnSlot) -> Driven {
        if slot.machine.has_pending_out() {
            match slot.machine.write_some(&mut slot.stream) {
                Ok(WriteProgress::Done) if slot.rejected => {
                    let _ = slot.stream.shutdown(Shutdown::Write);
                }
                Ok(_) => {}
                Err(_) => return Driven::Close,
            }
        }
        match slot.stream.read(&mut [0u8; 4096]) {
            Ok(0) => Driven::Close,
            Ok(_) => Driven::Keep,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Driven::Keep
            }
            Err(_) => Driven::Close,
        }
    }

    /// Keep the poller registration in step with the slot: read interest,
    /// plus write while output waits for a writable event. A held slot
    /// reads nothing: it asks only to flush the answers queued before the
    /// held one, and leaves the poller once they are out.
    fn update_interest(ep: &Epoll, slot: &mut ConnSlot, ix: usize) -> io::Result<()> {
        let pending = slot.machine.has_pending_out();
        let want = match (&slot.held, pending) {
            (None, false) => Some(Interest::Read),
            (None, true) => Some(Interest::ReadWrite),
            (Some(_), true) => Some(Interest::Write),
            (Some(_), false) => None,
        };
        if want == slot.registered {
            return Ok(());
        }
        let (fd, token) = (slot.stream.as_raw_fd(), ix as u64 + 1);
        match (slot.registered, want) {
            (_, None) => ep.deregister(fd)?,
            (None, Some(interest)) => ep.register(fd, token, interest)?,
            (Some(_), Some(interest)) => ep.modify(fd, token, interest)?,
        }
        slot.registered = want;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_and_drain_round_trips() {
        let resp = Response::text(200, "OK", "hello".into());
        let mut machine = ConnMachine::new();
        let queued = machine.queue_response(&resp, true);
        assert!(queued > 0);
        assert!(machine.has_pending_out());
        let mut sink = Vec::new();
        assert_eq!(machine.write_some(&mut sink).unwrap(), WriteProgress::Done);
        assert_eq!(sink.len(), queued);
        assert!(!machine.has_pending_out());
        assert!(!machine.close_after_flush());

        // The queued bytes are exactly what `write_response` writes.
        let mut direct = Vec::new();
        write_response(&mut direct, &resp, true).unwrap();
        assert_eq!(sink, direct);
    }

    #[test]
    fn close_response_arms_close_after_flush() {
        let resp = Response::text(400, "Bad Request", "nope".into());
        let mut machine = ConnMachine::new();
        machine.queue_response(&resp, false);
        assert!(machine.close_after_flush());
    }
}
