//! A thin, std-only readiness reactor: epoll on Linux, `poll(2)` on
//! every other unix host.
//!
//! Both halves of the real wire multiplex on this module: the
//! [`HttpTransport`](crate::httpc::HttpTransport) client blocks in one
//! wait across every pipelined connection instead of a blocking read on
//! the causally-earliest fetch, and the `hdsampler-server` crate runs its
//! one front door (a resumable per-connection state machine,
//! thread-per-core) over the same wrapper.
//!
//! The wrapper is dependency-free by design: the syscalls are declared
//! directly (`std` already links libc on unix, so no `libc` crate is
//! needed). [`Epoll`] is the one API; the build picks its backend by
//! platform, never by an option:
//!
//! * **Linux** — the kernel's epoll set, owned through
//!   `std::os::fd::OwnedFd`;
//! * **other unix** — a userspace registration table handed to `poll(2)`
//!   on every wait (O(registered fds) per wait, which is fine for the
//!   hosts that need it). Registrations made while another thread waits
//!   take effect on its next wait. The backend is also compiled into
//!   Linux test builds, so both run the same shim tests.
//!
//! Windows has never been built or tested: there [`Epoll::new`] fails
//! with `Unsupported` and [`reactor_supported`] returns `false`.
//!
//! Level-triggered semantics throughout: an fd reported readable stays
//! reported until drained, so a missed wakeup costs one extra `wait`
//! round, never a lost connection.

#[cfg(unix)]
pub use std::os::fd::RawFd;
/// Raw fd placeholder on targets without `std::os::fd`.
#[cfg(not(unix))]
pub type RawFd = i32;

/// Whether this build has a working readiness reactor (every unix host).
pub fn reactor_supported() -> bool {
    cfg!(unix)
}

/// What readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the fd is readable (or hung up).
    Read,
    /// Wake when the fd is readable or writable.
    ReadWrite,
    /// Wake only when the fd is writable (or in error): pending input and a
    /// peer's half-close stay unreported.
    Write,
}

/// One readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct ReadyEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The peer hung up or the fd is in an error state; the owner should
    /// drain and close.
    pub hangup: bool,
}

/// A wait's syscall return: the ready count, with an `EINTR`-interrupted
/// wait reported as zero events rather than an error.
#[cfg(unix)]
fn wait_result(rc: std::os::raw::c_int) -> std::io::Result<usize> {
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = std::io::Error::last_os_error();
    match err.kind() {
        std::io::ErrorKind::Interrupted => Ok(0),
        _ => Err(err),
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Epoll;
#[cfg(all(unix, not(target_os = "linux")))]
pub use poll::Poll as Epoll;

/// The Linux backend: the kernel's epoll set.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{wait_result, Interest, RawFd, ReadyEvent};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::c_int;

    /// Most events one [`Epoll::wait`] call surfaces; excess readiness is
    /// simply reported on the next call (level-triggered).
    const MAX_EVENTS: usize = 1024;

    /// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it (no padding between `events` and `data`); other
    /// architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// An epoll instance. All methods take `&self`: the kernel serializes
    /// concurrent `epoll_ctl`/`epoll_wait` on one instance, so
    /// registration from one thread while another waits is safe without
    /// a userspace lock.
    #[derive(Debug)]
    pub struct Epoll {
        fd: OwnedFd,
    }

    impl Epoll {
        /// Create an epoll instance (close-on-exec).
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall; a negative return is an error, otherwise
            // the fd is fresh and exclusively ours to own.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a live fd we exclusively own (just created).
            Ok(Epoll {
                fd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: match interest {
                    Interest::Read => EPOLLIN | EPOLLRDHUP,
                    Interest::ReadWrite => EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                    Interest::Write => EPOLLOUT,
                },
                data: token,
            };
            // SAFETY: `event` is a live stack value for the call's duration
            // (EPOLL_CTL_DEL ignores it).
            if unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Register `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Change an existing registration's token or interest.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Remove `fd` from the set. Must be called *before* the fd is closed:
        /// the kernel forgets closed fds on its own, but a userspace
        /// registration map that outlives the close can alias a reused fd
        /// number and deregister someone else's live socket.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::Read)
        }

        /// Block until readiness or `timeout_ms` (negative blocks forever,
        /// zero polls). Fills `events` (cleared first) and returns the count;
        /// an `EINTR`-interrupted wait reports zero events rather than
        /// erroring.
        pub fn wait(&self, events: &mut Vec<ReadyEvent>, timeout_ms: i32) -> io::Result<usize> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `raw` outlives the call and `MAX_EVENTS` bounds what the
            // kernel may write.
            let rc = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            };
            for ev in &raw[..wait_result(rc)?] {
                let bits = ev.events;
                events.push(ReadyEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }
}

/// The portable backend: a registration table handed to `poll(2)` on
/// every wait. Non-Linux unix hosts run on it; Linux compiles it for the
/// shim tests only.
#[cfg(all(unix, any(test, not(target_os = "linux"))))]
mod poll {
    use super::{wait_result, Interest, RawFd, ReadyEvent};
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::sync::{Mutex, MutexGuard};

    /// Mirror of `struct pollfd` (the same layout on every unix).
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;
    /// Linux reports a peer's half-close only through `POLLRDHUP`; other
    /// hosts have no portable equivalent (EOF still reads as readable).
    #[cfg(target_os = "linux")]
    const POLLRDHUP: c_short = 0x2000;
    #[cfg(not(target_os = "linux"))]
    const POLLRDHUP: c_short = 0;

    type Registration = (RawFd, u64, Interest);

    /// A `poll(2)` set of `(fd, token, interest)` registrations. The lock
    /// is held to edit or snapshot the table, never across the wait, so a
    /// registration made while another thread waits counts from the next
    /// wait on.
    #[derive(Debug, Default)]
    pub struct Poll {
        regs: Mutex<Vec<Registration>>,
    }

    impl Poll {
        /// An empty set.
        pub fn new() -> io::Result<Self> {
            Ok(Poll::default())
        }

        fn table(&self) -> MutexGuard<'_, Vec<Registration>> {
            self.regs.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Where `fd` sits in the table.
        fn find(regs: &[Registration], fd: RawFd) -> io::Result<usize> {
            let ix = regs.iter().position(|r| r.0 == fd);
            ix.ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        /// Register `fd` under `token` with the given interest.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut regs = self.table();
            if Self::find(&regs, fd).is_ok() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            regs.push((fd, token, interest));
            Ok(())
        }

        /// Change an existing registration's token or interest.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut regs = self.table();
            let ix = Self::find(&regs, fd)?;
            regs[ix] = (fd, token, interest);
            Ok(())
        }

        /// Remove `fd` from the set (before closing it, as with epoll).
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut regs = self.table();
            let ix = Self::find(&regs, fd)?;
            regs.swap_remove(ix);
            Ok(())
        }

        /// Block until readiness or `timeout_ms`; the epoll backend's
        /// contract.
        pub fn wait(&self, events: &mut Vec<ReadyEvent>, timeout_ms: i32) -> io::Result<usize> {
            events.clear();
            let regs = self.table();
            let mut fds: Vec<PollFd> = regs
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: match interest {
                        Interest::Read => POLLIN | POLLRDHUP,
                        Interest::ReadWrite => POLLIN | POLLOUT | POLLRDHUP,
                        Interest::Write => POLLOUT,
                    },
                    revents: 0,
                })
                .collect();
            let tokens: Vec<u64> = regs.iter().map(|r| r.1).collect();
            drop(regs);
            // SAFETY: `fds` outlives the call and its length bounds what
            // the kernel may touch.
            wait_result(unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) })?;
            for (pfd, &token) in fds.iter().zip(&tokens) {
                let bits = pfd.revents;
                if bits != 0 {
                    events.push(ReadyEvent {
                        token,
                        readable: bits & (POLLIN | POLLHUP | POLLRDHUP) != 0,
                        writable: bits & POLLOUT != 0,
                        hangup: bits & (POLLERR | POLLHUP | POLLNVAL | POLLRDHUP) != 0,
                    });
                }
            }
            Ok(events.len())
        }
    }
}

/// No reactor on Windows: [`Epoll::new`] fails, so no value ever exists.
#[cfg(not(unix))]
#[derive(Debug)]
pub enum Epoll {}

#[cfg(not(unix))]
impl Epoll {
    /// Always `Unsupported`; callers fall back to blocking paths.
    pub fn new() -> std::io::Result<Self> {
        Err(std::io::ErrorKind::Unsupported.into())
    }

    /// Unreachable: no `Epoll` value exists.
    pub fn register(&self, _: RawFd, _: u64, _: Interest) -> std::io::Result<()> {
        match *self {}
    }

    /// Unreachable: no `Epoll` value exists.
    pub fn modify(&self, _: RawFd, _: u64, _: Interest) -> std::io::Result<()> {
        match *self {}
    }

    /// Unreachable: no `Epoll` value exists.
    pub fn deregister(&self, _: RawFd) -> std::io::Result<()> {
        match *self {}
    }

    /// Unreachable: no `Epoll` value exists.
    pub fn wait(&self, _: &mut Vec<ReadyEvent>, _: i32) -> std::io::Result<usize> {
        match *self {}
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// The shim contract, stamped out once per backend over the
    /// `Backend` in scope.
    macro_rules! shim_tests {
        () => {
            #[test]
            fn readiness_is_level_triggered_and_tokened() {
                let ep = Backend::new().unwrap();
                let (mut a, b) = pair();
                ep.register(b.as_raw_fd(), 7, Interest::Read).unwrap();

                let mut events = Vec::new();
                // Nothing written yet: a zero-timeout wait reports nothing.
                assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

                a.write_all(b"x").unwrap();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                assert_eq!(events[0].token, 7);
                assert!(events[0].readable);

                // Level-triggered: unread data keeps reporting.
                assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);

                let mut buf = [0u8; 8];
                let mut b = b;
                assert_eq!(b.read(&mut buf).unwrap(), 1);
                assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained fd is quiet");
            }

            #[test]
            fn peer_hangup_reports_readable_and_hangup() {
                let ep = Backend::new().unwrap();
                let (a, b) = pair();
                ep.register(b.as_raw_fd(), 1, Interest::Read).unwrap();
                drop(a);
                let mut events = Vec::new();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                assert!(events[0].readable, "EOF must wake a reader");
                assert!(events[0].hangup);
            }

            #[test]
            fn deregister_silences_an_fd() {
                let ep = Backend::new().unwrap();
                let (mut a, b) = pair();
                ep.register(b.as_raw_fd(), 1, Interest::Read).unwrap();
                a.write_all(b"x").unwrap();
                let mut events = Vec::new();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                ep.deregister(b.as_raw_fd()).unwrap();
                assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
                // Double-deregister errors (ENOENT) instead of corrupting state.
                assert!(ep.deregister(b.as_raw_fd()).is_err());
            }

            #[test]
            fn modify_switches_interest() {
                let ep = Backend::new().unwrap();
                let (mut a, b) = pair();
                // A fresh socket with an empty send buffer is writable, not
                // readable.
                ep.register(b.as_raw_fd(), 3, Interest::Read).unwrap();
                let mut events = Vec::new();
                assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
                ep.modify(b.as_raw_fd(), 4, Interest::ReadWrite).unwrap();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                assert_eq!(events[0].token, 4, "modify rebinds the token");
                assert!(events[0].writable);
                assert!(!events[0].hangup);

                // Write-only interest: pending input no longer wakes it.
                a.write_all(b"x").unwrap();
                ep.modify(b.as_raw_fd(), 5, Interest::Write).unwrap();
                assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
                assert_eq!(events[0].token, 5);
                assert!(events[0].writable);
                assert!(!events[0].readable, "read interest dropped");
            }
        };
    }

    /// The platform's backend: epoll on Linux, `poll(2)` elsewhere.
    type Backend = Epoll;
    shim_tests!();

    /// The `poll(2)` backend, run on Linux too so both backends are tested.
    #[cfg(target_os = "linux")]
    mod poll {
        use super::*;
        type Backend = super::super::poll::Poll;
        shim_tests!();
    }
}
