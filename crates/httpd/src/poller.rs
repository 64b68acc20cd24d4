//! Readiness polling: a minimal mio-style shim over `epoll(7)` on Linux
//! with a portable `poll(2)` fallback for other unix-likes.
//!
//! The workspace builds offline with no registry access, so instead of
//! depending on `mio`/`libc` this module declares the three epoll entry
//! points (plus `poll` and `close`) as `extern "C"` symbols; Rust's std
//! already links the platform libc, so they resolve at link time. Only the
//! surface the event loop needs is provided: level-triggered registration
//! keyed by a caller-chosen [`Token`], and a blocking [`Poller::wait`].
//!
//! Backend selection is automatic (epoll where available, else `poll(2)`);
//! setting `PPG_FORCE_POLL=1` pins the fallback, which CI uses to exercise
//! both code paths.
//!
//! The thread that waits owns the [`Poller`]; any other thread changes a
//! registration's interest through a [`Rearmer`]. On epoll that is a plain
//! `EPOLL_CTL_MOD` on the shared epoll fd, which stays open until the last
//! rearmer is gone. On `poll(2)` the change is handed to the waiting thread
//! and applied at the start of its next [`Poller::wait`], and the wait is
//! woken so that happens at once.

use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::Duration;

/// Caller-chosen identifier attached to a registered fd and echoed back on
/// its events.
pub type Token = usize;

/// Which readiness conditions a registration subscribes to. An empty
/// interest keeps the fd registered (so hangups are still noticed where the
/// backend reports them unconditionally) but requests no read/write events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// No readiness events (parked fd).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: Token,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept writes without blocking.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is unusable.
    pub hangup: bool,
}

/// A readiness poller over one of the platform backends.
pub enum Poller {
    /// Linux `epoll(7)`.
    #[cfg(target_os = "linux")]
    Epoll(epoll::Epoll),
    /// POSIX `poll(2)`.
    Poll(pollfd::PollSet),
}

impl Poller {
    /// Open a poller on the preferred backend for this platform.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if std::env::var_os("PPG_FORCE_POLL").is_none_or(|v| v == "0") {
                if let Ok(ep) = epoll::Epoll::new() {
                    return Ok(Poller::Epoll(ep));
                }
            }
        }
        Ok(Poller::Poll(pollfd::PollSet::new()?))
    }

    /// A handle that changes registrations of this poller from any thread.
    pub fn rearmer(&self) -> Rearmer {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => Rearmer::Epoll(Arc::clone(&ep.fd)),
            Poller::Poll(ps) => Rearmer::Poll(Arc::clone(&ps.remote)),
        }
    }

    /// Name of the active backend (for logs and tests).
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.fd.ctl(epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(ps) => ps.register(fd, token, interest),
        }
    }

    /// Change the interest set of an already-registered fd.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.fd.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(ps) => ps.register(fd, token, interest),
        }
    }

    /// Stop watching `fd`. Harmless if the fd was never registered.
    pub fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let _ = ep.fd.ctl(epoll::EPOLL_CTL_DEL, fd, 0, Interest::NONE);
            }
            Poller::Poll(ps) => ps.deregister(fd),
        }
    }

    /// Block until at least one registered fd is ready or `timeout` elapses
    /// (`None` blocks indefinitely). Ready events are appended to `events`
    /// after it is cleared; an interrupted wait returns with no events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
            None => -1,
        };
        let result = match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.wait(events, timeout_ms),
            Poller::Poll(ps) => ps.wait(events, timeout_ms),
        };
        match result {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            other => other,
        }
    }
}

/// Changes the interest set of a registered fd from any thread; see the
/// module docs for how each backend applies it.
#[derive(Clone)]
pub enum Rearmer {
    /// The epoll fd, shared with the [`Poller`].
    #[cfg(target_os = "linux")]
    Epoll(Arc<epoll::EpollFd>),
    /// The hand-off queue of the `poll(2)` set.
    Poll(Arc<pollfd::Remote>),
}

impl Rearmer {
    /// Set `fd`'s interest to `interest`. The fd must still be registered
    /// under `token`: on epoll an fd the waiting thread deregistered fails
    /// with `NotFound`; on `poll(2)` a change for an fd no longer registered
    /// under `token` is dropped when the waiting thread applies it.
    pub fn rearm(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Rearmer::Epoll(epfd) => epfd.ctl(epoll::EPOLL_CTL_MOD, fd, token, interest),
            Rearmer::Poll(remote) => {
                remote.push(fd, token, interest);
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Interest, Token};
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Arc;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel ABI packs `epoll_event` on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// An epoll fd, closed when the last holder drops it.
    pub struct EpollFd(RawFd);

    impl EpollFd {
        /// `epoll_ctl(2)`; safe from any thread.
        pub fn ctl(&self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            let mut mask = EPOLLRDHUP;
            if interest.readable {
                mask |= EPOLLIN;
            }
            if interest.writable {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: mask,
                data: token as u64,
            };
            // SAFETY: `self.0` is an open epoll fd (closed only by `Drop`),
            // and `ev` is a live, properly laid-out `epoll_event`.
            if unsafe { epoll_ctl(self.0, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Drop for EpollFd {
        fn drop(&mut self) {
            // SAFETY: this is the fd's only owner, and it is dropped once.
            unsafe { close(self.0) };
        }
    }

    /// An epoll instance plus its scratch event buffer.
    pub struct Epoll {
        pub fd: Arc<EpollFd>,
        scratch: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: `epoll_create1` takes a flags word and touches no memory.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                fd: Arc::new(EpollFd(epfd)),
                scratch: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            // SAFETY: the epoll fd is open while `self.fd` lives, and the
            // kernel writes at most `scratch.len()` events into `scratch`.
            let n = unsafe {
                epoll_wait(
                    self.fd.0,
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            for ev in &self.scratch[..n as usize] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data as Token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

mod pollfd {
    use super::{Event, Interest, Token};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::ffi::c_ulong;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: i32) -> i32;
    }

    /// Interest changes made by other threads, waiting for the next
    /// [`PollSet::wait`], plus the write end of the pipe that wakes it.
    pub struct Remote {
        pending: Mutex<Vec<(RawFd, Token, Interest)>>,
        wake_tx: UnixStream,
    }

    impl Remote {
        pub fn push(&self, fd: RawFd, token: Token, interest: Interest) {
            self.pending.lock().push((fd, token, interest));
            // WouldBlock means a wake-up is already pending.
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// A `poll(2)` set: the registration map plus a flat pollfd array
    /// rebuilt lazily whenever registrations change. Slot 0 of the array is
    /// the read end of the [`Remote`]'s wake pipe.
    pub struct PollSet {
        registered: HashMap<RawFd, (Token, Interest)>,
        flat: Vec<PollFd>,
        tokens: Vec<Token>,
        dirty: bool,
        pub remote: Arc<Remote>,
        wake_rx: UnixStream,
        /// The last poll saw the wake pipe readable.
        woken: bool,
    }

    impl PollSet {
        pub fn new() -> io::Result<PollSet> {
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            Ok(PollSet {
                registered: HashMap::new(),
                flat: Vec::new(),
                tokens: Vec::new(),
                dirty: true,
                remote: Arc::new(Remote {
                    pending: Mutex::new(Vec::new()),
                    wake_tx,
                }),
                wake_rx,
                woken: false,
            })
        }

        pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            self.dirty = true;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) {
            self.registered.remove(&fd);
            self.dirty = true;
        }

        /// Apply the changes other threads handed over. The wake pipe is
        /// emptied first, so a change pushed after this point leaves a byte
        /// behind and the coming poll returns at once.
        fn apply_remote(&mut self) {
            if self.woken {
                let mut buf = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
                self.woken = false;
            }
            for (fd, token, interest) in self.remote.pending.lock().drain(..) {
                // A change for an fd deregistered (and maybe reused under a
                // new token) since it was made is stale: drop it.
                if let Some(slot) = self.registered.get_mut(&fd) {
                    if slot.0 == token && slot.1 != interest {
                        slot.1 = interest;
                        self.dirty = true;
                    }
                }
            }
        }

        fn rebuild(&mut self) {
            self.flat.clear();
            self.tokens.clear();
            self.flat.push(PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            self.tokens.push(0);
            for (&fd, &(token, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                self.flat.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                self.tokens.push(token);
            }
            self.dirty = false;
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            self.apply_remote();
            if self.dirty {
                self.rebuild();
            }
            // SAFETY: `flat` is a live array of `flat.len()` pollfds.
            let n = unsafe {
                poll(
                    self.flat.as_mut_ptr(),
                    self.flat.len() as c_ulong,
                    timeout_ms,
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            self.woken = self.flat[0].revents != 0;
            for (slot, &token) in self.flat.iter().zip(&self.tokens).skip(1) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: bits & POLLIN != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn backends() -> Vec<Poller> {
        let mut pollers = vec![Poller::Poll(pollfd::PollSet::new().unwrap())];
        #[cfg(target_os = "linux")]
        pollers.push(Poller::Epoll(epoll::Epoll::new().unwrap()));
        pollers
    }

    #[test]
    fn readable_event_delivered_on_each_backend() {
        for mut poller in backends() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller
                .register(b.as_raw_fd(), 7, Interest::READABLE)
                .unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{}: spurious event", poller.backend());
            a.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend());
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
            let mut buf = [0u8; 8];
            let mut b2 = &b;
            assert_eq!(b2.read(&mut buf).unwrap(), 1);
        }
    }

    #[test]
    fn hangup_reported_after_peer_close() {
        for mut poller in backends() {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller
                .register(b.as_raw_fd(), 3, Interest::READABLE)
                .unwrap();
            drop(a);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend());
            // Either a hangup flag or a readable EOF is acceptable; the event
            // loop treats both as end-of-stream.
            assert!(events[0].readable || events[0].hangup);
        }
    }

    #[test]
    fn reregister_changes_interest() {
        for mut poller in backends() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller
                .register(b.as_raw_fd(), 1, Interest::READABLE)
                .unwrap();
            a.write_all(b"y").unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert_eq!(events.len(), 1, "{}", poller.backend());
            // Park the fd: pending bytes must no longer produce read events.
            poller.reregister(b.as_raw_fd(), 1, Interest::NONE).unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.readable),
                "{}: parked fd reported readable",
                poller.backend()
            );
            // And writable interest reports immediately on an open socket.
            poller
                .reregister(b.as_raw_fd(), 1, Interest::WRITABLE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().any(|e| e.writable), "{}", poller.backend());
            poller.deregister(b.as_raw_fd());
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{}", poller.backend());
        }
    }

    #[test]
    fn rearm_from_another_thread_takes_effect() {
        for mut poller in backends() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            let fd = b.as_raw_fd();
            poller.register(fd, 5, Interest::NONE).unwrap();
            a.write_all(b"z").unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{}: parked fd fired", poller.backend());

            let rearmer = poller.rearmer();
            std::thread::spawn(move || rearmer.rearm(fd, 5, Interest::READABLE))
                .join()
                .unwrap()
                .unwrap();
            // On poll(2) the first wait may return for the wake-up alone.
            let mut fired = false;
            for _ in 0..2 {
                poller
                    .wait(&mut events, Some(Duration::from_millis(1000)))
                    .unwrap();
                fired |= events.iter().any(|e| e.token == 5 && e.readable);
            }
            assert!(fired, "{}: rearmed fd never fired", poller.backend());

            // A rearm that races a deregistration must not resurrect the fd.
            poller.deregister(fd);
            let _ = poller.rearmer().rearm(fd, 5, Interest::READABLE);
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.is_empty(),
                "{}: stale rearm applied",
                poller.backend()
            );
        }
    }
}
