//! The readiness core: an epoll-backed poller and a cross-thread waker.
//!
//! The serving core ([`crate::serving`], which runs both the
//! `whois-net` test/crawl server and the `whois-serve` parse daemon)
//! multiplexes thousands of nonblocking sockets on one acceptor
//! thread. The kernel interface it needs is tiny — register a file
//! descriptor with a token, wait for readiness — and the vendored-deps
//! constraint rules out `mio`/`tokio`, so the epoll surface is declared
//! directly against the platform libc that every Rust binary already
//! links. No crate is involved.
//!
//! * [`Poller`] — `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux.
//!   Level-triggered by default (a connection with unread bytes or
//!   unflushed replies stays ready, which composes with pooled buffers
//!   that drain incrementally); [`Interest::edge`] opts a registration
//!   into edge-triggered mode for sources that are drained to
//!   `WouldBlock` on every wakeup.
//! * [`Waker`] — a loopback UDP socket connected to itself. Worker
//!   threads call [`Waker::wake`] to interrupt `epoll_wait` when a
//!   parse completion is ready; the event loop drains it and polls its
//!   completion channel. This avoids the `pipe2`/`eventfd` FFI while
//!   behaving identically (a full socket buffer just means a wake is
//!   already pending).
//!
//! Tokens are caller-chosen `u64`s carried verbatim in the kernel event
//! (`epoll_data`). The servers use monotonically increasing tokens and
//! never reuse them, which makes stale events (for a connection closed
//! earlier in the same wakeup batch) detectable by map lookup instead
//! of generation counters.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

/// Non-unix placeholder so the crate still compiles; [`Poller::new`]
/// reports `Unsupported` at runtime instead.
#[cfg(not(unix))]
pub type RawFd = i32;

/// What a registration wants to hear about.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// Readable readiness (`EPOLLIN`).
    pub readable: bool,
    /// Writable readiness (`EPOLLOUT`).
    pub writable: bool,
    /// Edge-triggered (`EPOLLET`) instead of the level-triggered
    /// default.
    pub edge: bool,
}

impl Interest {
    /// Level-triggered read interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
    };

    /// Level-triggered write interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
        edge: false,
    };

    /// Level-triggered read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
        edge: false,
    };

    /// This interest, edge-triggered.
    pub fn edge_triggered(self) -> Interest {
        Interest { edge: true, ..self }
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or a pending error/hangup, which reads surface).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// The peer is gone (`EPOLLHUP`/`EPOLLERR`, reported whatever the
    /// interest): nothing more can be read or delivered — tear down.
    pub hangup: bool,
    /// The peer closed its sending side (`EPOLLRDHUP`): no more
    /// requests will arrive, but replies still owed can be written.
    /// Armed only together with read interest, so a registration that
    /// has stopped reading is not woken by it again.
    pub read_closed: bool,
}

/// The raw descriptor the poller registers `source` under.
#[cfg(unix)]
pub(crate) fn fd_of(source: &impl AsRawFd) -> RawFd {
    source.as_raw_fd()
}

/// Non-unix placeholder: no [`Poller`] can exist to be handed the
/// result, so this is never called.
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_source: &T) -> RawFd {
    unreachable!("no poller exists on this platform")
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    // Declared straight against the platform libc (always linked);
    // values are part of the Linux kernel ABI and arch-independent.
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    /// `struct epoll_event`; packed on x86-64 (kernel ABI quirk),
    /// naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Copy, Clone)]
    pub struct RawEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut RawEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = 0;
        if interest.readable {
            // Level-triggered RDHUP re-fires until the registration
            // changes, so it is only asked for while reads are.
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        if interest.edge {
            events |= EPOLLET;
        }
        events
    }

    pub struct Selector {
        epfd: RawFd,
    }

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Selector { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = RawEvent {
                events: mask(interest),
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = RawEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<std::time::Duration>,
        ) -> io::Result<usize> {
            const CAPACITY: usize = 1024;
            let mut raw = [RawEvent { events: 0, data: 0 }; CAPACITY];
            // Round sub-millisecond timeouts up so a 100µs deadline
            // doesn't degenerate into a busy spin at timeout 0.
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d
                    .as_millis()
                    .max(u128::from(!d.is_zero()))
                    .min(i32::MAX as u128) as c_int,
            };
            let n = loop {
                match cvt(unsafe {
                    epoll_wait(self.epfd, raw.as_mut_ptr(), CAPACITY as c_int, timeout_ms)
                }) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &raw[..n] {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data,
                    readable: events & EPOLLIN != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                    read_closed: events & EPOLLRDHUP != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, Interest};
    use std::io;

    /// Stub selector: the event driver is Linux-only in this build;
    /// the serving core falls back to its blocking driver.
    pub struct Selector;

    impl Selector {
        pub fn new() -> io::Result<Selector> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "event-loop serving requires epoll (linux); use blocking mode",
            ))
        }

        pub fn register(&self, _fd: super::RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            unreachable!("stub selector cannot be constructed")
        }

        pub fn reregister(&self, _fd: super::RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            unreachable!("stub selector cannot be constructed")
        }

        pub fn deregister(&self, _fd: super::RawFd) -> io::Result<()> {
            unreachable!("stub selector cannot be constructed")
        }

        pub fn wait(
            &self,
            _out: &mut Vec<Event>,
            _timeout: Option<std::time::Duration>,
        ) -> io::Result<usize> {
            unreachable!("stub selector cannot be constructed")
        }
    }
}

/// A readiness poller: register file descriptors under caller-chosen
/// tokens, then [`wait`](Poller::wait) for events.
pub struct Poller {
    selector: sys::Selector,
}

impl Poller {
    /// New poller. `Err(Unsupported)` on platforms without epoll, which
    /// the serving core translates into "use the blocking driver".
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            selector: sys::Selector::new()?,
        })
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.selector.register(fd, token, interest)
    }

    /// Change an existing registration's interest (or token).
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.selector.reregister(fd, token, interest)
    }

    /// Stop watching `fd`. Must be called before the descriptor is
    /// closed when other descriptors remain registered.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.selector.deregister(fd)
    }

    /// Block until readiness (or `timeout`), appending events to `out`.
    /// Returns the number of events appended; `0` means the timeout
    /// elapsed. `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.selector.wait(out, timeout)
    }
}

/// Cross-thread wakeup for a [`Poller`] loop: a nonblocking loopback
/// UDP socket connected to itself, registered read-only. [`wake`]
/// (any thread) makes the loop's `wait` return; the loop calls
/// [`drain`] and then checks whatever queue the wake advertised.
///
/// [`wake`]: Waker::wake
/// [`drain`]: Waker::drain
#[derive(Debug)]
pub struct Waker {
    socket: UdpSocket,
}

impl Waker {
    /// Create a waker and register it with `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(socket.local_addr()?)?;
        socket.set_nonblocking(true)?;
        poller.register(fd_of(&socket), token, Interest::READ)?;
        Ok(Waker { socket })
    }

    /// Interrupt the poll loop. Callable from any thread; cheap and
    /// idempotent (a full socket buffer means a wake is already
    /// pending, which is exactly as good).
    pub fn wake(&self) {
        let _ = self.socket.send(&[1]);
    }

    /// Consume pending wakeups (event-loop side).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while self.socket.recv(&mut buf).is_ok() {}
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_on_data() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: the wait times out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"hi").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn level_triggered_stays_ready_until_drained() {
        let poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        a.write_all(b"xyz").unwrap();

        for _ in 0..2 {
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
        }
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 3);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained socket is no longer ready");
    }

    #[test]
    fn edge_triggered_fires_once_per_arrival() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller
            .register(b.as_raw_fd(), 2, Interest::READ.edge_triggered())
            .unwrap();
        a.write_all(b"x").unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        // Without reading, the edge does not re-fire.
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        // A new arrival is a new edge.
        a.write_all(b"y").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
    }

    #[test]
    fn writable_and_reregister() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        // Read-only first: an idle socket reports nothing.
        poller.register(a.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
        // Flip to write interest: an empty send buffer is writable now.
        poller
            .reregister(a.as_raw_fd(), 3, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        poller.deregister(a.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    #[test]
    fn half_close_is_read_closed_and_full_close_is_hangup() {
        let poller = Poller::new().unwrap();
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 4, Interest::READ).unwrap();
        a.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token == 4 && e.read_closed && e.readable && !e.hangup));

        // Once reads are no longer asked for, the half-close stops
        // waking the poller (it used to re-fire on every wait).
        poller
            .reregister(b.as_raw_fd(), 4, Interest::default())
            .unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "{events:?}");

        // Both directions shut: the peer is gone, reported regardless
        // of interest.
        b.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 4 && e.hangup));
    }

    #[test]
    fn waker_interrupts_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poller, 99).unwrap());
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
            w.wake(); // double-wake coalesces harmlessly
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        // Join before draining: the second wake may not have landed
        // yet, and a drain that races it leaves a stale readable.
        handle.join().unwrap();
        waker.drain();
        // Drained: the next wait times out instead of spinning.
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }
}
