//! The load generator: one thread multiplexing a few nonblocking
//! connections through [`whois_net::event::Poller`].
//!
//! Two loop shapes, both checking every reply byte for byte:
//!
//! * **closed** — one outstanding request per connection; the next is sent
//!   when the reply arrives. Measures capacity (`sat`), and primes.
//! * **open** — requests leave on a precomputed schedule whether or not
//!   earlier ones were answered. Latency runs from the instant a request
//!   was *due*, so a stall charges every request queued behind it.
//!
//! The thread sleeps in `epoll_wait` between sends. The poller's timeout
//! is whole milliseconds, far coarser than a 250 µs inter-arrival gap, so
//! the next due time is armed on a `timerfd` registered with the same
//! poller: the wake-up is hrtimer-precise and costs no spinning core.

use crate::affinity::Pin;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::{Duration, Instant};
use whois_net::event::{Event, Interest, Poller};

const TIMER_TOKEN: u64 = u64::MAX;
/// Replies may trail the end of a phase by this long before they count
/// as missing.
const DRAIN: Duration = Duration::from_secs(1);
/// How long after a phase's drain window a reply may still arrive before
/// the daemon is declared wedged. Replies inside this window are counted
/// as missing, but keep the connection's FIFO consistent for the next
/// phase.
const WEDGED_AFTER: Duration = Duration::from_secs(10);
/// A send dispatched later than this after its due time is "late".
pub const LATE_NS: u64 = 1_000_000;

/// Pre-encoded request lines (newline included) and the exact reply each
/// must draw (newline excluded), indexed by record.
pub struct Corpus {
    pub requests: Vec<Vec<u8>>,
    pub expected: Vec<String>,
}

/// Why a request did not count as answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// `ok:true` but not byte-identical to the oracle.
    pub mismatch: u64,
    /// `ok:false` without the shed flag.
    pub refused: u64,
    /// Refused by admission control.
    pub shed: u64,
    /// No reply by the end of the drain window.
    pub missing: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.mismatch + self.refused + self.shed + self.missing
    }

    pub fn add(&mut self, other: &Failures) {
        self.mismatch += other.mismatch;
        self.refused += other.refused;
        self.shed += other.shed;
        self.missing += other.missing;
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Mismatch,
    Refused,
    Shed,
}

fn classify(line: &[u8], expected: &[u8]) -> Verdict {
    if line == expected {
        Verdict::Ok
    } else if line.starts_with(b"{\"ok\":false") {
        if line.windows(11).any(|w| w == b"\"shed\":true") {
            Verdict::Shed
        } else {
            Verdict::Refused
        }
    } else {
        Verdict::Mismatch
    }
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    pub name: String,
    /// Offered rate, requests/s (0 for a closed loop).
    pub rate: f64,
    /// Seconds measured: the sending window of an open loop; start to
    /// last reply of a closed one.
    pub secs: f64,
    pub sent: u64,
    pub ok: u64,
    pub failures: Failures,
    /// `(due offset from phase start, latency from due)` of every ok
    /// reply, ns.
    pub samples: Vec<(u64, u64)>,
    /// Dispatch time minus due time of every send, ns (0 in a closed
    /// loop, where a request is due when it is sent).
    pub lag_ns: Vec<u64>,
    /// Requests outstanding at half time and at the end of the sending
    /// window (open loop only).
    pub inflight_mid: usize,
    pub inflight_end: usize,
}

impl PhaseResult {
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Share of sends dispatched more than [`LATE_NS`] after they were
    /// due. Dispatch never waits for the socket, so this is the
    /// generator's own lateness.
    pub fn late_share(&self) -> f64 {
        if self.lag_ns.is_empty() {
            return 0.0;
        }
        self.lag_ns.iter().filter(|&&l| l > LATE_NS).count() as f64 / self.lag_ns.len() as f64
    }

    pub fn replies_per_s(&self) -> f64 {
        self.ok as f64 / self.secs
    }
}

struct Pending {
    rec: u32,
    due_ns: u64,
}

/// The per-connection request FIFO and reply framing. The daemon keeps
/// one job in flight per connection and answers in request order, so the
/// n-th reply line on a connection belongs to the n-th request sent on
/// it.
#[derive(Default)]
struct Channel {
    inflight: VecDeque<Pending>,
    rbuf: Vec<u8>,
}

/// Phase-wide bookkeeping shared by both loop shapes.
struct Tally {
    start_ns: u64,
    /// Replies landing after this instant count as missing.
    drain_deadline_ns: u64,
    out: PhaseResult,
}

impl Tally {
    fn on_dispatch(&mut self, due_ns: u64, now_ns: u64) {
        self.out.sent += 1;
        self.out.lag_ns.push(now_ns.saturating_sub(due_ns));
    }

    fn on_reply(&mut self, pending: &Pending, verdict: Verdict, now_ns: u64) {
        if now_ns > self.drain_deadline_ns {
            self.out.failures.missing += 1;
            return;
        }
        match verdict {
            Verdict::Ok => {
                self.out.ok += 1;
                self.out.samples.push((
                    pending.due_ns - self.start_ns,
                    now_ns.saturating_sub(pending.due_ns),
                ));
            }
            Verdict::Mismatch => self.out.failures.mismatch += 1,
            Verdict::Refused => self.out.failures.refused += 1,
            Verdict::Shed => self.out.failures.shed += 1,
        }
    }
}

impl Channel {
    /// Append received bytes and settle every complete reply line against
    /// the oldest outstanding request. Returns how many replies were
    /// settled, or an error for a line nobody asked for.
    fn feed(
        &mut self,
        bytes: &[u8],
        now_ns: u64,
        corpus: &Corpus,
        tally: &mut Tally,
    ) -> Result<usize, String> {
        self.rbuf.extend_from_slice(bytes);
        let mut consumed = 0;
        let mut settled = 0;
        while let Some(nl) = self.rbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &self.rbuf[consumed..consumed + nl];
            let Some(pending) = self.inflight.pop_front() else {
                return Err(format!(
                    "unsolicited line from daemon: {}",
                    String::from_utf8_lossy(&line[..line.len().min(120)])
                ));
            };
            let expected = corpus.expected[pending.rec as usize].as_bytes();
            tally.on_reply(&pending, classify(line, expected), now_ns);
            settled += 1;
            consumed += nl + 1;
        }
        self.rbuf.drain(..consumed);
        Ok(settled)
    }
}

struct Conn {
    stream: TcpStream,
    channel: Channel,
    /// Request bytes the socket buffer had no room for yet.
    wbuf: Vec<u8>,
    wpos: usize,
    write_interest: bool,
}

/// A relative one-shot `timerfd` registered with the poller.
struct Timer {
    fd: OwnedFd,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(
        clockid: std::os::raw::c_int,
        flags: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
    fn timerfd_settime(
        fd: std::os::raw::c_int,
        flags: std::os::raw::c_int,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> std::os::raw::c_int;
}

impl Timer {
    fn new(poller: &Poller) -> io::Result<Timer> {
        const CLOCK_MONOTONIC: std::os::raw::c_int = 1;
        const TFD_NONBLOCK: std::os::raw::c_int = 0o4000;
        const TFD_CLOEXEC: std::os::raw::c_int = 0o2000000;
        // SAFETY: plain syscall wrapper taking two integers.
        let raw = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` is a descriptor this call just created and nothing
        // else owns; `OwnedFd` closes it exactly once.
        let fd = unsafe { OwnedFd::from_raw_fd(raw) };
        poller.register(fd.as_raw_fd(), TIMER_TOKEN, Interest::READ)?;
        Ok(Timer { fd })
    }

    /// Fire once after `after`; `None` disarms. Setting the timer also
    /// clears an expiry that was never read, so the descriptor needs no
    /// `read` to stop being ready.
    fn set(&self, after: Option<Duration>) -> io::Result<()> {
        let value = match after {
            None => Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            // An all-zero value would disarm: fire in 1 ns instead.
            Some(d) => Timespec {
                tv_sec: d.as_secs() as std::os::raw::c_long,
                tv_nsec: (d.subsec_nanos() as std::os::raw::c_long).max(1),
            },
        };
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: value,
        };
        // SAFETY: `spec` is a live, correctly laid out `struct itimerspec`
        // for the duration of the call; a null `old_value` is allowed.
        let rc = unsafe { timerfd_settime(self.fd.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// One generator thread's connections to one daemon.
pub struct LoadGen {
    /// Keeps this thread on one CPU for the generator's lifetime.
    _pin: Option<Pin>,
    poller: Poller,
    timer: Timer,
    conns: Vec<Conn>,
    epoch: Instant,
    events: Vec<Event>,
    scratch: Vec<u8>,
}

impl LoadGen {
    pub fn connect(addr: SocketAddr, conns: usize) -> Result<LoadGen, String> {
        let pin = Pin::lowest_cpu();
        let poller = Poller::new().map_err(|e| format!("epoll unavailable: {e}"))?;
        let timer = Timer::new(&poller).map_err(|e| format!("timerfd unavailable: {e}"))?;
        let mut out = Vec::with_capacity(conns);
        for token in 0..conns {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                    poller.register(s.as_raw_fd(), token as u64, Interest::READ)?;
                    Ok(s)
                })
                .map_err(|e| format!("connect {addr}: {e}"))?;
            out.push(Conn {
                stream,
                channel: Channel::default(),
                wbuf: Vec::new(),
                wpos: 0,
                write_interest: false,
            });
        }
        Ok(LoadGen {
            _pin: pin,
            poller,
            timer,
            conns: out,
            epoch: Instant::now(),
            events: Vec::new(),
            scratch: vec![0u8; 1 << 16],
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.channel.inflight.len()).sum()
    }

    /// Queue one request on connection `c`. Never blocks: bytes the
    /// socket will not take now wait in `wbuf` behind write interest.
    fn dispatch(&mut self, c: usize, rec: u32, due_ns: u64, corpus: &Corpus) -> io::Result<()> {
        let conn = &mut self.conns[c];
        conn.channel.inflight.push_back(Pending { rec, due_ns });
        let bytes = &corpus.requests[rec as usize];
        if conn.wpos < conn.wbuf.len() {
            conn.wbuf.extend_from_slice(bytes);
        } else {
            conn.wbuf.clear();
            conn.wpos = 0;
            let written = match conn.stream.write(bytes) {
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    0
                }
                Err(e) => return Err(e),
            };
            conn.wbuf.extend_from_slice(&bytes[written..]);
        }
        if conn.wpos < conn.wbuf.len() && !conn.write_interest {
            conn.write_interest = true;
            self.poller
                .reregister(conn.stream.as_raw_fd(), c as u64, Interest::READ_WRITE)?;
        }
        Ok(())
    }

    fn flush(&mut self, c: usize) -> io::Result<()> {
        let conn = &mut self.conns[c];
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if conn.write_interest {
            conn.write_interest = false;
            self.poller
                .reregister(conn.stream.as_raw_fd(), c as u64, Interest::READ)?;
        }
        Ok(())
    }

    /// Read everything connection `c` has and settle the complete reply
    /// lines. Returns the number settled.
    fn drain_replies(
        &mut self,
        c: usize,
        corpus: &Corpus,
        tally: &mut Tally,
    ) -> Result<usize, String> {
        let mut settled = 0;
        loop {
            let conn = &mut self.conns[c];
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => return Err(format!("connection {c} closed by the daemon")),
                Ok(n) => {
                    let now = self.epoch.elapsed().as_nanos() as u64;
                    settled += conn.channel.feed(&self.scratch[..n], now, corpus, tally)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(settled),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("connection {c}: {e}")),
            }
        }
    }

    /// Sleep until the timer, a socket or `cap` says otherwise, then
    /// service the sockets. Returns per-connection settled counts through
    /// `on_settled`.
    fn wait_and_service(
        &mut self,
        cap: Duration,
        corpus: &Corpus,
        tally: &mut Tally,
        mut on_settled: impl FnMut(usize, usize),
    ) -> Result<(), String> {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.poller
            .wait(&mut events, Some(cap))
            .map_err(|e| format!("epoll_wait: {e}"))?;
        for ev in &events {
            if ev.token == TIMER_TOKEN {
                continue;
            }
            let c = ev.token as usize;
            if ev.writable {
                self.flush(c).map_err(|e| format!("connection {c}: {e}"))?;
            }
            if ev.readable || ev.hangup {
                let n = self.drain_replies(c, corpus, tally)?;
                if n > 0 {
                    on_settled(c, n);
                }
            }
        }
        self.events = events;
        Ok(())
    }

    /// Closed loop: every connection keeps exactly one request outstanding, drawn from `source`, until `source` runs
    /// dry or `limit` has passed. Latency runs from the send.
    pub fn closed(
        &mut self,
        name: &str,
        corpus: &Corpus,
        source: &mut dyn FnMut() -> Option<u32>,
        limit: Duration,
    ) -> Result<PhaseResult, String> {
        let start = self.now_ns();
        let stop = start + limit.as_nanos() as u64;
        let mut tally = Tally {
            start_ns: start,
            drain_deadline_ns: stop + DRAIN.as_nanos() as u64,
            out: PhaseResult {
                name: name.to_string(),
                ..Default::default()
            },
        };
        let fail = |e: String| format!("phase {name}: {e}");
        let mut dry = false;
        let mut idle: Vec<usize> = (0..self.conns.len()).collect();
        loop {
            let now = self.now_ns();
            if now < stop && !dry {
                for c in idle.drain(..) {
                    match source() {
                        Some(rec) => {
                            self.dispatch(c, rec, now, corpus)
                                .map_err(|e| fail(e.to_string()))?;
                            tally.on_dispatch(now, now);
                        }
                        None => {
                            dry = true;
                            break;
                        }
                    }
                }
            }
            if self.outstanding() == 0 && (dry || now >= stop) {
                break;
            }
            if now > stop + WEDGED_AFTER.as_nanos() as u64 {
                return Err(fail(format!(
                    "{} replies still missing {:?} after the phase ended (daemon wedged?)",
                    self.outstanding(),
                    WEDGED_AFTER
                )));
            }
            let cap = Duration::from_nanos(stop.saturating_sub(now))
                .clamp(Duration::from_millis(1), Duration::from_millis(100));
            self.wait_and_service(cap, corpus, &mut tally, |c, _| idle.push(c))
                .map_err(fail)?;
        }
        let mut out = tally.out;
        // Up to the last reply, so replies/s is not flattered by the tail.
        out.secs = (self.now_ns() - start) as f64 / 1e9;
        Ok(out)
    }

    /// Open loop: `schedule` holds `(offset from phase start in ns,
    /// record)` in time order. Each request goes to the connection with
    /// the fewest outstanding, at its due time or as soon after as this
    /// thread gets to run; latency runs from the due time either way.
    pub fn open(
        &mut self,
        name: &str,
        corpus: &Corpus,
        schedule: &[(u64, u32)],
        rate: f64,
        secs: f64,
    ) -> Result<PhaseResult, String> {
        let start = self.now_ns();
        let window = (secs * 1e9) as u64;
        let stop = start + window;
        let mut tally = Tally {
            start_ns: start,
            drain_deadline_ns: stop + DRAIN.as_nanos() as u64,
            out: PhaseResult {
                name: name.to_string(),
                rate,
                secs,
                samples: Vec::with_capacity(schedule.len()),
                lag_ns: Vec::with_capacity(schedule.len()),
                ..Default::default()
            },
        };
        let fail = |e: String| format!("phase {name}: {e}");
        let mut next = 0;
        let mut inflight_mid = None;
        let mut inflight_end = None;
        loop {
            let now = self.now_ns();
            while next < schedule.len() && start + schedule[next].0 <= now {
                let (offset, rec) = schedule[next];
                let c = (0..self.conns.len())
                    .min_by_key(|&c| self.conns[c].channel.inflight.len())
                    .expect("at least one connection");
                self.dispatch(c, rec, start + offset, corpus)
                    .map_err(|e| fail(e.to_string()))?;
                tally.on_dispatch(start + offset, now);
                next += 1;
            }
            if inflight_mid.is_none() && now >= start + window / 2 {
                inflight_mid = Some(self.outstanding());
            }
            if inflight_end.is_none() && now >= stop {
                inflight_end = Some(self.outstanding());
            }
            if next == schedule.len() && self.outstanding() == 0 && now >= stop {
                break;
            }
            if now > stop + WEDGED_AFTER.as_nanos() as u64 {
                return Err(fail(format!(
                    "{} replies still missing {:?} after the phase ended (daemon wedged?)",
                    self.outstanding(),
                    WEDGED_AFTER
                )));
            }
            let until_next = match schedule.get(next) {
                Some(&(offset, _)) => (start + offset).saturating_sub(now),
                // Nothing left to send: wake at the end of the window to
                // take the end-of-phase backlog reading.
                None => stop.saturating_sub(now),
            };
            self.timer
                .set((until_next > 0).then(|| Duration::from_nanos(until_next)))
                .map_err(|e| fail(format!("timerfd_settime: {e}")))?;
            self.wait_and_service(Duration::from_millis(100), corpus, &mut tally, |_, _| {})
                .map_err(fail)?;
        }
        self.timer
            .set(None)
            .map_err(|e| fail(format!("timerfd_settime: {e}")))?;
        let mut out = tally.out;
        out.inflight_mid = inflight_mid.unwrap_or(0);
        out.inflight_end = inflight_end.unwrap_or(0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn corpus(n: usize) -> Corpus {
        Corpus {
            requests: (0..n).map(|i| format!("REQ {i}\n").into_bytes()).collect(),
            expected: (0..n)
                .map(|i| format!("{{\"ok\":true,\"r\":{i}}}"))
                .collect(),
        }
    }

    fn tally(start_ns: u64, drain_deadline_ns: u64) -> Tally {
        Tally {
            start_ns,
            drain_deadline_ns,
            out: PhaseResult::default(),
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_when_a_send_is_delayed() {
        // Due at 1,000; the generator only got to it at 1,500; the reply
        // landed at 2,200. The request waited 1,200, of which 500 was the
        // generator's own lag.
        let mut t = tally(0, u64::MAX);
        t.on_dispatch(1_000, 1_500);
        let p = Pending {
            rec: 0,
            due_ns: 1_000,
        };
        t.on_reply(&p, Verdict::Ok, 2_200);
        assert_eq!(t.out.samples, [(1_000, 1_200)]);
        assert_eq!(t.out.lag_ns, [500]);
        assert_eq!((t.out.sent, t.out.ok), (1, 1));
        // A 2 ms lag is late; 500 ns is not.
        t.on_dispatch(5_000, 5_000 + 2 * LATE_NS);
        assert_eq!(t.out.late_share(), 0.5);
    }

    #[test]
    fn a_reply_after_the_drain_window_is_missing_whatever_it_says() {
        let mut t = tally(0, 10_000);
        let p = Pending { rec: 0, due_ns: 0 };
        t.on_reply(&p, Verdict::Ok, 10_001);
        assert_eq!(t.out.ok, 0);
        assert_eq!(t.out.failures.missing, 1);
        assert!(t.out.samples.is_empty());
    }

    #[test]
    fn replies_match_requests_first_in_first_out() {
        let corpus = corpus(3);
        let mut ch = Channel::default();
        for (rec, due_ns) in [(2, 10), (0, 20), (1, 30)] {
            ch.inflight.push_back(Pending { rec, due_ns });
        }
        let mut t = tally(0, u64::MAX);
        // First reply arrives split across two reads; the second is a
        // well-formed reply to the wrong request; the third is a shed.
        assert_eq!(ch.feed(b"{\"ok\":true,", 100, &corpus, &mut t), Ok(0));
        assert_eq!(
            ch.feed(b"\"r\":2}\n{\"ok\":true,\"r\":1}\n", 200, &corpus, &mut t),
            Ok(2)
        );
        let shed = b"{\"ok\":false,\"error\":\"overloaded\",\"shed\":true}\n";
        assert_eq!(ch.feed(shed, 300, &corpus, &mut t), Ok(1));
        assert_eq!(t.out.samples, [(10, 190)]);
        assert_eq!(
            t.out.failures,
            Failures {
                mismatch: 1,
                shed: 1,
                ..Default::default()
            }
        );
        assert!(ch.inflight.is_empty() && ch.rbuf.is_empty());
        // With nothing outstanding, any further line is a protocol error.
        assert!(ch.feed(b"{\"ok\":true}\n", 400, &corpus, &mut t).is_err());
        assert_eq!(
            classify(b"{\"ok\":false,\"error\":\"bad\"}", b"x"),
            Verdict::Refused
        );
    }

    /// A line server answering `REQ n` with the reply `corpus(n)` expects,
    /// one connection per thread, in order.
    fn line_server(conns: usize) -> (SocketAddr, Vec<std::thread::JoinHandle<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = std::thread::spawn(move || {
            let handlers: Vec<_> = (0..conns)
                .map(|_| {
                    let (stream, _) = listener.accept().unwrap();
                    std::thread::spawn(move || {
                        let mut out = stream.try_clone().unwrap();
                        for line in BufReader::new(stream).lines() {
                            let Ok(line) = line else { return };
                            let n = line.trim_start_matches("REQ ");
                            if out
                                .write_all(format!("{{\"ok\":true,\"r\":{n}}}\n").as_bytes())
                                .is_err()
                            {
                                return;
                            }
                        }
                    })
                })
                .collect();
            for h in handlers {
                h.join().unwrap();
            }
        });
        (addr, vec![acceptor])
    }

    #[test]
    fn closed_and_open_loops_over_loopback() {
        let corpus = corpus(50);
        let (addr, threads) = line_server(2);
        let mut gen = LoadGen::connect(addr, 2).unwrap();

        let mut recs = 0..50u32;
        let primed = gen
            .closed(
                "prime",
                &corpus,
                &mut || recs.next(),
                Duration::from_secs(30),
            )
            .unwrap();
        assert_eq!((primed.sent, primed.ok), (50, 50));
        assert_eq!(primed.failures.total(), 0);

        // 200 requests, one every 100 µs.
        let schedule: Vec<(u64, u32)> = (0..200u64)
            .map(|i| (i * 100_000, (i % 50) as u32))
            .collect();
        let open = gen.open("ref", &corpus, &schedule, 10_000.0, 0.02).unwrap();
        assert_eq!((open.sent, open.ok), (200, 200));
        assert_eq!(open.failures.total(), 0);
        assert_eq!(open.lag_ns.len(), 200);
        assert_eq!(gen.outstanding(), 0);

        drop(gen);
        for t in threads {
            t.join().unwrap();
        }
    }
}
