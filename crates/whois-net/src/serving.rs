//! The serving core: one [`Handler`] contract, two drivers.
//!
//! Both servers in this workspace — the WHOIS simulator in
//! [`crate::server`] and the `whois-serve` parse daemon — are
//! [`Handler`]s: they own per-connection protocol state and say, each
//! time a connection has something for them, what it should do next
//! (a [`Step`]). Everything else lives here, once:
//!
//! * The **event driver** — one thread multiplexing every connection
//!   through an epoll [`Poller`]: the accept burst, monotonic tokens and
//!   the connection map, pooled read buffers, interest re-registration,
//!   the min-deadline poll timeout and deadline sweep, a completion
//!   channel plus [`Waker`] for replies produced off-loop, teardown,
//!   and the two-stage shutdown.
//! * The **blocking reference driver** — a thread per connection that
//!   runs the *same* handler with remaining-budget `read()`s, a `sleep`
//!   where the event driver arms a deadline and a `recv()` where it
//!   waits for a completion. It is the differential oracle for the
//!   event driver and the fallback where [`Poller::new`] fails.
//!
//! # The handler contract
//!
//! The driver calls [`Handler::admit`] on the acceptor thread for every
//! accepted socket, then — for an admitted connection, never
//! concurrently — [`on_data`](Handler::on_data) whenever request bytes
//! arrived, [`on_completion`](Handler::on_completion) when a
//! [`Completer`] handed out while parked delivers, and
//! [`on_deadline`](Handler::on_deadline) when the idle clock or a
//! [`Step::ParkUntil`] instant passes; finally, exactly once,
//! [`on_close`](Handler::on_close). A callback sees the unconsumed
//! request bytes in [`Io::buf`], queues reply [`Chunk`]s with
//! [`Io::queue`], and returns the connection's next [`Step`].
//!
//! The idle clock (slowloris guard) runs from accept, or from the last
//! [`Io::restart_idle`], for [`Handler::read_timeout`]; it is suspended
//! while the connection is parked.
//!
//! # Half-close
//!
//! A peer that closes only its sending side has said "no more
//! requests", not "go away": the driver stops polling that socket's
//! read side, lets a parked connection finish, writes what is owed and
//! then closes. `EPOLLHUP`/`EPOLLERR` mean the peer is gone: the
//! connection closes at once and a late completion misses the map.
//!
//! # Shutdown, in two stages
//!
//! 1. [`Handler::draining`] turns true: the driver stops accepting;
//!    live connections keep being served (the handler decides what new
//!    requests get).
//! 2. [`Serving::stop`]: the event driver delivers the completions
//!    already on its channel, gives sockets a bounded window to flush,
//!    closes whatever is left and exits. The owner calls it once
//!    whatever produces completions has finished, so admitted work is
//!    delivered, not dropped. The blocking driver's connection threads
//!    are detached and run to their own end.

use crate::buffer_pool::BufferPool;
use crate::conn::{Chunk, ConnPhase, EventConn};
use crate::event::{fd_of, Event, Interest, Poller, Waker};
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which driver runs accepted connections.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ServingMode {
    /// The event driver; falls back to [`Blocking`](Self::Blocking)
    /// where epoll is unavailable.
    #[default]
    EventLoop,
    /// The thread-per-connection reference driver.
    Blocking,
}

/// What a connection does next, decided by its [`Handler`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Every complete request buffered so far is served: wait for more
    /// bytes (or the idle deadline). If the peer has closed its sending
    /// side there will be none, so this flushes and closes.
    Continue,
    /// Stop reading; call [`Handler::on_deadline`] at this instant.
    ParkUntil(Instant),
    /// Stop reading; call [`Handler::on_completion`] when a
    /// [`Completer`] taken from this connection's [`Io`] delivers.
    ParkForCompletion,
    /// Flush what is queued, then close.
    Finish,
    /// Close now; anything queued is discarded.
    Close,
}

/// A server's protocol, as seen by the drivers (see the module docs for
/// the calling contract).
pub trait Handler: Send + Sync + 'static {
    /// Per-connection protocol state.
    type Conn: Send + 'static;
    /// What a completion carries back to a parked connection.
    type Done: Send + 'static;

    /// How long a connection may go without the handler restarting its
    /// idle clock before [`on_deadline`](Self::on_deadline) fires.
    fn read_timeout(&self) -> Duration;

    /// Shutdown stage one: once true, the driver stops accepting.
    fn draining(&self) -> bool;

    /// Accept-time admission, run on the acceptor thread before the
    /// connection costs anything else. `Err` refuses: the bytes
    /// (possibly none) are written and the socket is closed.
    fn admit(&self, peer: SocketAddr) -> Result<Self::Conn, Vec<u8>>;

    /// Request bytes arrived (or the peer closed its sending side):
    /// serve every complete request in [`Io::buf`].
    fn on_data(&self, conn: &mut Self::Conn, io: &mut Io<'_, Self::Done>) -> Step;

    /// The completion a [`Step::ParkForCompletion`] connection was
    /// waiting for.
    fn on_completion(
        &self,
        conn: &mut Self::Conn,
        done: Self::Done,
        io: &mut Io<'_, Self::Done>,
    ) -> Step;

    /// The idle clock ran out, or a [`Step::ParkUntil`] instant passed
    /// (the handler's own state says which).
    fn on_deadline(&self, conn: &mut Self::Conn, io: &mut Io<'_, Self::Done>) -> Step;

    /// The connection is gone; called exactly once per admitted one.
    fn on_close(&self, conn: Self::Conn);
}

/// A handler callback's view of its connection.
pub struct Io<'a, D> {
    /// Request bytes received and not yet consumed.
    pub buf: &'a mut BytesMut,
    out: &'a mut Vec<Chunk>,
    token: u64,
    done_tx: &'a Sender<(u64, D)>,
    waker: Option<&'a Arc<Waker>>,
    restart_idle: bool,
}

impl<D> Io<'_, D> {
    /// Queue reply bytes; they are written in order after the callback
    /// returns.
    pub fn queue(&mut self, chunk: Chunk) {
        self.out.push(chunk);
    }

    /// Restart the idle clock from now.
    pub fn restart_idle(&mut self) {
        self.restart_idle = true;
    }

    /// A handle that routes one result back to this connection from any
    /// thread; pair it with [`Step::ParkForCompletion`]. Dropping it
    /// unsent leaves the connection parked until its peer goes away.
    pub fn completer(&self) -> Completer<D> {
        Completer {
            token: self.token,
            tx: self.done_tx.clone(),
            waker: self.waker.cloned(),
        }
    }
}

/// Delivers one off-thread result to the connection it was taken from.
pub struct Completer<D> {
    token: u64,
    tx: Sender<(u64, D)>,
    /// Interrupts the event driver's `epoll_wait`; the blocking driver
    /// is already waiting on the channel.
    waker: Option<Arc<Waker>>,
}

impl<D> Completer<D> {
    /// Deliver `done`. A connection that has closed meanwhile is simply
    /// missed.
    pub fn send(self, done: D) {
        let _ = self.tx.send((self.token, done));
        if let Some(waker) = &self.waker {
            waker.wake();
        }
    }
}

/// A running driver; see the module docs for the shutdown sequence.
pub struct Serving {
    stop: Arc<AtomicBool>,
    waker: Option<Arc<Waker>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Serving {
    /// Shutdown stage two: stop the driver and join its thread.
    /// Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Serve `listener` with `handler` on a new thread named `thread_name`.
/// `mode` asks for a driver; the event driver quietly becomes the
/// blocking one where epoll (or the waker socket) is unavailable.
pub fn serve<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    mode: ServingMode,
    thread_name: String,
) -> io::Result<Serving> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let event = match mode {
        ServingMode::EventLoop => event_parts(&listener),
        ServingMode::Blocking => None,
    };
    let waker = event.as_ref().map(|(_, waker)| waker.clone());
    let thread_stop = stop.clone();
    let thread = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || match event {
            Some((poller, waker)) => {
                EventDriver::run(poller, waker, listener, handler, &thread_stop)
            }
            None => run_blocking(&listener, &handler, &thread_stop),
        })?;
    Ok(Serving {
        stop,
        waker,
        thread: Some(thread),
    })
}

/// Accept-time admission shared by both drivers: `None` means the
/// handler refused and the refusal (if any) has been written.
fn admit<H: Handler>(
    handler: &H,
    mut stream: TcpStream,
    peer: SocketAddr,
) -> Option<(TcpStream, H::Conn)> {
    match handler.admit(peer) {
        Ok(state) => Some((stream, state)),
        Err(refusal) => {
            // Accepted sockets don't inherit the listener's nonblocking
            // flag, so this short write is safe on the acceptor.
            let _ = stream.write_all(&refusal);
            None
        }
    }
}

// ---------------------------------------------------------------------
// Event driver (one thread, epoll readiness).
// ---------------------------------------------------------------------

/// Poller token for the listening socket.
const LISTENER: u64 = 0;
/// Poller token for the cross-thread waker.
const WAKER: u64 = 1;
/// First token handed to an accepted connection; tokens are monotonic
/// and never reused, so a completion for a dead connection misses the
/// map instead of hitting a stranger.
const FIRST_CONN: u64 = 2;
/// Idle poll cap so the shutdown flags are noticed promptly.
const POLL_CAP: Duration = Duration::from_millis(5);
/// How long the final flush may chase unflushed sockets.
const FINAL_FLUSH: Duration = Duration::from_secs(2);

/// One live connection: the byte-moving shell plus the handler's state.
struct Live<C> {
    shell: EventConn,
    state: C,
    /// The interest currently registered with the poller.
    registered: Interest,
    /// When the idle clock runs out; `shell.deadline` holds it whenever
    /// the connection is reading.
    idle_deadline: Instant,
}

/// What woke a connection: readiness (`R` is the event driver's
/// [`Event`]; the blocking driver has just read, so `()`), the
/// completion it was parked for, or its deadline.
enum Trigger<R, D> {
    Ready(R),
    Done(D),
    Deadline,
}

/// The poller and waker the event driver needs, with the listener
/// already registered — or `None` where any of that is unavailable.
fn event_parts(listener: &TcpListener) -> Option<(Poller, Arc<Waker>)> {
    let poller = Poller::new().ok()?;
    let waker = Arc::new(Waker::new(&poller, WAKER).ok()?);
    poller
        .register(fd_of(listener), LISTENER, Interest::READ)
        .ok()?;
    Some((poller, waker))
}

struct EventDriver<H: Handler> {
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    handler: Arc<H>,
    pool: BufferPool,
    conns: HashMap<u64, Live<H::Conn>>,
    next_token: u64,
    /// Shared read chunk for [`EventConn::fill`].
    scratch: Vec<u8>,
    /// Chunks a handler callback queued, moved onto its shell after.
    out: Vec<Chunk>,
    done_tx: Sender<(u64, H::Done)>,
    done_rx: Receiver<(u64, H::Done)>,
}

impl<H: Handler> EventDriver<H> {
    fn run(
        poller: Poller,
        waker: Arc<Waker>,
        listener: TcpListener,
        handler: Arc<H>,
        stop: &AtomicBool,
    ) {
        let (done_tx, done_rx) = channel::unbounded();
        let mut driver = EventDriver {
            poller,
            waker,
            listener,
            handler,
            pool: BufferPool::new(1024, 256),
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            scratch: vec![0u8; 4096],
            out: Vec::new(),
            done_tx,
            done_rx,
        };
        let mut events: Vec<Event> = Vec::new();
        let mut listening = true;

        while !stop.load(Ordering::SeqCst) {
            if listening && driver.handler.draining() {
                let _ = driver.poller.deregister(fd_of(&driver.listener));
                listening = false;
            }
            let now = Instant::now();
            let timeout = driver
                .conns
                .values()
                .filter_map(|c| c.shell.deadline)
                .map(|d| d.saturating_duration_since(now))
                .fold(POLL_CAP, Duration::min);
            events.clear();
            if driver.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for ev in events.iter().copied() {
                match ev.token {
                    LISTENER if listening => driver.accept_burst(),
                    LISTENER => {}
                    WAKER => driver.waker.drain(),
                    token => driver.service(token, Trigger::Ready(ev)),
                }
            }
            driver.deliver_completions();

            let now = Instant::now();
            let due: Vec<u64> = driver
                .conns
                .iter()
                .filter(|(_, c)| c.shell.deadline.is_some_and(|d| d <= now))
                .map(|(token, _)| *token)
                .collect();
            for token in due {
                driver.service(token, Trigger::Deadline);
            }
        }

        // Stage two: whatever produced completions has finished, so
        // every one of them is already on the channel. Deliver them,
        // then give sockets a bounded window to flush.
        driver.deliver_completions();
        let give_up = Instant::now() + FINAL_FLUSH;
        loop {
            let settled: Vec<u64> = driver
                .conns
                .iter_mut()
                .filter_map(|(token, c)| (!matches!(c.shell.flush(), Ok(false))).then_some(*token))
                .collect();
            for token in settled {
                driver.close(token);
            }
            if driver.conns.is_empty() || Instant::now() >= give_up {
                break;
            }
            events.clear();
            let _ = driver.poller.wait(&mut events, Some(POLL_CAP));
        }
        let abandoned: Vec<u64> = driver.conns.keys().copied().collect();
        for token in abandoned {
            driver.close(token);
        }
    }

    /// Accept until `WouldBlock`, registering admitted connections.
    fn accept_burst(&mut self) {
        // Accept until WouldBlock (or the listener dies).
        while let Ok((stream, peer)) = self.listener.accept() {
            let Some((stream, state)) = admit(&*self.handler, stream, peer) else {
                continue;
            };
            let token = self.next_token;
            self.next_token += 1;
            let registered =
                EventConn::new(stream, peer, token, self.pool.get()).and_then(|shell| {
                    self.poller
                        .register(fd_of(&shell.stream), token, shell.interest())
                        .map(|()| shell)
                });
            match registered {
                Ok(mut shell) => {
                    let idle_deadline = Instant::now() + self.handler.read_timeout();
                    shell.deadline = Some(idle_deadline);
                    let registered = shell.interest();
                    self.conns.insert(
                        token,
                        Live {
                            shell,
                            state,
                            registered,
                            idle_deadline,
                        },
                    );
                }
                Err(_) => self.handler.on_close(state),
            }
        }
    }

    /// Completions produced off-loop: hand each to its connection.
    fn deliver_completions(&mut self) {
        while let Some((token, done)) = self.done_rx.try_recv() {
            self.service(token, Trigger::Done(done));
        }
    }

    /// Run one connection's state machine for `trigger`: let the
    /// handler decide, apply its [`Step`], flush, and either tear the
    /// connection down or re-register what it now waits for.
    fn service(&mut self, token: u64, trigger: Trigger<Event, H::Done>) {
        let Some(c) = self.conns.get_mut(&token) else {
            return; // closed earlier in this batch, or while its job ran
        };
        let parked_for_completion =
            c.shell.phase == ConnPhase::Queued && c.shell.deadline.is_none();
        let call = match trigger {
            Trigger::Ready(ev) if ev.hangup => return self.close(token),
            Trigger::Ready(ev) => {
                if (ev.readable || ev.read_closed) && c.shell.interest().readable {
                    if c.shell.fill(&mut self.scratch).is_err() {
                        return self.close(token);
                    }
                    Some(Trigger::Ready(ev))
                } else {
                    None // writable only: just flush
                }
            }
            Trigger::Done(_) if !parked_for_completion => return,
            other => Some(other),
        };

        let mut close_now = false;
        if let Some(call) = call {
            let handler = &*self.handler;
            let mut io = Io {
                buf: &mut c.shell.buf,
                out: &mut self.out,
                token,
                done_tx: &self.done_tx,
                waker: Some(&self.waker),
                restart_idle: false,
            };
            let step = match call {
                Trigger::Ready(_) => handler.on_data(&mut c.state, &mut io),
                Trigger::Done(done) => handler.on_completion(&mut c.state, done, &mut io),
                Trigger::Deadline => handler.on_deadline(&mut c.state, &mut io),
            };
            if io.restart_idle {
                c.idle_deadline = Instant::now() + handler.read_timeout();
            }
            for chunk in self.out.drain(..) {
                c.shell.queue(chunk);
            }
            match step {
                Step::Continue => {
                    c.shell.phase = ConnPhase::Reading;
                    c.shell.deadline = Some(c.idle_deadline);
                }
                Step::ParkUntil(at) => {
                    c.shell.phase = ConnPhase::Queued;
                    c.shell.deadline = Some(at);
                }
                Step::ParkForCompletion => {
                    c.shell.phase = ConnPhase::Queued;
                    c.shell.deadline = None;
                }
                Step::Finish => c.shell.close_after_flush = true,
                Step::Close => close_now = true,
            }
        }
        // The half-close rule: a peer that will send nothing more and
        // is owed nothing but what is queued gets that, then a close.
        if c.shell.read_closed && c.shell.phase == ConnPhase::Reading {
            c.shell.close_after_flush = true;
        }
        if c.shell.close_after_flush {
            c.shell.phase = ConnPhase::Draining;
            c.shell.deadline = None;
        }
        let close = close_now
            || match c.shell.flush() {
                Ok(flushed) => flushed && c.shell.close_after_flush,
                Err(_) => true,
            };
        if close {
            return self.close(token);
        }
        let want = c.shell.interest();
        if want != c.registered {
            c.registered = want;
            let _ = self.poller.reregister(fd_of(&c.shell.stream), token, want);
        }
    }

    /// Tear down one connection: deregister, recycle its buffer, tell
    /// the handler.
    fn close(&mut self, token: u64) {
        let Some(mut c) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(fd_of(&c.shell.stream));
        self.pool.put(c.shell.take_buf());
        self.handler.on_close(c.state);
    }
}

// ---------------------------------------------------------------------
// Blocking reference driver (thread per connection).
// ---------------------------------------------------------------------

fn run_blocking<H: Handler>(listener: &TcpListener, handler: &Arc<H>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) && !handler.draining() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let Some((stream, state)) = admit(&**handler, stream, peer) else {
                    continue;
                };
                let mut conn = Admitted {
                    handler: handler.clone(),
                    state: Some(state),
                };
                // Detached; if the spawn fails the closure is dropped
                // and `Admitted` still reports the close.
                let _ = std::thread::Builder::new().spawn(move || {
                    let _ = conn.serve(stream);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
}

/// An admitted connection on its own thread. Dropping it — normally,
/// on an I/O error, or if the handler panics — reports the close.
struct Admitted<H: Handler> {
    handler: Arc<H>,
    state: Option<H::Conn>,
}

impl<H: Handler> Drop for Admitted<H> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            self.handler.on_close(state);
        }
    }
}

impl<H: Handler> Admitted<H> {
    /// The event driver's `service`, unrolled in time: block where it
    /// would wait for readiness, a deadline, or a completion.
    fn serve(&mut self, mut stream: TcpStream) -> io::Result<()> {
        let handler = &*self.handler;
        let state = self.state.as_mut().expect("state is taken only on drop");
        stream.set_nodelay(true)?;
        let (done_tx, done_rx) = channel::unbounded();
        let mut buf = BytesMut::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let mut out = Vec::new();
        let mut idle_deadline = Instant::now() + handler.read_timeout();
        let mut step = Step::Continue;
        loop {
            let trigger = match step {
                // Each read waits only the *remaining* idle budget, so
                // a peer dribbling a byte per read can't hold the
                // thread past the deadline.
                Step::Continue => match idle_deadline.checked_duration_since(Instant::now()) {
                    Some(remaining) if !remaining.is_zero() => {
                        stream.set_read_timeout(Some(remaining))?;
                        match stream.read(&mut chunk) {
                            // No more requests, and every complete one
                            // was served before `Continue` came back.
                            Ok(0) => return Ok(()),
                            Ok(n) => {
                                buf.extend_from_slice(&chunk[..n]);
                                Trigger::Ready(())
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                ) =>
                            {
                                Trigger::Deadline
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(e),
                        }
                    }
                    _ => Trigger::Deadline,
                },
                Step::ParkUntil(at) => {
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    Trigger::Deadline
                }
                Step::ParkForCompletion => match done_rx.recv() {
                    Ok((_, done)) => Trigger::Done(done),
                    Err(_) => return Ok(()),
                },
                Step::Finish | Step::Close => return Ok(()),
            };
            let mut io = Io {
                buf: &mut buf,
                out: &mut out,
                token: 0,
                done_tx: &done_tx,
                waker: None,
                restart_idle: false,
            };
            step = match trigger {
                Trigger::Ready(()) => handler.on_data(state, &mut io),
                Trigger::Done(done) => handler.on_completion(state, done, &mut io),
                Trigger::Deadline => handler.on_deadline(state, &mut io),
            };
            if io.restart_idle {
                idle_deadline = Instant::now() + handler.read_timeout();
            }
            if step != Step::Close {
                for chunk in out.drain(..) {
                    stream.write_all(chunk.as_bytes())?;
                }
            }
        }
    }
}
