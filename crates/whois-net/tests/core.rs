//! The serving core against a fake: a toy line protocol run through
//! both drivers, so what the drivers themselves promise — framing-free
//! byte delivery, reply order across parks, the idle deadline,
//! accept-time admission, the half-close rule, the two-stage shutdown —
//! is pinned without either real server in the way.
//!
//! The toy protocol: every line is echoed back; `slow <ms>` is echoed
//! after parking on a deadline, `job <ms>` after parking on a
//! completion sent from a helper thread.

use parking_lot::Mutex;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};
use whois_net::{proto, Chunk, Handler, Io, Serving, ServingMode, Step};

const MODES: [ServingMode; 2] = [ServingMode::EventLoop, ServingMode::Blocking];
const ACCEPTOR: &str = "toy-acceptor";

#[derive(Default)]
struct Toy {
    read_timeout: Option<Duration>,
    /// Concurrent-connection cap and the refusal it writes.
    cap: Option<(usize, &'static [u8])>,
    draining: AtomicBool,
    open: AtomicUsize,
    closed: AtomicUsize,
    /// Name of every thread `admit` ran on.
    admit_threads: Mutex<HashSet<String>>,
    /// Every thread any connection callback ran on.
    callback_threads: Mutex<HashSet<ThreadId>>,
    jobs: Mutex<Vec<JoinHandle<()>>>,
}

/// The line a `slow` connection echoes when its deadline fires.
type ToyConn = Option<String>;

fn echo(io: &mut Io<'_, String>, line: String) {
    io.queue(Chunk::Owned(format!("{line}\n").into_bytes().into()));
}

impl Toy {
    fn pump(&self, held: &mut ToyConn, io: &mut Io<'_, String>) -> Step {
        self.callback_threads
            .lock()
            .insert(std::thread::current().id());
        loop {
            let line = match proto::decode_line(io.buf, 1024) {
                Ok(Some(line)) => line,
                Ok(None) => return Step::Continue,
                Err(_) => return Step::Close,
            };
            io.restart_idle();
            let ms = |arg: &str| Duration::from_millis(arg.parse().expect("toy ms"));
            if let Some(arg) = line.strip_prefix("slow ") {
                let at = Instant::now() + ms(arg);
                *held = Some(line);
                return Step::ParkUntil(at);
            } else if let Some(arg) = line.strip_prefix("job ") {
                let (wait, done) = (ms(arg), io.completer());
                self.jobs.lock().push(std::thread::spawn(move || {
                    std::thread::sleep(wait);
                    done.send(line);
                }));
                return Step::ParkForCompletion;
            }
            echo(io, line);
        }
    }
}

impl Handler for Toy {
    type Conn = ToyConn;
    type Done = String;

    fn read_timeout(&self) -> Duration {
        self.read_timeout.unwrap_or(Duration::from_secs(10))
    }
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
    fn admit(&self, _peer: SocketAddr) -> Result<ToyConn, Vec<u8>> {
        let name = std::thread::current().name().unwrap_or("?").to_string();
        self.admit_threads.lock().insert(name);
        match self.cap {
            Some((cap, refusal)) if self.open.load(Ordering::SeqCst) >= cap => {
                Err(refusal.to_vec())
            }
            _ => {
                self.open.fetch_add(1, Ordering::SeqCst);
                Ok(None)
            }
        }
    }
    fn on_data(&self, held: &mut ToyConn, io: &mut Io<'_, String>) -> Step {
        self.pump(held, io)
    }
    fn on_completion(&self, held: &mut ToyConn, line: String, io: &mut Io<'_, String>) -> Step {
        echo(io, line);
        self.pump(held, io)
    }
    fn on_deadline(&self, held: &mut ToyConn, io: &mut Io<'_, String>) -> Step {
        match held.take() {
            Some(line) => {
                echo(io, line);
                self.pump(held, io)
            }
            None => {
                io.queue(Chunk::Static(b"timeout\n"));
                Step::Finish
            }
        }
    }
    fn on_close(&self, _held: ToyConn) {
        self.open.fetch_sub(1, Ordering::SeqCst);
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
}

fn start(mode: ServingMode, toy: Toy) -> (Arc<Toy>, Serving, SocketAddr) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let toy = Arc::new(toy);
    let serving = whois_net::serving::serve(listener, toy.clone(), mode, ACCEPTOR.into()).unwrap();
    (toy, serving, addr)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Poll `cond` for up to five seconds.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Send `parts` as separate segments, half-close, and read to EOF.
fn exchange(addr: SocketAddr, parts: &[&[u8]]) -> String {
    let mut stream = connect(addr);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            // Give the previous fragment time to arrive on its own.
            std::thread::sleep(Duration::from_millis(2));
        }
        stream.write_all(part).unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn input_split_at_every_byte_offset_is_served_identically() {
    let payload = b"alpha\r\nslow 5\nomega\n";
    for mode in MODES {
        let (_toy, _serving, addr) = start(mode, Toy::default());
        for cut in 0..=payload.len() {
            let got = exchange(addr, &[&payload[..cut], &payload[cut..]]);
            assert_eq!(got, "alpha\nslow 5\nomega\n", "{mode:?}, cut at {cut}");
        }
    }
}

#[test]
fn pipelined_lines_reply_in_order_around_a_parked_one() {
    for mode in MODES {
        let (_toy, _serving, addr) = start(mode, Toy::default());
        for parked in ["slow 30", "job 30"] {
            let payload = format!("one\ntwo\n{parked}\nfour\nfive\n");
            // One write, then a half-close: everything after the parked
            // line is already buffered when it resumes, and the peer is
            // still owed all of it.
            let got = exchange(addr, &[payload.as_bytes()]);
            assert_eq!(got, payload, "{mode:?}");
        }
    }
}

#[test]
fn idle_deadline_writes_the_timeout_bytes_and_closes() {
    for mode in MODES {
        let toy = Toy {
            read_timeout: Some(Duration::from_millis(80)),
            ..Toy::default()
        };
        let (toy, _serving, addr) = start(mode, toy);
        let mut stream = connect(addr);
        stream.write_all(b"never finis").unwrap(); // no terminator
        let started = Instant::now();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "timeout\n", "{mode:?}");
        assert!(started.elapsed() >= Duration::from_millis(70), "{mode:?}");
        wait_for("the close to be reported", || {
            toy.closed.load(Ordering::SeqCst) == 1
        });
    }
}

#[test]
fn cap_refusal_happens_at_accept_on_the_acceptor_thread() {
    for mode in MODES {
        for refusal in [&b"busy\n"[..], &b""[..]] {
            let toy = Toy {
                cap: Some((1, refusal)),
                ..Toy::default()
            };
            let (toy, _serving, addr) = start(mode, toy);
            let held = connect(addr);
            wait_for("the first connection's admission", || {
                toy.open.load(Ordering::SeqCst) == 1
            });
            let mut refused = connect(addr);
            let mut got = Vec::new();
            refused.read_to_end(&mut got).unwrap();
            assert_eq!(got, refusal, "{mode:?}");
            assert_eq!(
                toy.open.load(Ordering::SeqCst),
                1,
                "{mode:?}: never admitted"
            );
            // Closing the held connection frees the slot.
            drop(held);
            wait_for("the slot to free", || toy.open.load(Ordering::SeqCst) == 0);
            assert_eq!(exchange(addr, &[b"again\n"]), "again\n", "{mode:?}");
            // Admission ran on the acceptor every time — in the
            // blocking driver too, i.e. before any thread was spawned.
            let threads = toy.admit_threads.lock().clone();
            assert_eq!(threads, HashSet::from([ACCEPTOR.to_string()]), "{mode:?}");
        }
    }
}

#[test]
fn shutdown_delivers_a_parked_reply_and_accounts_for_the_connection() {
    for mode in MODES {
        let (toy, mut serving, addr) = start(mode, Toy::default());
        let mut stream = connect(addr);
        stream.write_all(b"job 100\n").unwrap();
        wait_for("the job to be parked", || toy.jobs.lock().len() == 1);

        // Stage one: no new admissions. (A late connect is refused by
        // the OS or left in the backlog, depending on the driver.)
        toy.draining.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        let late = TcpStream::connect(addr);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(toy.open.load(Ordering::SeqCst), 1, "{mode:?}: late admit");

        // Stage two, once whatever completes parked connections is done.
        for job in toy.jobs.lock().drain(..) {
            job.join().unwrap();
        }
        serving.stop();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply, "job 100\n", "{mode:?}");
        if mode == ServingMode::EventLoop {
            // The event driver flushed and closed everything itself.
            assert_eq!(toy.open.load(Ordering::SeqCst), 0);
            reply.clear();
            assert_eq!(
                reader.read_line(&mut reply).unwrap(),
                0,
                "EOF after the reply"
            );
        }
        // The blocking driver's connection thread outlives `stop` and
        // ends with its peer.
        drop(reader);
        wait_for("the connection to be closed", || {
            toy.closed.load(Ordering::SeqCst) == 1
        });
        assert_eq!(toy.open.load(Ordering::SeqCst), 0, "{mode:?}");
        drop(late);
    }
}

/// Soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
#[cfg(target_os = "linux")]
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("Max open files"))?;
            line.split_whitespace().nth(3)?.parse().ok()
        })
        .unwrap_or(1024)
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_held_connections_are_served_by_one_thread() {
    // Each held connection costs this process two descriptors.
    let conns = 1000.min(fd_limit().saturating_sub(200) / 2);
    let (toy, _serving, addr) = start(ServingMode::EventLoop, Toy::default());
    let mut held: Vec<TcpStream> = (0..conns).map(|_| connect(addr)).collect();
    wait_for("every connection to be admitted", || {
        toy.open.load(Ordering::SeqCst) == conns
    });
    // Every one of them is live: a line in, the echo out.
    for (i, stream) in held.iter_mut().enumerate() {
        stream.write_all(format!("conn {i}\n").as_bytes()).unwrap();
    }
    for (i, stream) in held.iter_mut().enumerate() {
        let mut reply = vec![0u8; format!("conn {i}\n").len()];
        stream.read_exact(&mut reply).unwrap();
        assert_eq!(reply, format!("conn {i}\n").as_bytes());
    }
    assert_eq!(toy.callback_threads.lock().len(), 1, "one serving thread");
    assert_eq!(
        *toy.admit_threads.lock(),
        HashSet::from([ACCEPTOR.to_string()])
    );
    drop(held);
    wait_for("every close", || toy.closed.load(Ordering::SeqCst) == conns);
}
