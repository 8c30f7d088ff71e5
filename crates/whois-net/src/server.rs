//! A WHOIS server over loopback TCP: the simulator the crawler talks
//! to, as one [`Handler`] on the shared serving core.
//!
//! The protocol is one query line in, one reply out, close. Every byte
//! a client can observe is decided by a single `decide` step — rate
//! limiting, store lookup, fault injection — and the handler around it
//! only maps the outcome onto the core's [`Step`]s: reply and finish,
//! close silently, or (a fault stall) park on a deadline holding the
//! body. [`crate::serving`] does the rest, through either driver
//! ([`ServerConfig::mode`]), which is what makes the two differentially
//! testable.
//!
//! Two guards ride on the core's hooks: the idle clock is never
//! restarted, so `read_timeout` is a *total* deadline from accept (a
//! slowloris client dribbling bytes forever is closed with an explicit
//! timeout error), and an optional per-IP concurrent connection cap is
//! checked at accept time.

use crate::conn::Chunk;
use crate::fault::{Fate, FaultConfig, FaultInjector, FaultPlan};
use crate::limiter::{KeyedRateLimiter, RateLimitConfig};
use crate::proto;
use crate::serving::{self, Handler, Io, Serving, ServingMode, Step};
use crate::store::RecordStore;
use bytes::Bytes;
use parking_lot::Mutex;
use std::convert::Infallible;
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reply line for rate-limited (and fault-banned) queries.
const RATE_LIMIT_LINE: &[u8] = b"Error: rate limit exceeded; try again later\r\n";
/// Reply line written when the read deadline expires mid-query.
const TIMEOUT_LINE: &[u8] = b"Error: request timed out; closing connection\r\n";
/// Reply line for connections refused by the per-IP concurrency cap.
const CONN_CAP_LINE: &[u8] = b"Error: too many connections; try again later\r\n";

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Which driver of the serving core runs accepted connections.
    pub mode: ServingMode,
    /// Rate limiting keyed per source IP, as the paper describes ("once
    /// a given source IP has issued more queries … than its limit").
    pub rate_limit: RateLimitConfig,
    /// Optional global cap shared by all source IPs on top of the
    /// per-IP limit (a server's total capacity).
    pub global_limit: Option<RateLimitConfig>,
    /// Optional cap on concurrent connections per source IP, enforced
    /// at accept time before any bytes are read.
    pub max_conns_per_ip: Option<u32>,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Fault-injection seed.
    pub fault_seed: u64,
    /// Scripted per-query fates, consumed before the probabilistic
    /// `faults` roll (see [`FaultPlan`]).
    pub fault_plan: FaultPlan,
    /// When rate-limited or connection-capped: reply with an explicit
    /// error (`true`) or close silently (`false`) — both behaviours
    /// exist in the wild.
    pub limit_replies_error: bool,
    /// Total time a connection may take to deliver one complete query
    /// line, measured from accept. A client dribbling bytes slower than
    /// this is closed with a timeout error (slowloris guard).
    pub read_timeout: Duration,
    /// How long [`shutdown`](WhoisServer::shutdown) waits for in-flight
    /// connections to drain before declaring them aborted.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            mode: ServingMode::default(),
            rate_limit: RateLimitConfig::unlimited(),
            global_limit: None,
            max_conns_per_ip: None,
            faults: FaultConfig::none(),
            fault_seed: 0,
            fault_plan: FaultPlan::new(),
            limit_replies_error: true,
            read_timeout: Duration::from_secs(2),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Counters exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Queries answered with a record.
    pub answered: AtomicU64,
    /// Queries answered with "no match".
    pub no_match: AtomicU64,
    /// Queries refused by the rate limiter.
    pub rate_limited: AtomicU64,
    /// Replies sabotaged by fault injection.
    pub faulted: AtomicU64,
    /// Connections closed by the read-deadline (slowloris) guard.
    pub idle_closed: AtomicU64,
    /// Connections refused at accept by the per-IP concurrency cap.
    pub conn_capped: AtomicU64,
}

/// What [`WhoisServer::shutdown`] (or [`ServerHandle::shutdown`])
/// observed while stopping: how many in-flight connections completed
/// during the drain window versus how many were still running when the
/// window expired and were abandoned to their read timeouts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Connections in flight at the shutdown signal that completed
    /// within the drain window.
    pub drained: u64,
    /// Connections still running when the drain window expired.
    pub aborted: u64,
}

/// State shared between the server, its handle, and the handler.
#[derive(Debug, Default)]
struct Lifecycle {
    shutdown: AtomicBool,
    /// Connections currently being handled.
    active: AtomicU64,
    /// Connections that completed after the shutdown signal.
    drained: AtomicU64,
}

/// A WHOIS server bound to an ephemeral loopback port.
pub struct WhoisServer {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    lifecycle: Arc<Lifecycle>,
    drain_timeout: Duration,
    serving: Serving,
}

/// Cheap handle for queries — and shutdown — against a running server.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    lifecycle: Arc<Lifecycle>,
    drain_timeout: Duration,
}

impl ServerHandle {
    /// Signal shutdown and wait up to the server's drain timeout for
    /// in-flight connections to finish, reporting how many drained
    /// versus how many had to be abandoned. Idempotent; a second call
    /// reports whatever remains.
    pub fn shutdown(&self) -> ShutdownReport {
        self.lifecycle.shutdown.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + self.drain_timeout;
        let baseline = self.lifecycle.drained.load(Ordering::SeqCst);
        while self.lifecycle.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        ShutdownReport {
            drained: self.lifecycle.drained.load(Ordering::SeqCst) - baseline,
            aborted: self.lifecycle.active.load(Ordering::SeqCst),
        }
    }
}

impl WhoisServer {
    /// Start a server for `store`.
    pub fn start<S: RecordStore>(store: S, cfg: ServerConfig) -> std::io::Result<WhoisServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let lifecycle = Arc::new(Lifecycle::default());
        let drain_timeout = cfg.drain_timeout;
        let mode = cfg.mode;
        let limiter = match cfg.global_limit {
            Some(global) => KeyedRateLimiter::with_global_cap(cfg.rate_limit, global),
            None => KeyedRateLimiter::new(cfg.rate_limit),
        }
        .with_conn_cap(cfg.max_conns_per_ip);
        let injector = FaultInjector::with_plan(cfg.faults, cfg.fault_seed, cfg.fault_plan.clone());
        let handler = Arc::new(WhoisHandler {
            store,
            stats: stats.clone(),
            lifecycle: lifecycle.clone(),
            limiter: Mutex::new(limiter),
            injector: Mutex::new(injector),
            cfg,
        });
        let name = format!("whois-server-{}", addr.port());
        let serving = serving::serve(listener, handler, mode, name)?;
        Ok(WhoisServer {
            addr,
            stats,
            lifecycle,
            drain_timeout,
            serving,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            lifecycle: self.lifecycle.clone(),
            drain_timeout: self.drain_timeout,
        }
    }

    /// Server-side counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stop accepting, drain in-flight connections (bounded by the
    /// configured drain timeout), report drained-vs-aborted counts,
    /// then stop the driver (which closes whatever was aborted).
    pub fn shutdown(&mut self) -> ShutdownReport {
        let report = self.handle().shutdown();
        self.serving.stop();
        report
    }
}

impl Drop for WhoisServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the protocol step decided for one complete query.
enum Outcome {
    /// Write these bytes, then close.
    Reply(Vec<u8>),
    /// Close without writing anything.
    Silent,
    /// Wait this long, then write these bytes and close (fault stall).
    Stall(Duration, Vec<u8>),
}

/// The server as the serving core sees it.
struct WhoisHandler<S> {
    store: S,
    stats: Arc<ServerStats>,
    lifecycle: Arc<Lifecycle>,
    limiter: Mutex<KeyedRateLimiter<IpAddr>>,
    injector: Mutex<FaultInjector>,
    cfg: ServerConfig,
}

/// One connection's protocol state.
struct WhoisConn {
    ip: IpAddr,
    /// A fault-stalled reply waiting for its deadline to fire.
    stalled: Option<Vec<u8>>,
}

impl<S: RecordStore> WhoisHandler<S> {
    /// The protocol step: rate limiting, store lookup, and fault
    /// injection for one decoded query. Every byte a client can observe
    /// is decided here.
    fn decide(&self, query: &str, peer: IpAddr) -> Outcome {
        let stats = &*self.stats;
        // Rate limiting, keyed on the peer's source IP.
        if !self.limiter.lock().allow(&peer) {
            stats.rate_limited.fetch_add(1, Ordering::Relaxed);
            return if self.cfg.limit_replies_error {
                Outcome::Reply(RATE_LIMIT_LINE.to_vec())
            } else {
                Outcome::Silent
            };
        }

        let body = match self.store.lookup(query) {
            Some(b) => {
                stats.answered.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                stats.no_match.fetch_add(1, Ordering::Relaxed);
                self.store.no_match(query)
            }
        };
        // Decide the fate under the lock, act on it outside (a Stall must
        // not serialize every other connection's fate roll).
        let fate = self.injector.lock().fate(query, body.as_bytes());
        match fate {
            Fate::Deliver => Outcome::Reply(body.into_bytes()),
            Fate::Drop | Fate::Empty => {
                stats.faulted.fetch_add(1, Ordering::Relaxed);
                Outcome::Silent
            }
            Fate::Garbled(bytes) | Fate::NonUtf8(bytes) | Fate::Truncated(bytes) => {
                stats.faulted.fetch_add(1, Ordering::Relaxed);
                Outcome::Reply(bytes)
            }
            Fate::Stall(d) => {
                stats.faulted.fetch_add(1, Ordering::Relaxed);
                Outcome::Stall(d, body.into_bytes())
            }
            Fate::Banned => {
                // A fault-injected ban behaves like the real thing: the
                // explicit refusal, plus a limiter penalty window for the
                // source IP when the server's config carries one.
                stats.faulted.fetch_add(1, Ordering::Relaxed);
                self.limiter
                    .lock()
                    .penalize(&peer, Instant::now(), self.cfg.rate_limit.penalty);
                Outcome::Reply(RATE_LIMIT_LINE.to_vec())
            }
        }
    }
}

impl<S: RecordStore> Handler for WhoisHandler<S> {
    type Conn = WhoisConn;
    /// Nothing is produced off the connection's own thread.
    type Done = Infallible;

    fn read_timeout(&self) -> Duration {
        self.cfg.read_timeout
    }

    fn draining(&self) -> bool {
        self.lifecycle.shutdown.load(Ordering::SeqCst)
    }

    fn admit(&self, peer: SocketAddr) -> Result<WhoisConn, Vec<u8>> {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        let ip = peer.ip();
        if !self.limiter.lock().try_acquire_conn(&ip, Instant::now()) {
            self.stats.conn_capped.fetch_add(1, Ordering::Relaxed);
            return Err(if self.cfg.limit_replies_error {
                CONN_CAP_LINE.to_vec()
            } else {
                Vec::new()
            });
        }
        self.lifecycle.active.fetch_add(1, Ordering::SeqCst);
        Ok(WhoisConn { ip, stalled: None })
    }

    fn on_data(&self, conn: &mut WhoisConn, io: &mut Io<'_, Infallible>) -> Step {
        let query = match proto::decode_query(io.buf) {
            Ok(Some(query)) => query,
            Ok(None) => return Step::Continue,
            Err(_) => return Step::Close, // malformed: hang up
        };
        match self.decide(&query, conn.ip) {
            Outcome::Reply(bytes) => {
                io.queue(Chunk::Owned(Bytes::from(bytes)));
                Step::Finish
            }
            Outcome::Silent => Step::Close,
            Outcome::Stall(d, body) => {
                conn.stalled = Some(body);
                Step::ParkUntil(Instant::now() + d)
            }
        }
    }

    fn on_completion(
        &self,
        _: &mut WhoisConn,
        done: Infallible,
        _: &mut Io<'_, Infallible>,
    ) -> Step {
        match done {}
    }

    /// A fault stall fires its held reply; the read deadline closes a
    /// slowloris connection with an explicit error.
    fn on_deadline(&self, conn: &mut WhoisConn, io: &mut Io<'_, Infallible>) -> Step {
        match conn.stalled.take() {
            Some(body) => io.queue(Chunk::Owned(Bytes::from(body))),
            None => {
                self.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                io.queue(Chunk::Static(TIMEOUT_LINE));
            }
        }
        Step::Finish
    }

    /// Release the per-IP slot and settle the lifecycle gauges (a
    /// connection that outlived the shutdown signal counts as drained).
    fn on_close(&self, conn: WhoisConn) {
        self.limiter.lock().release_conn(&conn.ip);
        if self.lifecycle.shutdown.load(Ordering::SeqCst) {
            self.lifecycle.drained.fetch_add(1, Ordering::SeqCst);
        }
        self.lifecycle.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::WhoisClient;
    use crate::store::InMemoryStore;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn store() -> InMemoryStore {
        let mut s = InMemoryStore::new();
        s.insert(
            "example.com",
            "Domain Name: EXAMPLE.COM\nRegistrar: Test\n".into(),
        );
        s
    }

    const MODES: [ServingMode; 2] = [ServingMode::EventLoop, ServingMode::Blocking];

    #[test]
    fn answers_known_domain() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let client = WhoisClient::default();
            let body = client.query(server.addr(), "example.com").unwrap();
            assert!(body.contains("Registrar: Test"), "{mode:?}");
            assert_eq!(server.stats().answered.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn no_match_for_unknown_domain() {
        let server = WhoisServer::start(store(), ServerConfig::default()).unwrap();
        let client = WhoisClient::default();
        let body = client.query(server.addr(), "missing.com").unwrap();
        assert!(body.to_lowercase().starts_with("no match"));
        assert_eq!(server.stats().no_match.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rate_limit_refuses_after_burst() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                rate_limit: RateLimitConfig {
                    burst: 2,
                    per_second: 0.0,
                    penalty: Duration::from_secs(5),
                },
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let client = WhoisClient::default();
            assert!(client.query(server.addr(), "example.com").is_ok());
            assert!(client.query(server.addr(), "example.com").is_ok());
            let third = client.query(server.addr(), "example.com").unwrap();
            assert!(third.to_lowercase().contains("rate limit"), "{mode:?}");
            assert_eq!(server.stats().rate_limited.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn silent_rate_limit_closes_without_reply() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                rate_limit: RateLimitConfig {
                    burst: 1,
                    per_second: 0.0,
                    penalty: Duration::from_secs(5),
                },
                limit_replies_error: false,
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let client = WhoisClient::default();
            let _ = client.query(server.addr(), "example.com").unwrap();
            let second = client.query(server.addr(), "example.com").unwrap();
            assert!(second.is_empty(), "{mode:?}: silent refusal is empty");
        }
    }

    #[test]
    fn fault_injection_empties_replies() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                faults: FaultConfig {
                    empty_chance: 1.0,
                    ..Default::default()
                },
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let client = WhoisClient::default();
            let body = client.query(server.addr(), "example.com").unwrap();
            assert!(body.is_empty(), "{mode:?}");
            assert_eq!(server.stats().faulted.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let addr = server.addr();
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    std::thread::spawn(move || {
                        let client = WhoisClient::default();
                        client.query(addr, "example.com").unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap().contains("EXAMPLE.COM"), "{mode:?}");
            }
            assert_eq!(server.stats().connections.load(Ordering::Relaxed), 8);
        }
    }

    #[test]
    fn idle_connections_time_out_with_an_error_line() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                read_timeout: Duration::from_millis(80),
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(b"never-finis").unwrap(); // no terminator
            let mut body = String::new();
            stream.read_to_string(&mut body).unwrap();
            assert!(body.contains("timed out"), "{mode:?}: {body:?}");
            assert_eq!(
                server.stats().idle_closed.load(Ordering::Relaxed),
                1,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn per_ip_connection_cap_refuses_at_accept() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                max_conns_per_ip: Some(1),
                ..Default::default()
            };
            let server = WhoisServer::start(store(), cfg).unwrap();
            let mut held = TcpStream::connect(server.addr()).unwrap();
            held.write_all(b"held").unwrap(); // occupy the only slot
            std::thread::sleep(Duration::from_millis(50));
            let mut refused = TcpStream::connect(server.addr()).unwrap();
            let mut body = String::new();
            refused.read_to_string(&mut body).unwrap();
            assert!(body.contains("too many connections"), "{mode:?}: {body:?}");
            assert_eq!(
                server.stats().conn_capped.load(Ordering::Relaxed),
                1,
                "{mode:?}"
            );
            // Finishing the held connection frees the slot.
            held.write_all(b"\r\n").unwrap();
            let mut rest = String::new();
            let _ = held.read_to_string(&mut rest);
            std::thread::sleep(Duration::from_millis(50));
            let mut third = TcpStream::connect(server.addr()).unwrap();
            third.write_all(b"example.com\r\n").unwrap();
            let mut body = String::new();
            third.read_to_string(&mut body).unwrap();
            assert!(body.contains("EXAMPLE.COM"), "{mode:?}: {body:?}");
        }
    }

    #[test]
    fn shutdown_with_no_connections_reports_zero() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                ..Default::default()
            };
            let mut server = WhoisServer::start(store(), cfg).unwrap();
            let report = server.shutdown();
            assert_eq!(report, ShutdownReport::default(), "{mode:?}");
        }
    }

    #[test]
    fn shutdown_counts_drained_connections() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                ..Default::default()
            };
            let mut server = WhoisServer::start(store(), cfg).unwrap();
            let addr = server.addr();
            // A connection that stalls mid-query, then completes during
            // the drain window.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"example").unwrap();
            std::thread::sleep(Duration::from_millis(30)); // let the server accept
            let finisher = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                stream.write_all(b".com\r\n").unwrap();
                let mut body = String::new();
                let _ = stream.read_to_string(&mut body);
                body
            });
            let report = server.shutdown();
            assert_eq!(report.drained, 1, "{mode:?}: {report:?}");
            assert_eq!(report.aborted, 0, "{mode:?}: {report:?}");
            assert!(finisher.join().unwrap().contains("EXAMPLE.COM"), "{mode:?}");
        }
    }

    #[test]
    fn shutdown_counts_aborted_connections() {
        for mode in MODES {
            let cfg = ServerConfig {
                mode,
                drain_timeout: Duration::from_millis(40),
                ..Default::default()
            };
            let mut server = WhoisServer::start(store(), cfg).unwrap();
            let addr = server.addr();
            // A connection that never completes its query: it outlives
            // the drain window and is abandoned.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"stuck").unwrap();
            std::thread::sleep(Duration::from_millis(30));
            let report = server.shutdown();
            assert_eq!(report.drained, 0, "{mode:?}: {report:?}");
            assert_eq!(report.aborted, 1, "{mode:?}: {report:?}");
            drop(stream);
        }
    }

    #[test]
    fn server_shuts_down_cleanly_on_drop() {
        for mode in MODES {
            let addr;
            {
                let cfg = ServerConfig {
                    mode,
                    ..Default::default()
                };
                let server = WhoisServer::start(store(), cfg).unwrap();
                addr = server.addr();
            }
            // After drop, connections are refused (eventually).
            std::thread::sleep(Duration::from_millis(20));
            let client = WhoisClient::default();
            assert!(client.query(addr, "example.com").is_err(), "{mode:?}");
        }
    }
}
