//! # whois-net
//!
//! The WHOIS network substrate: everything the paper's crawl
//! infrastructure (§4.1) needed, over real loopback TCP.
//!
//! * [`proto`] — RFC 3912 framing: a query is one line terminated by
//!   CRLF; the response is free text, terminated by connection close.
//! * [`limiter`] — the per-IP rate limiting the paper fought: a token
//!   bucket with a penalty window, "once a given source IP has issued
//!   more queries … than its limit, the server will stop responding …
//!   queries can then resume after a penalty period".
//! * [`store`] — the thin/thick split (§2.2): a registry store answering
//!   thin records with `Whois Server:` referrals, and per-registrar
//!   stores answering thick records.
//! * [`serving`] — the serving core both servers run on: a [`Handler`]
//!   contract (per-connection protocol state in, the connection's next
//!   [`Step`] out), the event driver that multiplexes every connection
//!   on one epoll thread, and the thread-per-connection reference
//!   driver that runs the same handler as its differential oracle.
//! * [`server`] — a WHOIS server binding `127.0.0.1:0`, with
//!   configurable rate limiting and fault injection: one query, one
//!   reply, close, as a handler on the serving core.
//! * [`event`] — the readiness layer: an epoll-backed [`Poller`] (no
//!   external deps; FFI straight against the platform libc) plus a
//!   [`Waker`] for cross-thread loop interrupts.
//! * [`conn`] — the event driver's per-connection shell: pooled read
//!   buffers, queued reply chunks, vectored writes, one deadline.
//! * [`buffer_pool`] — bounded recycling of connection read buffers.
//! * [`fault`] — smoltcp-style fault injection: drop, empty-response,
//!   garble, stall, truncate, non-UTF-8, and ban fates, all keyed
//!   deterministically per (query, request index), plus scriptable
//!   per-query [`FaultPlan`]s.
//! * [`client`] — a blocking WHOIS client with timeouts.
//! * [`breaker`] — per-endpoint circuit breakers
//!   (closed→open→half-open) gating crawler traffic to sick servers.
//! * [`journal`] — the crash-safe crawl journal: an append-only,
//!   CRC-framed, fsync'd log of completed domains, torn-tail tolerant.
//! * [`crawler`] — the two-step thin→thick crawler with dynamic
//!   rate-limit inference, multiplicative back-off, bounded retries,
//!   circuit breakers, salvage passes, cancellation, journal-backed
//!   resume, and crawl statistics.
//! * [`pipeline`] — the fused crawl→parse→survey chain: crawled record
//!   bodies stream into a `whois-parser` [`ParseEngine`] in batches and
//!   each parse is folded into `whois-survey` counters while the crawl
//!   is still running.
//!
//! [`ParseEngine`]: whois_parser::ParseEngine

pub mod breaker;
pub mod buffer_pool;
pub mod client;
pub mod conn;
pub mod crawler;
pub mod event;
pub mod fault;
pub mod journal;
pub mod limiter;
pub mod pipeline;
pub mod proto;
pub mod server;
pub mod serving;
pub mod store;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, KeyedBreaker};
pub use buffer_pool::{BufferPool, BufferPoolStats};
pub use client::WhoisClient;
pub use conn::{Chunk, ConnPhase, EventConn};
pub use crawler::{CrawlReport, CrawlResult, CrawlStatus, Crawler, CrawlerConfig, EndpointStats};
pub use event::{Event, Interest, Poller, Waker};
pub use fault::{FateSpec, FaultConfig, FaultPlan};
pub use journal::CrawlJournal;
pub use limiter::{KeyedRateLimiter, RateLimitConfig, RateLimiter};
pub use pipeline::{crawl_parse_survey, PipelineReport};
pub use server::{ServerConfig, ServerHandle, ShutdownReport, WhoisServer};
pub use serving::{Completer, Handler, Io, Serving, ServingMode, Step};
pub use store::{InMemoryStore, LoggingStore, RecordStore};
