//! `whois-serve`: a long-running WHOIS parse service.
//!
//! The paper's parser ("Who is .com?", IMC 2015) is batch-oriented:
//! train a CRF, sweep a corpus. Operationally, though, WHOIS parsing is
//! a *service* — abuse pipelines and registrar hygiene systems ask for
//! one domain at a time, the same domains repeat, and models are
//! retrained as new registrar templates appear (§5.3). This crate wraps
//! the existing [`whois_parser::ParseEngine`] in a daemon shaped for
//! that workload:
//!
//! - **Line protocol over loopback TCP** ([`wire`]): `PARSE` a supplied
//!   body, `FETCH` a domain through upstream WHOIS, `STATS`.
//! - **Sharded LRU result cache** ([`cache`]): keyed by a hash of the
//!   normalized record body + domain + model generation; stores fully
//!   serialized reply lines, so a hit skips parse *and* serialization
//!   and is byte-identical to the miss that populated it.
//! - **Model hot-reload** ([`registry`]): versioned model directory,
//!   arc-swap installs, generation-tagged cache keys — zero downtime,
//!   zero stale reads.
//! - **Admission control** ([`queue`], [`service`]): bounded queue,
//!   explicit `shed` replies under overload, graceful drain on shutdown
//!   with a [`DrainReport`].
//! - **One protocol handler on `whois-net`'s serving core**
//!   ([`service`]): persistent pipelined lines, one parked job per
//!   connection, inline `STATS`/`HEALTH`/`RETRAIN`, idle/read deadlines
//!   and an optional per-IP concurrent-connection cap. The core runs
//!   it on one epoll thread (default) or, as the differential oracle
//!   and the fallback without epoll, thread-per-connection
//!   ([`ServeConfig::mode`]).
//! - **Observability** ([`stats`]): counters and per-stage latency via
//!   the `STATS` verb; liveness (worker health, contained panics,
//!   quarantine) via the `HEALTH` verb.
//! - **Panic containment** ([`service`]): a parse that panics costs one
//!   request, not a worker — the record is quarantined by (domain, body
//!   hash) and refused thereafter, and the service keeps answering.
//! - **Disk tier** ([`ServeConfig::store`](service::ServeConfig)): an
//!   optional `whois_store::RecordStore` under the LRU — evictions
//!   spill down, misses fill up, model swaps fence stored parses by
//!   persistent generation, and a restarted daemon reopens the
//!   segments and answers its first requests at warm-cache hit rates.
//! - **Closed-loop continual learning** ([`retrain`]): a per-record
//!   confidence monitor detects sustained schema drift, low-confidence
//!   records queue into a crash-safe retrain queue, and a background
//!   loop labels them with the rule/template baselines, refits from the
//!   incumbent's weights, gates the candidate on a retained golden set,
//!   deploys through the hot-swap path, and rolls back automatically if
//!   post-swap confidence collapses. Surface: the `RETRAIN` verb and a
//!   `retrain` section in `STATS`/`HEALTH`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use whois_serve::{ModelRegistry, ParseService, ServeClient, ServeConfig};
//! # fn parser() -> whois_parser::WhoisParser { unimplemented!() }
//!
//! let registry = Arc::new(ModelRegistry::new(parser(), "model-0001", 1));
//! let mut service = ParseService::start(registry, ServeConfig::default(), 0).unwrap();
//! let mut client = ServeClient::connect(service.addr()).unwrap();
//! let reply = client.parse("example.com", "Domain Name: EXAMPLE.COM\n").unwrap();
//! println!("{:?}", reply.record);
//! let report = service.shutdown();
//! println!("drained {} queued jobs", report.drained);
//! ```

pub mod cache;
pub mod client;
pub mod queue;
pub mod registry;
pub mod retrain;
pub mod service;
pub mod stats;
pub mod wire;

pub use cache::{cache_key, ShardedCache};
pub use client::{ClientError, ServeClient, DEFAULT_TIMEOUT};
pub use queue::{BoundedQueue, PushError};
pub use registry::{newest_model_file, ActiveModel, InstallHook, ModelRegistry, ModelWatcher};
pub use retrain::{
    DriftMonitor, QueuedRecord, RetrainConfig, RetrainHub, RetrainLoop, RetrainOutcome,
    RetrainQueue, RetrainSnapshot, Retrainer,
};
pub use service::{DrainReport, ParseService, ServeConfig, StoreTierConfig, UpstreamConfig};
pub use stats::{
    ConnectionGauges, DecodeTierStats, HealthSnapshot, QuarantineEntry, ServeStats, StageSnapshot,
    StatsSnapshot, StoreTierStats,
};
pub use wire::{ParseRequest, Reply, Request};
