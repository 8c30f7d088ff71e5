//! The parse daemon: serving core → bounded queue → parse workers.
//!
//! Request path, in stage order (each stage timed into [`ServeStats`]):
//!
//! ```text
//! connection (handler)     parse worker
//! ────────────────────     ────────────────────────────────────
//! decode line + verb       queue_wait (time spent queued)
//! admission: try_push ──►  [FETCH only] upstream fetch
//!   full?   shed reply     cache lookup (hit → reply as cached)
//!   closed? drain reply    parse (ParseEngine::parse_one)
//! park for completion      serialize + cache insert
//! queue reply line    ◄──  complete
//! ```
//!
//! Admission control is the `try_push`: the queue is capacity-bounded
//! and never blocks, so under overload clients get an explicit
//! `{"ok":false,"error":"overloaded","shed":true}` in microseconds
//! instead of a stalled socket. Shutdown closes the queue: workers
//! drain what was admitted, connections answer everything newer with a
//! drain reply, and [`ParseService::shutdown`] reports both counts.
//!
//! Sockets are not this module's business: `ServiceCtx` is a
//! [`Handler`] on `whois-net`'s serving core, which runs it through the
//! event driver (default) or the blocking reference driver
//! ([`ServeConfig::mode`]) — one protocol implementation, so the two
//! are byte-identical by construction and by differential test. What
//! the handler decides:
//!
//! * Lines are persistent and pipelined; at most one queued job is in
//!   flight per connection (the connection parks until its completion),
//!   which is what keeps pipelined replies in request order.
//! * `STATS`/`HEALTH`/`RETRAIN` are answered inline, never queued: a
//!   liveness probe must answer even when the queue is full.
//! * A connection that fails to deliver a complete line within
//!   `read_timeout` of the previous one (slowloris guard) is closed
//!   with an explicit shed-style reply, and concurrent connections per
//!   source IP can be capped at accept time.

use crate::cache::{cache_key, ShardedCache};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::ModelRegistry;
use crate::retrain::{RetrainConfig, RetrainHub, RetrainLoop, RetrainSnapshot, Retrainer};
use crate::stats::{DecodeTierStats, HealthSnapshot, QuarantineEntry, ServeStats, StatsSnapshot};
use crate::wire::{ParseRequest, Reply, Request};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whois_model::RawRecord;
use whois_net::proto::{self, ReplyKind};
use whois_net::serving::{self, Completer, Handler, Io, Serving, Step};
use whois_net::{Chunk, KeyedRateLimiter, RateLimitConfig, ServingMode, WhoisClient};
use whois_store::{Compactor, RecordStore};

/// Where `FETCH` requests go: a WHOIS registry plus the referral
/// resolver, exactly like [`whois_net::Crawler`]'s view of the world.
#[derive(Clone, Debug)]
pub struct UpstreamConfig {
    /// The registry (thin) server.
    pub registry: SocketAddr,
    /// Referral host name → address.
    pub resolver: HashMap<String, SocketAddr>,
    /// Client used for upstream queries.
    pub client: WhoisClient,
}

/// Disk-tier configuration: where the cold tier lives and how it is
/// maintained.
#[derive(Clone, Debug)]
pub struct StoreTierConfig {
    /// Store directory (created if missing).
    pub dir: std::path::PathBuf,
    /// Post-compaction disk cap in bytes (0 = unbounded).
    pub cap_bytes: u64,
    /// How often the background compactor checks the store.
    pub compact_interval: Duration,
    /// Per-append fsync. Off by default: spilled entries are
    /// re-derivable cache contents, so the crash-loss window is an
    /// acceptable trade for not fsyncing on the serving path; a
    /// graceful shutdown syncs everything.
    pub sync: bool,
}

impl StoreTierConfig {
    /// Defaults for `dir`: unbounded, 2 s compaction checks, no
    /// per-append fsync.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> Self {
        StoreTierConfig {
            dir: dir.into(),
            cap_bytes: 0,
            compact_interval: Duration::from_secs(2),
            sync: false,
        }
    }
}

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Which driver of the serving core runs accepted connections
    /// (the event driver by default, which falls back to the blocking
    /// reference driver where epoll is unavailable).
    pub mode: ServingMode,
    /// Optional cap on concurrent connections per source IP, enforced
    /// at accept time; refusals get a shed-style reply.
    pub max_conns_per_ip: Option<u32>,
    /// Parse worker threads (0 = available parallelism).
    pub workers: usize,
    /// Admission queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Result cache capacity, total entries.
    pub cache_capacity: usize,
    /// Result cache shard count.
    pub cache_shards: usize,
    /// Per-connection read timeout (idle persistent connections are
    /// closed after this).
    pub read_timeout: Duration,
    /// Longest accepted request line.
    pub max_request_len: usize,
    /// Upstream WHOIS for `FETCH` (absent → `FETCH` is an error).
    pub upstream: Option<UpstreamConfig>,
    /// Quarantine ring capacity: how many (domain, body-hash) pairs
    /// whose parse panicked are remembered and refused without
    /// re-parsing. 0 disables quarantine (panics are still contained).
    pub quarantine_capacity: usize,
    /// Test hook: a domain whose parse panics unconditionally. Lets the
    /// survivability tests rig a poison record without needing a real
    /// parser bug.
    pub panic_trigger: Option<String>,
    /// Disk-backed cold tier under the result cache (absent → RAM
    /// only). Evictions spill to it, misses fill from it, and a
    /// restart over the same directory starts warm.
    pub store: Option<StoreTierConfig>,
    /// Closed-loop continual learning (absent → off): every served
    /// parse reports its confidence to a drift monitor, sustained
    /// low-confidence regimes queue records into a crash-safe retrain
    /// queue, and a background loop labels, refits, gates, and
    /// hot-swaps — with automatic rollback if post-swap confidence
    /// collapses.
    pub retrain: Option<RetrainConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServingMode::default(),
            max_conns_per_ip: None,
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 4096,
            cache_shards: 8,
            read_timeout: Duration::from_secs(10),
            max_request_len: 1 << 20,
            upstream: None,
            quarantine_capacity: 64,
            panic_trigger: None,
            store: None,
            retrain: None,
        }
    }
}

/// What [`ParseService::shutdown`] observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that were queued at the shutdown signal and completed
    /// during the drain (admitted work is never dropped).
    pub drained: u64,
    /// Requests refused with a drain reply after the signal.
    pub shed: u64,
}

/// One admitted unit of work.
struct Job {
    work: Work,
    enqueued: Instant,
    /// Routes the finished reply line back to the parked connection.
    responder: Completer<Arc<String>>,
}

enum Work {
    Parse(ParseRequest),
    Fetch(String),
}

/// State shared by the serving core's callbacks and the workers.
struct ServiceCtx {
    cfg: ServeConfig,
    registry: Arc<ModelRegistry>,
    cache: ShardedCache,
    stats: ServeStats,
    queue: BoundedQueue<Job>,
    shutdown: AtomicBool,
    /// Per-IP concurrent-connection cap (rate fields unlimited; only
    /// the conn cap is used).
    limiter: Mutex<KeyedRateLimiter<IpAddr>>,
    workers: usize,
    started: Instant,
    /// Live worker-thread count (each drops it on exit, panicking or
    /// not); `HEALTH` compares it to `workers`.
    workers_alive: AtomicU64,
    /// Ring of records whose parse panicked, oldest first.
    quarantine: Mutex<VecDeque<QuarantineEntry>>,
    /// Disk tier under the result cache (absent → RAM only).
    store: Option<Arc<RecordStore>>,
    /// Drift monitor + retrain queue (absent → the loop is off).
    retrain: Option<Arc<RetrainHub>>,
}

impl ServiceCtx {
    /// Serve one already-decoded request: `Some(reply line)` when it
    /// is answered inline, `None` when it was queued and its reply will
    /// arrive as the connection's completion.
    fn respond(&self, request: Request, io: &Io<'_, Arc<String>>) -> Option<Arc<String>> {
        match request {
            Request::Stats => {
                ServeStats::inc(&self.stats.stats_requests);
                Some(Arc::new(Reply::stats(self.snapshot()).encode()))
            }
            // Answered inline, never queued: a liveness probe must
            // respond even when every parse worker is wedged or the
            // queue is full.
            Request::Health => Some(Arc::new(Reply::health(self.health_snapshot()).encode())),
            // Inline for the same reason as HEALTH: drift state must be
            // observable even when the workers are saturated.
            Request::Retrain => Some(Arc::new(Reply::retrain(self.retrain_snapshot()).encode())),
            Request::Parse(req) => {
                ServeStats::inc(&self.stats.parse_requests);
                self.submit(Work::Parse(req), io)
            }
            Request::Fetch(domain) => {
                ServeStats::inc(&self.stats.fetch_requests);
                if self.cfg.upstream.is_none() {
                    ServeStats::inc(&self.stats.errors);
                    return Some(Arc::new(
                        Reply::error("no upstream configured for FETCH", false).encode(),
                    ));
                }
                self.submit(Work::Fetch(domain), io)
            }
        }
    }

    /// Admission control: enqueue (`None` — the worker completes the
    /// connection later) or shed immediately. Never blocks.
    fn submit(&self, work: Work, io: &Io<'_, Arc<String>>) -> Option<Arc<String>> {
        let job = Job {
            work,
            enqueued: Instant::now(),
            responder: io.completer(),
        };
        let refusal = match self.queue.try_push(job) {
            Ok(()) => return None,
            Err(PushError::Full(_)) => "overloaded",
            Err(PushError::Closed(_)) => "draining",
        };
        ServeStats::inc(&self.stats.sheds);
        Some(Arc::new(Reply::error(refusal, true).encode()))
    }

    /// Cache-before-parse: the headline serving optimization. With a
    /// disk tier attached the order is RAM cache → store → parse; a
    /// disk hit is promoted into RAM, and whatever that promotion
    /// evicts spills back down.
    fn parse_reply(&self, domain: &str, text: &str) -> Arc<String> {
        let model = self.registry.current();
        let key = cache_key(model.generation, domain, text);
        let t = Instant::now();
        let cached = self.cache.get(key);
        self.stats.cache_lookup.record(t.elapsed());
        if let Some(line) = cached {
            ServeStats::inc(&self.stats.cache_hits);
            return line;
        }
        ServeStats::inc(&self.stats.cache_misses);

        // The generation-free body key: the quarantine hash, and the
        // disk tier's key (the store fences generations itself).
        let body_key = cache_key(0, domain, text);

        // Quarantine check — keyed model-independently (generation 0),
        // so a poison record stays quarantined across model swaps.
        if self.is_quarantined(domain, body_key) {
            ServeStats::inc(&self.stats.errors);
            return Arc::new(
                Reply::error(
                    "internal: record quarantined (a previous parse panicked)",
                    false,
                )
                .encode(),
            );
        }

        // Disk tier: a stored reply (written under the current store
        // generation, i.e. this model) is byte-identical to a fresh
        // parse by construction — the spill wrote the serialized line.
        if let Some(store) = &self.store {
            if let Some(line) = store.get_parsed(body_key) {
                ServeStats::inc(&self.stats.disk_hits);
                let line = Arc::new(line);
                self.promote(key, body_key, model.generation, &line);
                return line;
            }
            ServeStats::inc(&self.stats.disk_misses);
        }

        // Panic containment: a parse that panics must cost one request,
        // not a worker thread. The engine and caches are only *read*
        // here (the scratch pool heals itself — a scratch leased by a
        // panicking parse is simply never returned), so resuming past
        // the unwind is sound.
        let t = Instant::now();
        let trigger = self.cfg.panic_trigger.as_deref();
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            if trigger.is_some_and(|t| t.eq_ignore_ascii_case(domain)) {
                panic!("rigged parse panic for {domain}");
            }
            match &self.retrain {
                // With the loop on, the parse also reports how sure the
                // model was — the marginal-confidence signal the drift
                // monitor runs on.
                Some(_) => {
                    let (record, confidence) = model
                        .engine
                        .parse_one_confident(&RawRecord::new(domain, text));
                    (record, Some(confidence))
                }
                None => (model.engine.parse_one(&RawRecord::new(domain, text)), None),
            }
        }));
        self.stats.parse.record(t.elapsed());
        let (record, confidence) = match parsed {
            Ok(pair) => pair,
            Err(_) => {
                ServeStats::inc(&self.stats.panics);
                ServeStats::inc(&self.stats.errors);
                self.quarantine_push(domain, body_key);
                return Arc::new(
                    Reply::error("internal: parse panicked; record quarantined", false).encode(),
                );
            }
        };
        ServeStats::inc(&self.stats.parses);
        if let (Some(hub), Some(confidence)) = (&self.retrain, confidence) {
            hub.observe_parse(domain, text, confidence);
        }

        let t = Instant::now();
        let line = Arc::new(Reply::record(&model.version, record).encode());
        self.stats.serialize.record(t.elapsed());
        self.promote(key, body_key, model.generation, &line);
        line
    }

    /// Insert a reply into the RAM cache; with a disk tier attached
    /// the entry is tagged with its body key and model generation so it
    /// can spill on eviction, and whatever this insert evicts spills
    /// now.
    fn promote(&self, key: u64, body_key: u64, generation: u64, line: &Arc<String>) {
        match &self.store {
            None => self.cache.insert(key, line.clone()),
            Some(_) => {
                if let Some((spill, spill_gen, value)) =
                    self.cache
                        .insert_with_spill(key, body_key, generation, line.clone())
                {
                    self.spill(spill, spill_gen, &value);
                }
            }
        }
    }

    /// Write one evicted (or drained) reply to the disk tier — unless
    /// it was parsed under a since-replaced model, in which case it is
    /// dropped: the store's generation fence must never be laundered by
    /// a stale RAM entry evicted after a hot swap.
    /// Best-effort: a full disk degrades the cold tier, not serving.
    fn spill(&self, body_key: u64, generation: u64, value: &Arc<String>) {
        if generation != self.registry.current().generation {
            return;
        }
        if let Some(store) = &self.store {
            if matches!(store.put_parsed(body_key, value), Ok(true)) {
                ServeStats::inc(&self.stats.store_spills);
            }
        }
    }

    /// The ring is empty unless a parse has panicked, so the miss path
    /// pays one uncontended lock and builds neither string.
    fn is_quarantined(&self, domain: &str, body_key: u64) -> bool {
        if self.cfg.quarantine_capacity == 0 {
            return false;
        }
        let ring = self.quarantine.lock();
        if ring.is_empty() {
            return false;
        }
        let (domain, body_hash) = quarantine_id(domain, body_key);
        ring.iter()
            .any(|e| e.body_hash == body_hash && e.domain == domain)
    }

    fn quarantine_push(&self, domain: &str, body_key: u64) {
        if self.cfg.quarantine_capacity == 0 {
            return;
        }
        let (domain, body_hash) = quarantine_id(domain, body_key);
        let mut ring = self.quarantine.lock();
        while ring.len() >= self.cfg.quarantine_capacity {
            ring.pop_front();
        }
        ring.push_back(QuarantineEntry { domain, body_hash });
    }

    /// `FETCH`: two-step upstream crawl (thin → referral → thick, thin
    /// fallback), then the normal cached parse path.
    fn fetch_reply(&self, domain: &str) -> Arc<String> {
        let up = self.cfg.upstream.as_ref().expect("checked by respond");
        ServeStats::inc(&self.stats.fetches);
        let t = Instant::now();
        let body = fetch_body(up, domain);
        self.stats.fetch.record(t.elapsed());
        match body {
            Ok(text) => {
                // Sink the fetched body into the cold tier (best
                // effort): the crawl corpus accumulates on disk even
                // when it arrives via FETCH.
                if let Some(store) = &self.store {
                    let _ = store.put_raw(domain, &text);
                }
                self.parse_reply(domain, &text)
            }
            Err(message) => {
                ServeStats::inc(&self.stats.fetch_failures);
                ServeStats::inc(&self.stats.errors);
                Arc::new(Reply::error(message, false).encode())
            }
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let model = self.registry.current();
        let counters = self.registry.decode_counters();
        self.stats.snapshot(
            &model.version,
            model.generation,
            self.registry.swaps(),
            self.cache.len(),
            self.workers,
            self.registry.line_cache().stats(),
            self.registry.load_failures(),
            self.quarantine.lock().iter().cloned().collect(),
            DecodeTierStats {
                tier: self.registry.decode_tier().name().to_string(),
                fast_decodes: counters.fast_decodes(),
                exact_fallbacks: counters.exact_fallbacks(),
                fallback_rate: counters.fallback_rate(),
                kernel: self.registry.kernel_level().name().to_string(),
            },
            self.stats
                .store_tier(self.store.as_ref().map(|s| s.stats())),
            self.retrain_snapshot(),
        )
    }

    fn retrain_snapshot(&self) -> RetrainSnapshot {
        self.retrain
            .as_ref()
            .map(|hub| hub.snapshot())
            .unwrap_or_default()
    }

    fn health_snapshot(&self) -> HealthSnapshot {
        let model = self.registry.current();
        HealthSnapshot {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            workers: self.workers as u64,
            workers_alive: self.workers_alive.load(Ordering::SeqCst),
            panics: self.stats.panics.load(Ordering::Relaxed),
            quarantine_len: self.quarantine.lock().len() as u64,
            model_load_failures: self.registry.load_failures(),
            model_version: model.version.clone(),
            model_generation: model.generation,
            model_swaps: self.registry.swaps(),
            draining: self.shutdown.load(Ordering::SeqCst),
            connections: self.stats.connection_gauges(),
            decode_tier: self.registry.decode_tier().name().to_string(),
            store: self
                .stats
                .store_tier(self.store.as_ref().map(|s| s.stats())),
            kernel: self.registry.kernel_level().name().to_string(),
            retrain: self.retrain_snapshot(),
        }
    }
}

/// What a [`QuarantineEntry`] holds for a record: the lower-cased domain
/// and the generation-free body key in hex.
fn quarantine_id(domain: &str, body_key: u64) -> (String, String) {
    (domain.to_lowercase(), format!("{body_key:016x}"))
}

/// Fetch the best available record body for `domain` from upstream.
fn fetch_body(up: &UpstreamConfig, domain: &str) -> Result<String, String> {
    let thin = up
        .client
        .query(up.registry, domain)
        .map_err(|e| format!("registry query failed: {e}"))?;
    match proto::classify_reply(&thin) {
        ReplyKind::Record => {}
        ReplyKind::NoMatch => return Err(format!("no match for {domain}")),
        other => return Err(format!("registry reply unusable ({other:?})")),
    }
    if let Some(host) = proto::referral_server(&thin) {
        if let Some(&addr) = up.resolver.get(&host) {
            if let Ok(thick) = up.client.query(addr, domain) {
                if proto::classify_reply(&thick) == ReplyKind::Record {
                    return Ok(thick);
                }
            }
        }
    }
    Ok(thin)
}

/// A running parse service bound to a loopback port.
pub struct ParseService {
    addr: SocketAddr,
    ctx: Arc<ServiceCtx>,
    /// The serving core's driver thread.
    serving: Serving,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
    compactor: Option<Compactor>,
    /// The background retrain loop (present when the loop is on).
    retrain_loop: Option<RetrainLoop>,
    /// The loop's decision core, exposed for harnesses that drive ticks
    /// directly.
    retrainer: Option<Arc<Retrainer>>,
    report: Option<DrainReport>,
}

impl ParseService {
    /// Start the daemon on an ephemeral loopback port (or `port` if
    /// nonzero).
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: ServeConfig,
        port: u16,
    ) -> std::io::Result<ParseService> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        // Warm one scratch per worker so first requests skip cold-start
        // allocations.
        registry.current().engine.warm(workers);
        let mode = cfg.mode;

        // Open the disk tier before serving starts: recovery (torn-tail
        // truncation, index rebuild) happens here, and a model-version
        // mismatch with the stored manifest fences old parses. Future
        // hot swaps fence via the install hook.
        let store = match &cfg.store {
            None => None,
            Some(tier) => {
                let store = Arc::new(RecordStore::open_for_model(
                    &tier.dir,
                    &registry.current().version,
                    tier.cap_bytes,
                    tier.sync,
                )?);
                let hook_store = Arc::clone(&store);
                registry.on_install(Box::new(move |version, _generation| {
                    let _ = hook_store.bump_generation(version);
                }));
                Some(store)
            }
        };
        let compactor = store.as_ref().map(|s| {
            Compactor::start(
                Arc::clone(s),
                cfg.store.as_ref().expect("store config").compact_interval,
            )
        });
        // Open the retrain hub before serving starts: queue recovery
        // (torn-tail truncation, ack-watermark clamp) happens here, so
        // records queued by a killed predecessor survive into this
        // process's loop.
        let retrain_hub = match &cfg.retrain {
            None => None,
            Some(rc) => Some(Arc::new(RetrainHub::open(rc)?)),
        };
        let ctx = Arc::new(ServiceCtx {
            cache: ShardedCache::new(cfg.cache_capacity, cfg.cache_shards),
            queue: BoundedQueue::new(cfg.queue_capacity),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            limiter: Mutex::new(
                KeyedRateLimiter::new(RateLimitConfig::unlimited())
                    .with_conn_cap(cfg.max_conns_per_ip),
            ),
            registry,
            workers,
            started: Instant::now(),
            // Counted up-front so HEALTH is exact from the first
            // request; the drop guard in worker_loop decrements.
            workers_alive: AtomicU64::new(workers as u64),
            quarantine: Mutex::new(VecDeque::new()),
            store,
            retrain: retrain_hub.clone(),
            cfg,
        });

        let worker_threads = (0..workers)
            .map(|i| {
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("whois-serve-worker-{i}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawn parse worker")
            })
            .collect();

        let name = format!("whois-serve-{}", addr.port());
        let serving = serving::serve(listener, ctx.clone(), mode, name)?;

        let retrainer = match (&ctx.cfg.retrain, retrain_hub) {
            (Some(rc), Some(hub)) => Some(Arc::new(Retrainer::new(
                ctx.registry.clone(),
                hub,
                rc.clone(),
            ))),
            _ => None,
        };
        let retrain_loop = retrainer.as_ref().map(|r| {
            RetrainLoop::start(
                r.clone(),
                ctx.cfg.retrain.as_ref().expect("retrain config").interval,
            )
        });

        Ok(ParseService {
            addr,
            ctx,
            serving,
            worker_threads,
            compactor,
            retrain_loop,
            retrainer,
            report: None,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving statistics (same payload as the `STATS` verb).
    pub fn stats(&self) -> StatsSnapshot {
        self.ctx.snapshot()
    }

    /// The model registry backing this service.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.ctx.registry
    }

    /// Entries in the result cache.
    pub fn cache_len(&self) -> usize {
        self.ctx.cache.len()
    }

    /// The disk tier, when one is attached.
    pub fn store(&self) -> Option<&Arc<RecordStore>> {
        self.ctx.store.as_ref()
    }

    /// The retrain hub (monitor + queue), when the loop is configured.
    pub fn retrain_hub(&self) -> Option<&Arc<RetrainHub>> {
        self.ctx.retrain.as_ref()
    }

    /// The retrain loop's decision core, when the loop is configured —
    /// harnesses drive [`Retrainer::tick`] directly to prove the gate
    /// and rollback without racing the background thread.
    pub fn retrainer(&self) -> Option<&Arc<Retrainer>> {
        self.retrainer.as_ref()
    }

    /// Graceful drain: stop admitting, finish everything admitted,
    /// report what drained versus what was shed on the way down.
    /// Idempotent — repeat calls return the first report.
    pub fn shutdown(&mut self) -> DrainReport {
        if let Some(report) = self.report {
            return report;
        }
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Stop the retrain loop before draining: a hot swap mid-drain
        // would be harmless (installs are atomic) but pointless.
        if let Some(loop_) = self.retrain_loop.take() {
            loop_.stop();
        }
        let queued = self.ctx.queue.len() as u64;
        let sheds_before = self.ctx.stats.sheds.load(Ordering::Relaxed);
        self.ctx.queue.close();
        for w in self.worker_threads.drain(..) {
            let _ = w.join();
        }
        // Workers are gone, so every admitted job's completion has been
        // sent. Only then stop the serving core: the event driver
        // delivers those completions, flushes what it can, and exits.
        self.serving.stop();
        // With a disk tier attached, spill the entire hot tier before
        // the process dies — this is what makes the *next* process
        // start at warm-cache hit rates. Workers and the driver are
        // gone, so the cache is quiescent.
        if let Some(compactor) = self.compactor.take() {
            compactor.stop();
        }
        if self.ctx.store.is_some() {
            for (body_key, generation, value) in self.ctx.cache.drain_spillable() {
                self.ctx.spill(body_key, generation, &value);
            }
            if let Some(store) = &self.ctx.store {
                let _ = store.sync();
            }
        }
        let report = DrainReport {
            drained: queued,
            shed: self.ctx.stats.sheds.load(Ordering::Relaxed) - sheds_before,
        };
        self.report = Some(report);
        report
    }
}

impl Drop for ParseService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements `workers_alive` when the owning worker thread exits —
/// normally at drain, or abnormally if a panic ever escapes the
/// per-request containment. `HEALTH` surfaces the difference.
struct WorkerAliveGuard<'a> {
    ctx: &'a ServiceCtx,
}

impl Drop for WorkerAliveGuard<'_> {
    fn drop(&mut self) {
        self.ctx.workers_alive.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(ctx: &ServiceCtx) {
    let _guard = WorkerAliveGuard { ctx };
    while let Some(job) = ctx.queue.pop() {
        ctx.stats.queue_wait.record(job.enqueued.elapsed());
        let reply = match &job.work {
            Work::Parse(req) => ctx.parse_reply(&req.domain, &req.text),
            Work::Fetch(domain) => ctx.fetch_reply(domain),
        };
        job.responder.send(reply);
    }
}

/// Which live gauge a connection occupies.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Gauge {
    Reading,
    Queued,
    /// Closing after a final reply (drain shed, idle timeout, framing
    /// error) that is still being flushed.
    Writing,
}

/// One connection's protocol state.
struct SvcConn {
    ip: IpAddr,
    gauge: Gauge,
}

/// Queue one reply line plus its terminator. `Arc` replies (the cache's
/// currency) are queued by refcount bump, not copy.
fn queue_reply_line(io: &mut Io<'_, Arc<String>>, line: Arc<String>) {
    io.queue(Chunk::Shared(line));
    io.queue(Chunk::Static(b"\n"));
}

impl ServiceCtx {
    fn gauge(&self, gauge: Gauge) -> &AtomicU64 {
        match gauge {
            Gauge::Reading => &self.stats.conns_reading,
            Gauge::Queued => &self.stats.conns_queued,
            Gauge::Writing => &self.stats.conns_writing,
        }
    }

    /// Move a connection between gauges, keeping them in lockstep.
    fn set_gauge(&self, conn: &mut SvcConn, gauge: Gauge) {
        if conn.gauge != gauge {
            ServeStats::dec(self.gauge(conn.gauge));
            ServeStats::inc(self.gauge(gauge));
            conn.gauge = gauge;
        }
    }

    /// Queue a last reply line and close once it is flushed.
    fn finish(&self, conn: &mut SvcConn, io: &mut Io<'_, Arc<String>>, reply: Reply) -> Step {
        queue_reply_line(io, Arc::new(reply.encode()));
        self.set_gauge(conn, Gauge::Writing);
        Step::Finish
    }

    /// Decode and serve every complete buffered line, stopping at the
    /// first queued verb: one job in flight per connection is what
    /// keeps pipelined replies in request order.
    fn pump(&self, conn: &mut SvcConn, io: &mut Io<'_, Arc<String>>) -> Step {
        loop {
            let line = match proto::decode_line(io.buf, self.cfg.max_request_len) {
                Ok(Some(line)) => line,
                Ok(None) => return Step::Continue,
                Err(e) => {
                    ServeStats::inc(&self.stats.errors);
                    return self.finish(conn, io, Reply::error(e.to_string(), false));
                }
            };
            if line.is_empty() {
                continue;
            }
            // A complete line arrived: restart the idle clock.
            io.restart_idle();
            ServeStats::inc(&self.stats.requests);
            let decoded = Request::decode(&line);
            // HEALTH is answered even while draining (with
            // `draining:true` in the payload) — a probe that gets cut
            // off mid-shutdown can't tell "draining" from "dead".
            if self.shutdown.load(Ordering::SeqCst) && !matches!(decoded, Ok(Request::Health)) {
                ServeStats::inc(&self.stats.sheds);
                return self.finish(conn, io, Reply::error("draining", true));
            }
            match decoded {
                Ok(request) => match self.respond(request, io) {
                    Some(line) => queue_reply_line(io, line),
                    None => {
                        // The worker owns the clock while the job runs;
                        // the idle clock restarts at its completion.
                        self.set_gauge(conn, Gauge::Queued);
                        return Step::ParkForCompletion;
                    }
                },
                Err(message) => {
                    ServeStats::inc(&self.stats.errors);
                    queue_reply_line(io, Arc::new(Reply::error(message, false).encode()));
                }
            }
        }
    }
}

impl Handler for ServiceCtx {
    type Conn = SvcConn;
    /// A finished reply line from a parse worker.
    type Done = Arc<String>;

    fn read_timeout(&self) -> Duration {
        self.cfg.read_timeout
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The per-IP connection cap; a refusal is a shed-style reply line
    /// and counts as a shed.
    fn admit(&self, peer: SocketAddr) -> Result<SvcConn, Vec<u8>> {
        let ip = peer.ip();
        if !self.limiter.lock().try_acquire_conn(&ip, Instant::now()) {
            ServeStats::inc(&self.stats.sheds);
            let mut refusal = Reply::error("too many connections", true).encode();
            refusal.push('\n');
            return Err(refusal.into_bytes());
        }
        ServeStats::inc(&self.stats.conns_open);
        ServeStats::inc(&self.stats.conns_reading);
        Ok(SvcConn {
            ip,
            gauge: Gauge::Reading,
        })
    }

    fn on_data(&self, conn: &mut SvcConn, io: &mut Io<'_, Arc<String>>) -> Step {
        self.pump(conn, io)
    }

    /// A worker finished this connection's job: deliver the reply,
    /// restart the idle clock, and serve any pipelined backlog that was
    /// waiting behind it.
    fn on_completion(
        &self,
        conn: &mut SvcConn,
        reply: Arc<String>,
        io: &mut Io<'_, Arc<String>>,
    ) -> Step {
        self.set_gauge(conn, Gauge::Reading);
        io.restart_idle();
        queue_reply_line(io, reply);
        self.pump(conn, io)
    }

    /// The idle clock ran out (slowloris guard): count it and tell the
    /// peer why before closing.
    fn on_deadline(&self, conn: &mut SvcConn, io: &mut Io<'_, Arc<String>>) -> Step {
        ServeStats::inc(&self.stats.idle_closed);
        self.finish(conn, io, Reply::error("idle timeout", true))
    }

    fn on_close(&self, conn: SvcConn) {
        self.limiter.lock().release_conn(&conn.ip);
        ServeStats::dec(self.gauge(conn.gauge));
        ServeStats::dec(&self.stats.conns_open);
    }
}
