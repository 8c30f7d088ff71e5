//! The two-step WHOIS crawler with dynamic rate-limit inference (§4.1).
//!
//! For each `com` domain the crawler first queries the registry for the
//! thin record, extracts the sponsoring registrar's WHOIS server from the
//! `Whois Server:` referral, and then queries that server for the thick
//! record. Rate limits are "rarely published publicly", so the crawler
//! infers them: it tracks its query pacing per server, and "when a given
//! server stops responding with valid data, \[it\] infer\[s\] that \[the\]
//! query rate was the culprit", records the limit, and subsequently
//! queries well under it (multiplicative back-off on the per-server
//! inter-query delay). Every query is retried up to three times before
//! the domain is marked failed.
//!
//! On top of the paper's retry/backoff, the crawler carries the
//! fault-tolerance layer a weeks-long crawl needs in practice:
//!
//! * **Circuit breakers** ([`crate::breaker`]) — per-endpoint
//!   closed→open→half-open gating on consecutive transport failures,
//!   with per-endpoint failure/latency accounting in the report.
//! * **Salvage passes** — after the main pass, domains that ended
//!   `Failed`/`ThinOnly` are re-queued up to
//!   [`salvage_passes`](CrawlerConfig::salvage_passes) times; a whole
//!   fresh pass (fresh retry budget, later in time, breakers warmed)
//!   recovers most of what a burst of faults took.
//! * **Cancellation** — [`Crawler::cancel`] stops a crawl at the next
//!   domain boundary; in-flight domains finish and are reported.
//! * **Resumable crawls** — [`Crawler::crawl_resumable`] journals every
//!   completed domain to a [`CrawlJournal`] and skips already-journaled
//!   domains on restart, so a killed crawl resumes without re-querying.

use crate::breaker::{BreakerConfig, KeyedBreaker};
use crate::client::WhoisClient;
use crate::journal::CrawlJournal;
use crate::proto::{self, ReplyKind};
use crossbeam::channel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whois_store::{Fnv, RecordStore};

/// Crawler configuration.
#[derive(Clone, Debug)]
pub struct CrawlerConfig {
    /// Parallel worker threads ("we use multiple servers to provide for
    /// parallel access").
    pub workers: usize,
    /// Attempts per query before marking it failed (the paper used 3).
    pub retries: usize,
    /// Initial per-server inter-query delay (0 = as fast as possible
    /// until the first refusal teaches us better).
    pub initial_delay: Duration,
    /// Ceiling on the per-server delay.
    pub max_delay: Duration,
    /// Multiplicative back-off factor applied on each refusal.
    pub backoff: f64,
    /// Pause before retrying a failed query (lets penalty windows pass).
    pub retry_pause: Duration,
    /// Client timeouts.
    pub client: WhoisClient,
    /// Per-endpoint circuit breakers (`None` = disabled).
    pub breaker: Option<BreakerConfig>,
    /// Extra whole-domain passes over `Failed`/`ThinOnly` results after
    /// the main pass (0 = the paper's single pass).
    pub salvage_passes: usize,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            workers: 4,
            retries: 3,
            initial_delay: Duration::ZERO,
            max_delay: Duration::from_millis(200),
            backoff: 2.0,
            retry_pause: Duration::from_millis(40),
            client: WhoisClient::default(),
            breaker: None,
            salvage_passes: 0,
        }
    }
}

/// Outcome for one domain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlStatus {
    /// Thin and thick records both fetched.
    Full,
    /// Thin record only (referral missing/unresolvable, or the registrar
    /// kept failing).
    ThinOnly,
    /// The registry reported no match (expired since the zone snapshot).
    NoMatch,
    /// Even the thin record could not be fetched.
    Failed,
}

impl CrawlStatus {
    /// Whether a salvage pass could improve on this outcome.
    fn retryable(&self) -> bool {
        matches!(self, CrawlStatus::Failed | CrawlStatus::ThinOnly)
    }

    /// Preference order when merging passes (higher is better).
    fn rank(&self) -> u8 {
        match self {
            CrawlStatus::Full => 3,
            CrawlStatus::NoMatch => 2,
            CrawlStatus::ThinOnly => 1,
            CrawlStatus::Failed => 0,
        }
    }
}

/// One crawled domain.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlResult {
    /// The domain queried.
    pub domain: String,
    /// Thin record body, when fetched.
    pub thin: Option<String>,
    /// Thick record body, when fetched.
    pub thick: Option<String>,
    /// Outcome.
    pub status: CrawlStatus,
    /// Total queries issued for this domain (across retries and salvage
    /// passes).
    pub attempts: u32,
}

impl CrawlResult {
    /// Merge a salvage-pass result into an earlier one: the better
    /// status wins, attempts accumulate.
    fn merge(self, later: CrawlResult) -> CrawlResult {
        let attempts = self.attempts + later.attempts;
        let mut best = if later.status.rank() >= self.status.rank() {
            later
        } else {
            self
        };
        best.attempts = attempts;
        best
    }
}

/// Transport-level accounting for one WHOIS endpoint across a crawl.
#[derive(Clone, Debug, Default)]
pub struct EndpointStats {
    /// Queries actually sent (breaker rejections excluded).
    pub queries: u64,
    /// Transport failures: connect/read errors and empty replies.
    pub failures: u64,
    /// Times the endpoint's breaker tripped open.
    pub breaker_trips: u64,
    /// Acquires the breaker rejected (each cost the caller a bounded
    /// wait, not an attempt).
    pub breaker_rejections: u64,
    /// Summed wall-clock latency of sent queries.
    pub total_latency: Duration,
}

impl EndpointStats {
    /// Mean per-query latency. Computed in nanoseconds with u128
    /// arithmetic — a weeks-long crawl can push `queries` past `u32`,
    /// where `Duration / u32` would truncate the divisor.
    pub fn mean_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.total_latency.as_nanos() / self.queries as u128) as u64)
        }
    }
}

/// Aggregate crawl statistics.
#[derive(Clone, Debug, Default)]
pub struct CrawlReport {
    /// Per-domain results, in completion order ([`Crawler::crawl_resumable`]
    /// reorders to input order so resumed and uninterrupted runs compare
    /// equal).
    pub results: Vec<CrawlResult>,
    /// Inferred per-server sustainable delays at the end of the crawl.
    pub inferred_delays: HashMap<SocketAddr, Duration>,
    /// Per-endpoint transport accounting.
    pub endpoints: HashMap<SocketAddr, EndpointStats>,
    /// Wall-clock duration.
    pub elapsed: Duration,
}

impl CrawlReport {
    /// Count of results with a given status.
    pub fn count(&self, status: CrawlStatus) -> usize {
        self.results.iter().filter(|r| r.status == status).count()
    }

    /// Fraction of domains with full (thin+thick) records — the paper
    /// achieved "a bit over 90%".
    pub fn coverage(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.count(CrawlStatus::Full) as f64 / self.results.len() as f64
    }

    /// Fraction of domains that failed outright (~7.5% in the paper).
    pub fn failure_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        (self.count(CrawlStatus::Failed) + self.count(CrawlStatus::ThinOnly)) as f64
            / self.results.len() as f64
    }

    /// A canonical, timing-free rendering of the per-domain outcomes:
    /// one line per result, sorted by domain, with body content hashed.
    /// Two crawls of the same corpus under the same fault seed must
    /// produce byte-identical summaries — the determinism the fault
    /// tests assert.
    pub fn canonical_summary(&self) -> String {
        fn fnv(s: Option<&str>) -> u64 {
            let mut h = Fnv::new();
            h.write(s.unwrap_or("\u{0}none").as_bytes());
            h.finish()
        }
        let mut lines: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                format!(
                    "{} {:?} attempts={} thin={:016x} thick={:016x}",
                    r.domain,
                    r.status,
                    r.attempts,
                    fnv(r.thin.as_deref()),
                    fnv(r.thick.as_deref())
                )
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

/// Per-server pacing state.
#[derive(Debug)]
struct Pacing {
    delay: Duration,
    next_allowed: Instant,
    refusals: u32,
}

/// The crawler.
pub struct Crawler {
    cfg: CrawlerConfig,
    registry: SocketAddr,
    /// Referral host name → address (the simulation's DNS).
    resolver: HashMap<String, SocketAddr>,
    pacing: Mutex<HashMap<SocketAddr, Pacing>>,
    breakers: Option<Mutex<KeyedBreaker<SocketAddr>>>,
    endpoints: Mutex<HashMap<SocketAddr, EndpointStats>>,
    cancelled: AtomicBool,
}

impl Crawler {
    /// Create a crawler against `registry`, resolving referral host
    /// names through `resolver`.
    pub fn new(
        registry: SocketAddr,
        resolver: HashMap<String, SocketAddr>,
        cfg: CrawlerConfig,
    ) -> Self {
        Crawler {
            breakers: cfg.breaker.map(|b| Mutex::new(KeyedBreaker::new(b))),
            cfg,
            registry,
            resolver,
            pacing: Mutex::new(HashMap::new()),
            endpoints: Mutex::new(HashMap::new()),
            cancelled: AtomicBool::new(false),
        }
    }

    /// Ask a running crawl to stop at the next domain boundary.
    /// In-flight domains complete (and are reported/journaled); queued
    /// domains are discarded. Cleared when the next crawl starts.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether a cancel has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Crawl all `domains`, returning per-domain results and the inferred
    /// per-server pacing.
    pub fn crawl(self: &Arc<Self>, domains: &[String]) -> CrawlReport {
        self.crawl_each(domains, |_| {})
    }

    /// [`crawl`](Self::crawl), invoking `on_result` on each result as it
    /// completes (on the collecting thread, while the crawl workers keep
    /// going) — the hook downstream pipeline stages attach to.
    pub fn crawl_each(
        self: &Arc<Self>,
        domains: &[String],
        mut on_result: impl FnMut(&CrawlResult),
    ) -> CrawlReport {
        self.cancelled.store(false, Ordering::SeqCst);
        let start = Instant::now();
        // Work items carry their salvage pass number so re-queued
        // domains stop after `salvage_passes` extra rounds.
        let (work_tx, work_rx) = channel::unbounded::<(String, usize)>();
        let (result_tx, result_rx) = channel::unbounded::<(CrawlResult, usize)>();
        for d in domains {
            work_tx.send((d.clone(), 0)).expect("queue open");
        }

        let workers: Vec<_> = (0..self.cfg.workers.max(1))
            .map(|_| {
                let rx = work_rx.clone();
                let tx = result_tx.clone();
                let me = Arc::clone(self);
                std::thread::spawn(move || {
                    for (domain, pass) in rx.iter() {
                        if me.is_cancelled() {
                            break;
                        }
                        let result = me.crawl_one(&domain);
                        if tx.send((result, pass)).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(result_tx);
        drop(work_rx);

        // Collector: finalize results, re-queue salvage candidates. The
        // work sender is dropped once nothing is outstanding (or on
        // cancel), which lets the workers drain and exit.
        let mut work_tx = Some(work_tx);
        let mut outstanding = domains.len();
        // Nothing queued (empty input, or a resumed crawl that is
        // already complete): no result will ever arrive, so drop the
        // sender now or the workers and this collector deadlock.
        if outstanding == 0 {
            work_tx = None;
        }
        let mut partial: HashMap<String, CrawlResult> = HashMap::new();
        let mut results: Vec<CrawlResult> = Vec::with_capacity(domains.len());
        for (result, pass) in result_rx.iter() {
            let merged = match partial.remove(&result.domain) {
                Some(earlier) => earlier.merge(result),
                None => result,
            };
            let salvageable =
                merged.status.retryable() && pass < self.cfg.salvage_passes && !self.is_cancelled();
            if salvageable {
                if let Some(tx) = &work_tx {
                    if tx.send((merged.domain.clone(), pass + 1)).is_ok() {
                        partial.insert(merged.domain.clone(), merged);
                        continue;
                    }
                }
            }
            on_result(&merged);
            results.push(merged);
            outstanding -= 1;
            if outstanding == 0 || self.is_cancelled() {
                work_tx = None;
            }
        }
        drop(work_tx);
        for w in workers {
            let _ = w.join();
        }
        // A cancel can strand re-queued domains; their best-so-far
        // results still count.
        for (_, r) in partial {
            on_result(&r);
            results.push(r);
        }

        let inferred_delays = self
            .pacing
            .lock()
            .iter()
            .map(|(addr, p)| (*addr, p.delay))
            .collect();
        CrawlReport {
            results,
            inferred_delays,
            endpoints: self.endpoints.lock().clone(),
            elapsed: start.elapsed(),
        }
    }

    /// Crash-safe crawl: journal every completed domain to `journal`,
    /// skip domains the journal already has, and return a report over
    /// all of `domains` (journaled + freshly crawled), in input order.
    ///
    /// Killing the process mid-crawl and calling `crawl_resumable` again
    /// with the same journal path yields a final report identical to an
    /// uninterrupted run, with zero re-queries of journaled domains.
    ///
    /// Domains are matched case-insensitively (the journal's semantics)
    /// and duplicates within `domains` are crawled once; every input
    /// occurrence still gets a report entry. If journaling itself fails,
    /// the crawl is cancelled — continuing would burn queries on
    /// results the journal can no longer record — and the error is
    /// returned.
    pub fn crawl_resumable(
        self: &Arc<Self>,
        domains: &[String],
        journal: &mut CrawlJournal,
    ) -> std::io::Result<CrawlReport> {
        let mut queued = HashSet::new();
        let remaining: Vec<String> = domains
            .iter()
            .filter(|d| !journal.contains(d) && queued.insert(d.to_lowercase()))
            .cloned()
            .collect();
        let mut append_err = None;
        let mut report = self.crawl_each(&remaining, |r| {
            if append_err.is_none() {
                if let Err(e) = journal.append(r) {
                    append_err = Some(e);
                    self.cancel();
                }
            }
        });
        if let Some(e) = append_err {
            return Err(e);
        }
        let by_domain: HashMap<String, &CrawlResult> = journal
            .results()
            .iter()
            .map(|r| (r.domain.to_lowercase(), r))
            .collect();
        report.results = domains
            .iter()
            .filter_map(|d| by_domain.get(&d.to_lowercase()).map(|&r| r.clone()))
            .collect();
        Ok(report)
    }

    /// [`crawl`](Self::crawl), sinking each fetched body into a
    /// [`RecordStore`] as it completes: the thick record when the
    /// referral step succeeded, else the thin record. Raw bodies are
    /// generation-free in the store, so everything persisted here
    /// survives model swaps and is parseable by any future model.
    ///
    /// Store write failures are counted, not fatal — a crawl burns
    /// upstream query budget and should not die because one disk append
    /// failed; the report and the sink count let the caller decide.
    /// Returns the report and the number of bodies newly persisted
    /// (identical re-crawls dedup to zero).
    pub fn crawl_into_store(
        self: &Arc<Self>,
        domains: &[String],
        store: &RecordStore,
    ) -> (CrawlReport, u64) {
        let mut sunk = 0u64;
        let report = self.crawl_each(domains, |r| {
            if let Some(body) = r.thick.as_deref().or(r.thin.as_deref()) {
                if matches!(store.put_raw(&r.domain, body), Ok(true)) {
                    sunk += 1;
                }
            }
        });
        (report, sunk)
    }

    /// Crawl one domain: thin, referral, thick.
    fn crawl_one(&self, domain: &str) -> CrawlResult {
        let mut attempts = 0u32;

        // Step 1: thin record from the registry.
        let thin = match self.query_with_retries(self.registry, domain, &mut attempts) {
            QueryOutcome::Record(body) => body,
            QueryOutcome::NoMatch => {
                return CrawlResult {
                    domain: domain.to_string(),
                    thin: None,
                    thick: None,
                    status: CrawlStatus::NoMatch,
                    attempts,
                }
            }
            QueryOutcome::Failed => {
                return CrawlResult {
                    domain: domain.to_string(),
                    thin: None,
                    thick: None,
                    status: CrawlStatus::Failed,
                    attempts,
                }
            }
        };

        // Step 2: resolve the referral.
        let Some(host) = proto::referral_server(&thin) else {
            return CrawlResult {
                domain: domain.to_string(),
                thin: Some(thin),
                thick: None,
                status: CrawlStatus::ThinOnly,
                attempts,
            };
        };
        let Some(&addr) = self.resolver.get(&host) else {
            return CrawlResult {
                domain: domain.to_string(),
                thin: Some(thin),
                thick: None,
                status: CrawlStatus::ThinOnly,
                attempts,
            };
        };

        // Step 3: thick record from the registrar.
        match self.query_with_retries(addr, domain, &mut attempts) {
            QueryOutcome::Record(body) => CrawlResult {
                domain: domain.to_string(),
                thin: Some(thin),
                thick: Some(body),
                status: CrawlStatus::Full,
                attempts,
            },
            _ => CrawlResult {
                domain: domain.to_string(),
                thin: Some(thin),
                thick: None,
                status: CrawlStatus::ThinOnly,
                attempts,
            },
        }
    }

    fn query_with_retries(
        &self,
        server: SocketAddr,
        domain: &str,
        attempts: &mut u32,
    ) -> QueryOutcome {
        for attempt in 0..self.cfg.retries.max(1) {
            self.breaker_admit(server);
            self.reserve_slot(server);
            *attempts += 1;
            let sent = Instant::now();
            let reply = self.cfg.client.query(server, domain);
            let latency = sent.elapsed();
            {
                let mut endpoints = self.endpoints.lock();
                let e = endpoints.entry(server).or_default();
                e.queries += 1;
                e.total_latency += latency;
            }
            match reply {
                Ok(body) => match proto::classify_reply(&body) {
                    ReplyKind::Record => {
                        self.note_success(server);
                        self.breaker_result(server, true);
                        return QueryOutcome::Record(body);
                    }
                    ReplyKind::NoMatch => {
                        self.note_success(server);
                        self.breaker_result(server, true);
                        return QueryOutcome::NoMatch;
                    }
                    ReplyKind::RateLimited => {
                        // An explicit refusal: the server is alive (the
                        // breaker hears success) but we asked too fast
                        // (§4.1 pacing inference backs off).
                        self.note_refusal(server);
                        self.breaker_result(server, true);
                    }
                    ReplyKind::Empty => {
                        // Silence: a pacing signal for §4.1 *and* a
                        // transport failure for the breaker — a dead or
                        // banning server looks exactly like this.
                        self.note_refusal(server);
                        self.breaker_result(server, false);
                    }
                    ReplyKind::Other => {
                        // Garbled reply: not a pacing signal; the server
                        // is alive. Plain retry.
                        self.breaker_result(server, true);
                    }
                },
                Err(_) => {
                    self.note_refusal(server);
                    self.breaker_result(server, false);
                }
            }
            if attempt + 1 < self.cfg.retries {
                std::thread::sleep(self.cfg.retry_pause);
            }
        }
        QueryOutcome::Failed
    }

    /// Wait until the endpoint's breaker admits a request. The wait is
    /// bounded (two cooldowns): past that, the query proceeds anyway —
    /// the breaker shapes pacing toward sick endpoints, while giving up
    /// on a domain remains the retry budget's decision. Keeping
    /// admission wait-based (rather than failing the attempt) is what
    /// keeps per-domain outcomes independent of how *other* domains'
    /// failures interleaved, so seeded fault runs stay reproducible.
    fn breaker_admit(&self, server: SocketAddr) {
        let Some(breakers) = &self.breakers else {
            return;
        };
        let cap = self
            .cfg
            .breaker
            .map(|b| b.cooldown * 2)
            .unwrap_or(Duration::ZERO)
            .max(Duration::from_millis(20));
        let mut waited = Duration::ZERO;
        loop {
            let decision = breakers.lock().try_acquire(&server, Instant::now());
            match decision {
                Ok(()) => return,
                Err(_) if waited >= cap => {
                    return;
                }
                Err(wait) => {
                    self.endpoints
                        .lock()
                        .entry(server)
                        .or_default()
                        .breaker_rejections += 1;
                    let step = wait
                        .min(Duration::from_millis(5))
                        .max(Duration::from_micros(500));
                    std::thread::sleep(step);
                    waited += step;
                }
            }
        }
    }

    /// Feed a query outcome to the endpoint's breaker and accounting.
    fn breaker_result(&self, server: SocketAddr, success: bool) {
        if !success {
            self.endpoints.lock().entry(server).or_default().failures += 1;
        }
        let Some(breakers) = &self.breakers else {
            return;
        };
        let tripped = {
            let mut breakers = breakers.lock();
            if success {
                breakers.record_success(&server);
                false
            } else {
                breakers.record_failure(&server, Instant::now())
            }
        };
        if tripped {
            self.endpoints
                .lock()
                .entry(server)
                .or_default()
                .breaker_trips += 1;
        }
    }

    /// Block until this worker may query `server`, honouring the shared
    /// per-server pacing.
    fn reserve_slot(&self, server: SocketAddr) {
        loop {
            let wait = {
                let mut pacing = self.pacing.lock();
                let p = pacing.entry(server).or_insert_with(|| Pacing {
                    delay: self.cfg.initial_delay,
                    next_allowed: Instant::now(),
                    refusals: 0,
                });
                let now = Instant::now();
                if p.next_allowed <= now {
                    p.next_allowed = now + p.delay;
                    None
                } else {
                    Some(p.next_allowed - now)
                }
            };
            match wait {
                None => return,
                Some(d) => std::thread::sleep(d.min(Duration::from_millis(10))),
            }
        }
    }

    /// A refusal teaches us the server's limit: back off multiplicatively.
    fn note_refusal(&self, server: SocketAddr) {
        let mut pacing = self.pacing.lock();
        if let Some(p) = pacing.get_mut(&server) {
            p.refusals += 1;
            let current = p.delay.max(Duration::from_millis(1));
            let next = current.mul_f64(self.cfg.backoff).min(self.cfg.max_delay);
            p.delay = next;
            // Also push the next slot out so the penalty window can pass.
            p.next_allowed = Instant::now() + self.cfg.retry_pause;
        }
    }

    /// Successes leave pacing alone — "subsequently querying well under
    /// this limit" means we do not creep back up.
    fn note_success(&self, _server: SocketAddr) {}

    /// Refusals observed per server (for reporting).
    pub fn refusals(&self) -> HashMap<SocketAddr, u32> {
        self.pacing
            .lock()
            .iter()
            .map(|(a, p)| (*a, p.refusals))
            .collect()
    }
}

enum QueryOutcome {
    Record(String),
    NoMatch,
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limiter::RateLimitConfig;
    use crate::server::{ServerConfig, WhoisServer};
    use crate::store::InMemoryStore;

    /// Build a mini `com` ecosystem: a thin registry plus one registrar.
    fn ecosystem(
        n: usize,
        registrar_cfg: ServerConfig,
    ) -> (
        WhoisServer,
        WhoisServer,
        Vec<String>,
        HashMap<String, SocketAddr>,
    ) {
        let mut thin = InMemoryStore::new();
        let mut thick = InMemoryStore::new();
        let mut domains = Vec::new();
        for i in 0..n {
            let d = format!("domain{i}.com");
            thin.insert(
                &d,
                format!(
                    "   Domain Name: {}\n   Registrar: TESTREG\n   Whois Server: whois.testreg.example\n",
                    d.to_uppercase()
                ),
            );
            thick.insert(
                &d,
                format!("Domain Name: {d}\nRegistrar: TestReg\nRegistrant Name: Owner {i}\n"),
            );
            domains.push(d);
        }
        let registry = WhoisServer::start(thin, ServerConfig::default()).unwrap();
        let registrar = WhoisServer::start(thick, registrar_cfg).unwrap();
        let mut resolver = HashMap::new();
        resolver.insert("whois.testreg.example".to_string(), registrar.addr());
        (registry, registrar, domains, resolver)
    }

    #[test]
    fn full_crawl_without_limits() {
        let (registry, _registrar, domains, resolver) = ecosystem(20, ServerConfig::default());
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig::default(),
        ));
        let report = crawler.crawl(&domains);
        assert_eq!(report.results.len(), 20);
        assert_eq!(report.count(CrawlStatus::Full), 20);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
        for r in &report.results {
            assert!(r.thick.as_deref().unwrap().contains("Registrant Name"));
        }
        // Endpoint accounting saw both servers, no failures.
        assert_eq!(report.endpoints.len(), 2);
        for stats in report.endpoints.values() {
            assert_eq!(stats.failures, 0);
            assert!(stats.queries >= 20);
            assert!(stats.mean_latency() > Duration::ZERO);
        }
    }

    #[test]
    fn crawler_infers_rate_limit_and_still_covers() {
        // A tight limiter: burst 4, 100 q/s sustained, 30 ms penalty.
        let cfg = ServerConfig {
            rate_limit: RateLimitConfig {
                burst: 4,
                per_second: 100.0,
                penalty: Duration::from_millis(30),
            },
            ..Default::default()
        };
        let (registry, registrar, domains, resolver) = ecosystem(40, cfg);
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                workers: 4,
                ..Default::default()
            },
        ));
        let report = crawler.crawl(&domains);
        assert!(
            report.coverage() > 0.9,
            "coverage {} with rate limiting",
            report.coverage()
        );
        // The crawler must have slowed itself down for the registrar.
        let delay = report.inferred_delays[&registrar.addr()];
        assert!(
            delay >= Duration::from_millis(2),
            "inferred delay {delay:?} should have backed off"
        );
        // And the server did refuse some queries along the way.
        assert!(crawler.refusals()[&registrar.addr()] > 0);
    }

    #[test]
    fn empty_domain_list_returns_an_empty_report() {
        let (registry, _registrar, _domains, resolver) = ecosystem(1, ServerConfig::default());
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig::default(),
        ));
        // Run on a watchdog thread: a regression here deadlocks rather
        // than fails, so give it a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&crawler);
        std::thread::spawn(move || {
            let _ = tx.send(c.crawl(&[]));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("crawl(&[]) must return, not deadlock");
        assert!(report.results.is_empty());
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn mean_latency_survives_huge_query_counts() {
        let stats = EndpointStats {
            queries: u32::MAX as u64 * 2,
            total_latency: Duration::from_secs(u32::MAX as u64 * 2 * 3),
            ..Default::default()
        };
        assert_eq!(stats.mean_latency(), Duration::from_secs(3));
    }

    #[test]
    fn no_match_domains_are_reported() {
        let (registry, _registrar, mut domains, resolver) = ecosystem(5, ServerConfig::default());
        domains.push("expired-since-snapshot.com".to_string());
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig::default(),
        ));
        let report = crawler.crawl(&domains);
        assert_eq!(report.count(CrawlStatus::NoMatch), 1);
        assert_eq!(report.count(CrawlStatus::Full), 5);
    }

    #[test]
    fn unresolvable_referral_leaves_thin_only() {
        let mut thin = InMemoryStore::new();
        thin.insert(
            "orphan.com",
            "   Whois Server: whois.unknown-registrar.example\n   Domain Name: ORPHAN.COM\n".into(),
        );
        let registry = WhoisServer::start(thin, ServerConfig::default()).unwrap();
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            HashMap::new(),
            CrawlerConfig::default(),
        ));
        let report = crawler.crawl(&["orphan.com".to_string()]);
        assert_eq!(report.count(CrawlStatus::ThinOnly), 1);
        assert!(report.results[0].thin.is_some());
    }

    #[test]
    fn dead_registrar_fails_after_retries() {
        let mut thin = InMemoryStore::new();
        thin.insert(
            "deadend.com",
            "   Whois Server: whois.dead.example\n   Domain Name: DEADEND.COM\n".into(),
        );
        let registry = WhoisServer::start(thin, ServerConfig::default()).unwrap();
        let mut resolver = HashMap::new();
        // Points at a port nobody listens on.
        resolver.insert(
            "whois.dead.example".to_string(),
            "127.0.0.1:1".parse().unwrap(),
        );
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                retry_pause: Duration::from_millis(1),
                ..Default::default()
            },
        ));
        let report = crawler.crawl(&["deadend.com".to_string()]);
        assert_eq!(report.count(CrawlStatus::ThinOnly), 1);
        let r = &report.results[0];
        assert!(
            r.attempts >= 4,
            "1 thin + 3 thick attempts, got {}",
            r.attempts
        );
        // The dead endpoint's failures were accounted.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert_eq!(report.endpoints[&dead].failures, 3);
    }

    #[test]
    fn dead_registrar_with_breaker_still_terminates() {
        let mut thin = InMemoryStore::new();
        for i in 0..6 {
            thin.insert(
                &format!("dead{i}.com"),
                format!("   Whois Server: whois.dead.example\n   Domain Name: DEAD{i}.COM\n"),
            );
        }
        let registry = WhoisServer::start(thin, ServerConfig::default()).unwrap();
        let mut resolver = HashMap::new();
        resolver.insert(
            "whois.dead.example".to_string(),
            "127.0.0.1:1".parse().unwrap(),
        );
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                retry_pause: Duration::from_millis(1),
                breaker: Some(BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_millis(20),
                }),
                ..Default::default()
            },
        ));
        let domains: Vec<String> = (0..6).map(|i| format!("dead{i}.com")).collect();
        let report = crawler.crawl(&domains);
        assert_eq!(report.count(CrawlStatus::ThinOnly), 6);
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let stats = &report.endpoints[&dead];
        assert!(stats.breaker_trips >= 1, "breaker never tripped: {stats:?}");
        assert!(
            stats.breaker_rejections >= 1,
            "breaker never pushed back: {stats:?}"
        );
    }

    #[test]
    fn faulty_registrar_costs_retries_but_mostly_succeeds() {
        let cfg = ServerConfig {
            faults: crate::fault::FaultConfig {
                drop_chance: 0.2,
                empty_chance: 0.1,
                ..Default::default()
            },
            fault_seed: 99,
            ..Default::default()
        };
        let (registry, _registrar, domains, resolver) = ecosystem(30, cfg);
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                retry_pause: Duration::from_millis(2),
                ..Default::default()
            },
        ));
        let report = crawler.crawl(&domains);
        assert!(report.coverage() > 0.8, "coverage {}", report.coverage());
        let total_attempts: u32 = report.results.iter().map(|r| r.attempts).sum();
        assert!(
            total_attempts > 60,
            "faults should force retries: {total_attempts} attempts for 30 domains"
        );
    }

    #[test]
    fn salvage_pass_recovers_scripted_failures() {
        use crate::fault::{FateSpec, FaultPlan};
        // domain0 drops every query of the first pass (2 queries × 3
        // retries... thin succeeds, thick drops 3×), then delivers.
        let plan = FaultPlan::new().script(
            "domain0.com",
            std::iter::repeat_n(FateSpec::Drop, 3).collect::<Vec<_>>(),
        );
        let cfg = ServerConfig {
            fault_plan: plan,
            ..Default::default()
        };
        let (registry, _registrar, domains, resolver) = ecosystem(4, cfg);
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                retry_pause: Duration::from_millis(1),
                salvage_passes: 1,
                ..Default::default()
            },
        ));
        let report = crawler.crawl(&domains);
        assert_eq!(
            report.count(CrawlStatus::Full),
            4,
            "salvage pass must recover the scripted failure: {:?}",
            report.results
        );
        let r = report
            .results
            .iter()
            .find(|r| r.domain == "domain0.com")
            .unwrap();
        assert!(
            r.attempts > 4,
            "merged attempts span both passes: {}",
            r.attempts
        );
    }

    #[test]
    fn cancel_stops_at_a_domain_boundary() {
        let (registry, _registrar, domains, resolver) = ecosystem(50, ServerConfig::default());
        let crawler = Arc::new(Crawler::new(
            registry.addr(),
            resolver,
            CrawlerConfig {
                workers: 1,
                ..Default::default()
            },
        ));
        let c2 = Arc::clone(&crawler);
        let mut seen = 0usize;
        let report = crawler.crawl_each(&domains, |_| {
            seen += 1;
            if seen == 10 {
                c2.cancel();
            }
        });
        assert!(
            report.results.len() < 50,
            "cancel must stop early, got {}",
            report.results.len()
        );
        assert!(report.results.len() >= 10);
        for r in &report.results {
            assert_eq!(r.status, CrawlStatus::Full, "completed domains are whole");
        }
        // The next crawl starts fresh.
        let report = crawler.crawl(&domains);
        assert_eq!(report.results.len(), 50);
    }

    #[test]
    fn canonical_summary_is_order_insensitive() {
        let a = CrawlReport {
            results: vec![
                CrawlResult {
                    domain: "b.com".into(),
                    thin: Some("t".into()),
                    thick: None,
                    status: CrawlStatus::ThinOnly,
                    attempts: 2,
                },
                CrawlResult {
                    domain: "a.com".into(),
                    thin: Some("t".into()),
                    thick: Some("T".into()),
                    status: CrawlStatus::Full,
                    attempts: 2,
                },
            ],
            ..Default::default()
        };
        let mut b = a.clone();
        b.results.reverse();
        b.elapsed = Duration::from_secs(5);
        assert_eq!(a.canonical_summary(), b.canonical_summary());
        assert!(a.canonical_summary().contains("a.com Full"));
    }
}
