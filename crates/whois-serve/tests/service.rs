//! Integration tests for the parse service: caching semantics, byte
//! identity, overload shedding, hot model swaps, graceful drain.

use proptest::prelude::*;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use whois_model::{BlockLabel, RegistrantLabel};
use whois_net::store::RecordStore;
use whois_net::{InMemoryStore, ServerConfig, WhoisClient, WhoisServer};
use whois_parser::{ParserConfig, TrainExample, WhoisParser};
use whois_serve::{
    ModelRegistry, ModelWatcher, ParseService, Reply, ServeClient, ServeConfig, UpstreamConfig,
};

fn train_parser(seed: u64, docs: usize) -> WhoisParser {
    let corpus = whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(seed, docs));
    let first: Vec<TrainExample<BlockLabel>> = corpus
        .iter()
        .map(|d| TrainExample {
            text: d.rendered.text(),
            labels: d.block_labels().labels(),
        })
        .collect();
    let second: Vec<TrainExample<RegistrantLabel>> = corpus
        .iter()
        .filter_map(|d| {
            let reg = d.registrant_labels();
            (!reg.is_empty()).then(|| TrainExample {
                text: reg.texts().join("\n"),
                labels: reg.labels(),
            })
        })
        .collect();
    WhoisParser::train(&first, &second, &ParserConfig::default())
}

fn start_service(workers: usize, queue: usize, upstream: Option<UpstreamConfig>) -> ParseService {
    let registry = Arc::new(ModelRegistry::new(train_parser(11, 40), "model-0001", 1));
    ParseService::start(
        registry,
        ServeConfig {
            workers,
            queue_capacity: queue,
            upstream,
            ..Default::default()
        },
        0,
    )
    .unwrap()
}

#[test]
fn parse_caches_and_replies_byte_identical() {
    let corpus = whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(42, 30));
    let service = start_service(2, 64, None);
    let mut client = ServeClient::connect(service.addr()).unwrap();

    let mut first_lines = Vec::new();
    for d in &corpus {
        let req = whois_serve::Request::Parse(whois_serve::ParseRequest {
            domain: d.facts.domain.clone(),
            text: d.rendered.text(),
        });
        let line = client.request_line(&req.encode()).unwrap();
        let reply = Reply::decode(&line).unwrap();
        assert!(reply.ok, "{line}");
        let record = reply.record.expect("parse reply carries a record");
        assert_eq!(record.domain, d.facts.domain.to_lowercase());
        first_lines.push((req, line));
    }

    // Second pass: every reply must be byte-identical to the first.
    for (req, first) in &first_lines {
        let second = client.request_line(&req.encode()).unwrap();
        assert_eq!(&second, first, "cached reply differs from uncached");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, corpus.len() as u64);
    assert!(stats.cache_hits >= corpus.len() as u64);
    assert_eq!(stats.parses, corpus.len() as u64, "hits must not re-parse");
    assert!(stats.cache_hit_rate >= 0.5, "{}", stats.cache_hit_rate);
    assert_eq!(stats.sheds, 0);
    assert_eq!(service.cache_len(), corpus.len());
}

#[test]
fn transport_noise_hits_the_same_cache_entry() {
    let service = start_service(1, 16, None);
    let mut client = ServeClient::connect(service.addr()).unwrap();
    let body_lf = "Domain Name: EXAMPLE.COM\nRegistrar: Example Reg Inc.\n";
    let body_crlf_padded = "Domain Name: EXAMPLE.COM\r\nRegistrar: Example Reg Inc.   \r\n\r\n";

    client.parse("example.com", body_lf).unwrap();
    client.parse("EXAMPLE.com", body_crlf_padded).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1, "normalized bodies share one entry");
    assert_eq!(stats.cache_hits, 1);
}

/// The default daemon's miss path is the compiled fast tier alone: it
/// never consults or fills the line cache, which is where the daemon's
/// memory used to go (~1 KB per memoized line).
#[test]
fn misses_decode_on_the_fast_tier_and_leave_the_line_cache_empty() {
    let corpus = whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(43, 200));
    let service = start_service(1, 16, None);
    let mut client = ServeClient::connect(service.addr()).unwrap();
    for d in &corpus {
        assert!(
            client
                .parse(&d.facts.domain, &d.rendered.text())
                .unwrap()
                .ok
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.parses, corpus.len() as u64);
    assert_eq!(stats.decode.tier, "fast");
    assert!(stats.decode.fast_decodes > 0, "{:?}", stats.decode);
    let lines = stats.line_cache;
    assert_eq!(lines.entries, 0, "{lines:?}");
    assert_eq!(
        (
            lines.l1_hits,
            lines.l2_hits,
            lines.misses,
            lines.bypassed_records
        ),
        (0, 0, 0, 0),
        "{lines:?}"
    );
}

/// A registry store whose lookups take a while — stands in for a slow
/// upstream WHOIS server so the single worker stays busy.
struct SlowStore {
    inner: InMemoryStore,
    delay: Duration,
    lookups: AtomicU64,
}

impl RecordStore for SlowStore {
    fn lookup(&self, domain: &str) -> Option<String> {
        self.lookups.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner.lookup(domain)
    }
}

fn slow_upstream(delay: Duration, domains: &[String]) -> (WhoisServer, UpstreamConfig) {
    let mut inner = InMemoryStore::new();
    for d in domains {
        inner.insert(
            d,
            format!(
                "Domain Name: {}\nRegistrar: Slowpoke Registrar\n",
                d.to_uppercase()
            ),
        );
    }
    let store = SlowStore {
        inner,
        delay,
        lookups: AtomicU64::new(0),
    };
    let server = WhoisServer::start(store, ServerConfig::default()).unwrap();
    let upstream = UpstreamConfig {
        registry: server.addr(),
        resolver: HashMap::new(),
        client: WhoisClient::default(),
    };
    (server, upstream)
}

#[test]
fn overload_sheds_fast_instead_of_hanging() {
    let domains: Vec<String> = (0..8).map(|i| format!("slow-{i}.com")).collect();
    let (_upstream_server, upstream) = slow_upstream(Duration::from_millis(150), &domains);
    // One worker, two queue slots: at most 3 requests in the system.
    let service = start_service(1, 2, Some(upstream));
    let addr = service.addr();

    let started = Instant::now();
    let handles: Vec<_> = domains
        .iter()
        .cloned()
        .map(|domain| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let line = client
                    .request_line(&format!("FETCH {domain}"))
                    .expect("every client gets a reply, shed or not");
                Reply::decode(&line).unwrap()
            })
        })
        .collect();

    let replies: Vec<Reply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = started.elapsed();

    let ok = replies.iter().filter(|r| r.ok).count();
    let shed = replies.iter().filter(|r| r.shed).count();
    assert_eq!(ok + shed, replies.len(), "every reply is success or shed");
    assert!(ok >= 1, "the admitted requests complete");
    assert!(shed >= 1, "overload must shed, got {ok} ok / {shed} shed");
    // Shed clients were answered immediately; nothing waited for the
    // full serial 8 × 150ms backlog.
    assert!(
        elapsed < Duration::from_millis(8 * 150),
        "clients hung for {elapsed:?}"
    );
    let mut client = ServeClient::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().sheds, shed as u64);
}

#[test]
fn hot_swap_under_load_loses_no_requests() {
    let dir = std::env::temp_dir().join(format!("whois-serve-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let corpus = whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(7, 24));
    // Train the replacement model up front so the swap lands while the
    // load threads are still running.
    let fresh_json = train_parser(23, 40).to_json().unwrap();
    let registry = Arc::new(ModelRegistry::new(train_parser(11, 40), "model-0001", 1));
    let watcher = ModelWatcher::start(registry.clone(), &dir, Duration::from_millis(10));
    let service = ParseService::start(
        registry.clone(),
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let addr = service.addr();

    // Hammer the service from four connections while the swap lands.
    let requests: Vec<(String, String)> = corpus
        .iter()
        .map(|d| (d.facts.domain.clone(), d.rendered.text()))
        .collect();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let requests = requests.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let mut versions = std::collections::BTreeSet::new();
                let deadline = Instant::now() + Duration::from_secs(20);
                let mut round = 0u32;
                // Keep querying until this connection has seen the new
                // model (or the deadline proves the swap never landed).
                while !versions.contains("model-0002") && Instant::now() < deadline {
                    for (domain, text) in &requests {
                        let reply = client
                            .parse(&format!("w{t}-r{round}-{domain}"), text)
                            .expect("no request may fail during a swap");
                        assert!(reply.record.is_some());
                        versions.insert(reply.model.unwrap());
                    }
                    round += 1;
                }
                versions
            })
        })
        .collect();

    // Publish the newly trained model mid-flight: write to a temp name,
    // then rename — the atomic-publish protocol the watcher documents.
    std::thread::sleep(Duration::from_millis(50));
    std::fs::write(dir.join("model-0002.tmp"), fresh_json).unwrap();
    std::fs::rename(dir.join("model-0002.tmp"), dir.join("model-0002.json")).unwrap();

    let mut versions = std::collections::BTreeSet::new();
    for h in handles {
        versions.extend(h.join().unwrap());
    }
    // The swap happened while requests were in flight...
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.current().version != "model-0002" && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(registry.current().version, "model-0002");
    assert_eq!(registry.swaps(), 1);
    // ...and traffic saw both models with zero failures.
    assert!(
        versions.contains("model-0001"),
        "load should have started on the old model: {versions:?}"
    );
    assert!(
        versions.contains("model-0002"),
        "load outlived the swap but never saw the new model: {versions:?}"
    );

    let mut client = ServeClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.sheds, 0);
    assert_eq!(stats.model_version, "model-0002");
    assert_eq!(stats.model_swaps, 1);

    watcher.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_admitted_work() {
    let domains: Vec<String> = (0..4).map(|i| format!("drain-{i}.com")).collect();
    let (mut upstream_server, upstream) = slow_upstream(Duration::from_millis(100), &domains);
    let mut service = start_service(1, 8, Some(upstream));
    let addr = service.addr();

    let handles: Vec<_> = domains
        .iter()
        .cloned()
        .map(|domain| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                client.fetch(&domain).expect("admitted work completes")
            })
        })
        .collect();

    // Let the requests reach the queue, then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    let report = service.shutdown();
    assert!(
        report.drained >= 1,
        "expected a backlog at shutdown, report {report:?}"
    );

    for h in handles {
        let reply = h.join().unwrap();
        assert!(reply.ok && reply.record.is_some());
    }
    // Repeat shutdowns return the original report.
    assert_eq!(service.shutdown(), report);

    // Every upstream WHOIS connection the drain completed was closed
    // cleanly: the whois-net server's own shutdown report shows nothing
    // had to be aborted.
    let upstream_report = upstream_server.shutdown();
    assert_eq!(upstream_report.aborted, 0, "{upstream_report:?}");
}

#[test]
fn health_verb_reports_liveness() {
    let service = start_service(2, 16, None);
    let mut client = ServeClient::connect(service.addr()).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.workers, 2);
    assert_eq!(health.workers_alive, 2);
    assert_eq!(health.panics, 0);
    assert_eq!(health.quarantine_len, 0);
    assert_eq!(health.model_version, "model-0001");
    assert_eq!(health.model_generation, 1);
    assert!(!health.draining);
    // Uptime is monotone across probes.
    std::thread::sleep(Duration::from_millis(5));
    assert!(client.health().unwrap().uptime_ms >= health.uptime_ms);
}

#[test]
fn rigged_panic_is_contained_quarantined_and_service_keeps_answering() {
    let registry = Arc::new(ModelRegistry::new(train_parser(11, 40), "model-0001", 1));
    let service = ParseService::start(
        registry,
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            panic_trigger: Some("poison.com".into()),
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let mut client = ServeClient::connect(service.addr()).unwrap();
    let poison_body = "Domain Name: POISON.COM\nRegistrar: Bad Actor Inc.\n";

    // The poisoned parse fails as a structured error, not a dead socket.
    let err = client.parse("poison.com", poison_body).unwrap_err();
    match err {
        whois_serve::ClientError::Server { message, shed } => {
            assert!(message.contains("panicked"), "{message}");
            assert!(!shed);
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    // The same worker pool keeps answering: 100+ parses after the panic.
    for i in 0..120 {
        let reply = client
            .parse(
                &format!("after-{i}.com"),
                &format!("Domain Name: AFTER-{i}.COM\nRegistrar: Fine Reg\n"),
            )
            .expect("service survives a contained panic");
        assert!(reply.record.is_some());
    }

    // A repeat of the poison record is refused from quarantine, without
    // re-running (and re-panicking) the parse.
    let err = client.parse("poison.com", poison_body).unwrap_err();
    match err {
        whois_serve::ClientError::Server { message, .. } => {
            assert!(message.contains("quarantined"), "{message}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    // HEALTH: all workers alive, one contained panic, one quarantined
    // record.
    let health = client.health().unwrap();
    assert_eq!(health.workers, 2);
    assert_eq!(health.workers_alive, 2, "panic must not kill a worker");
    assert_eq!(health.panics, 1, "quarantine refusals don't re-panic");
    assert_eq!(health.quarantine_len, 1);

    // STATS carries the same story plus the quarantine contents.
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.quarantine_len, 1);
    assert_eq!(stats.quarantine[0].domain, "poison.com");
    assert_eq!(stats.model_load_failures, 0);
    assert!(stats.errors >= 2);
    // The 120 clean parses all made it into the cache/parse counters.
    assert_eq!(stats.parses, 120);
}

#[test]
fn quarantine_ring_is_bounded() {
    let registry = Arc::new(ModelRegistry::new(train_parser(11, 40), "model-0001", 1));
    // Every domain panics; capacity 4 keeps only the newest 4.
    let service = ParseService::start(
        registry,
        ServeConfig {
            workers: 1,
            queue_capacity: 16,
            quarantine_capacity: 4,
            panic_trigger: Some("all-poison.com".into()),
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let mut client = ServeClient::connect(service.addr()).unwrap();
    for i in 0..10 {
        let _ = client.parse("all-poison.com", &format!("Registrar: R{i}\n"));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.panics, 10, "each distinct body panics once");
    assert_eq!(stats.quarantine_len, 4, "ring holds only the newest 4");
    let health = client.health().unwrap();
    assert_eq!(health.workers_alive, 1);
}

/// One shared long-lived service for the property test: starting (and
/// training) one per case would dominate the runtime.
fn shared_service_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let service = start_service(2, 64, None);
        let addr = service.addr();
        std::mem::forget(service); // serve until the test process exits
        addr
    })
}

fn shared_client() -> &'static Mutex<ServeClient> {
    static CLIENT: OnceLock<Mutex<ServeClient>> = OnceLock::new();
    CLIENT.get_or_init(|| Mutex::new(ServeClient::connect(shared_service_addr()).unwrap()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary bodies (arbitrary-ish text, blank lines, trailing
    /// whitespace), the cached reply is byte-identical to the uncached
    /// one that populated it.
    #[test]
    fn cached_replies_are_byte_identical(
        domain in "[a-z]{1,12}\\.(com|net|org)",
        lines in proptest::collection::vec("[ -~]{0,40}", 1..12),
        crlf in 0u8..2,
    ) {
        let sep = if crlf == 1 { "\r\n" } else { "\n" };
        let body = lines.join(sep);
        let request = whois_serve::Request::Parse(whois_serve::ParseRequest {
            domain: domain.clone(),
            text: body,
        });
        let mut client = shared_client().lock().unwrap();
        let first = client.request_line(&request.encode()).unwrap();
        let second = client.request_line(&request.encode()).unwrap();
        prop_assert_eq!(&first, &second);
        let reply = Reply::decode(&first).unwrap();
        prop_assert!(reply.ok);
        prop_assert_eq!(reply.record.unwrap().domain, domain.to_lowercase());
    }
}
