//! A peer that sends its request and closes its sending side
//! (`printf 'FETCH d\n' | nc`, or any bulk client) is still owed the
//! reply, from both drivers — and waiting for the worker must cost the
//! serving thread nothing. The event loop used to be woken by the
//! level-triggered read-side hangup for as long as the job ran: a 300 ms
//! `FETCH` burned 300 ms of CPU on the thread the worker shares a host
//! with.
//!
//! One test in its own binary, so the process CPU clock it reads
//! belongs to this test alone.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use whois_model::{BlockLabel, RegistrantLabel};
use whois_net::store::RecordStore;
use whois_net::{InMemoryStore, ServerConfig, ServingMode, WhoisClient, WhoisServer};
use whois_parser::{ParserConfig, TrainExample, WhoisParser};
use whois_serve::{ModelRegistry, ParseService, Reply, ServeConfig, UpstreamConfig};

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

/// An upstream registry whose lookups take `delay`.
struct SlowStore {
    inner: InMemoryStore,
    delay: Duration,
}

impl RecordStore for SlowStore {
    fn lookup(&self, domain: &str) -> Option<String> {
        std::thread::sleep(self.delay);
        self.inner.lookup(domain)
    }
}

/// User + system CPU this process has used, in milliseconds
/// (`/proc/self/stat` fields 14 and 15, at the kernel's 100 Hz tick).
fn process_cpu_ms() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; count from its end.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10)
}

#[test]
fn a_half_closed_peer_gets_its_queued_reply_and_costs_no_cpu() {
    let mut inner = InMemoryStore::new();
    inner.insert(
        "slow.com",
        "Domain Name: SLOW.COM\nRegistrar: Half Close Reg\n".to_string(),
    );
    let delay = Duration::from_millis(300);
    let upstream = WhoisServer::start(SlowStore { inner, delay }, ServerConfig::default()).unwrap();
    let up_cfg = UpstreamConfig {
        registry: upstream.addr(),
        resolver: HashMap::new(),
        client: WhoisClient::default(),
    };
    let parser = train_parser(11, 40);

    let mut replies = Vec::new();
    for mode in [ServingMode::EventLoop, ServingMode::Blocking] {
        let registry = Arc::new(ModelRegistry::new(parser.clone(), "model-0001", 1));
        let cfg = ServeConfig {
            mode,
            workers: 1,
            upstream: Some(up_cfg.clone()),
            ..Default::default()
        };
        let svc = ParseService::start(registry, cfg, 0).unwrap();
        let mut stream = TcpStream::connect(svc.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let cpu_before = process_cpu_ms();
        stream.write_all(b"FETCH slow.com\n").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let cpu_after = process_cpu_ms();

        let decoded = Reply::decode(reply.trim_end()).expect("one reply line");
        assert!(decoded.ok, "{mode:?}: {reply}");
        if let (Some(before), Some(after)) = (cpu_before, cpu_after) {
            // The fetch sleeps upstream and the parse is a few
            // milliseconds; a spinning loop thread would add the full
            // 300 ms.
            assert!(
                after - before < 50,
                "{mode:?}: {} ms of CPU while one FETCH was queued",
                after - before
            );
        }
        replies.push(reply);
    }
    assert_eq!(replies[0], replies[1], "drivers diverged on a half-close");
}
