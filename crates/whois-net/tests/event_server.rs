//! Differential tests: the serving core's event driver against its
//! blocking thread-per-connection reference driver.
//!
//! Both drivers run one handler, but the byte path around it (readiness
//! loop, pooled buffers, vectored writes, deadline stalls) is
//! completely different — so these tests drive identical traffic at
//! both and require byte-identical replies, including under scripted
//! fault trajectories and arbitrarily fragmented input.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use whois_net::{FateSpec, FaultPlan, InMemoryStore, ServerConfig, ServingMode, WhoisServer};

fn store() -> InMemoryStore {
    InMemoryStore::from_records([
        (
            "example.com".to_string(),
            "Domain Name: EXAMPLE.COM\nRegistrar: Test Registrar\nStatus: ok\n".to_string(),
        ),
        (
            "registry.net".to_string(),
            "Domain Name: REGISTRY.NET\nWhois Server: whois.registrar.test\n".to_string(),
        ),
        (
            "scripted.com".to_string(),
            "Domain Name: SCRIPTED.COM\nRegistrar: Fault Lab\n".to_string(),
        ),
    ])
}

fn start(mode: ServingMode, plan: FaultPlan) -> WhoisServer {
    let cfg = ServerConfig {
        mode,
        fault_plan: plan,
        read_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    WhoisServer::start(store(), cfg).expect("start server")
}

/// Send `payload` split at the given chunk sizes (remainder goes last),
/// then read the connection to EOF.
fn raw_exchange(addr: SocketAddr, payload: &[u8], splits: &[usize]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sent = 0;
    for &n in splits {
        let end = (sent + n.max(1)).min(payload.len());
        if end > sent {
            stream.write_all(&payload[sent..end]).unwrap();
            sent = end;
            // Give the fragment time to arrive as its own segment.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    if sent < payload.len() {
        stream.write_all(&payload[sent..]).unwrap();
    }
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

#[test]
fn scripted_fault_trajectories_are_byte_identical_across_modes() {
    // One query walks the full fate gamut; the two cores must emit the
    // same bytes at every step (including "no bytes at all").
    let plan = || {
        FaultPlan::new().script(
            "scripted.com",
            [
                FateSpec::Deliver,
                FateSpec::Empty,
                FateSpec::Truncate(12),
                FateSpec::NonUtf8,
                FateSpec::Garble,
                FateSpec::Stall(Duration::from_millis(40)),
                FateSpec::Ban(2),
                // (Ban covers the next request too.)
                FateSpec::Drop,
                FateSpec::Deliver,
            ],
        )
    };
    let event = start(ServingMode::EventLoop, plan());
    let blocking = start(ServingMode::Blocking, plan());

    for step in 0..10 {
        let got_event = raw_exchange(event.addr(), b"scripted.com\r\n", &[]);
        let got_blocking = raw_exchange(blocking.addr(), b"scripted.com\r\n", &[]);
        assert_eq!(
            got_event, got_blocking,
            "step {step}: event-loop and blocking replies diverged"
        );
    }
    assert_eq!(
        event
            .stats()
            .faulted
            .load(std::sync::atomic::Ordering::Relaxed),
        blocking
            .stats()
            .faulted
            .load(std::sync::atomic::Ordering::Relaxed),
        "fault counters diverged"
    );
}

#[test]
fn a_stalled_reply_survives_the_peers_half_close_identically() {
    // `printf 'q\r\n' | nc`: the peer sends its query and closes its
    // sending side. It is still owed the reply — including one a fault
    // stall is holding back — from both drivers.
    let plan = || {
        FaultPlan::new().script(
            "scripted.com",
            [FateSpec::Stall(Duration::from_millis(300))],
        )
    };
    let replies: Vec<Vec<u8>> = [ServingMode::EventLoop, ServingMode::Blocking]
        .into_iter()
        .map(|mode| {
            let server = start(mode, plan());
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(b"scripted.com\r\n").unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).unwrap();
            reply
        })
        .collect();
    assert_eq!(replies[0], replies[1], "drivers diverged on a half-close");
    assert_eq!(
        String::from_utf8_lossy(&replies[0]),
        "Domain Name: SCRIPTED.COM\nRegistrar: Fault Lab\n"
    );
}

#[test]
fn pipelined_second_line_is_ignored_identically() {
    // whois-net is a one-query-per-connection protocol: extra pipelined
    // lines after the first are not answered, in either core.
    let event = start(ServingMode::EventLoop, FaultPlan::new());
    let blocking = start(ServingMode::Blocking, FaultPlan::new());
    let payload = b"example.com\r\nregistry.net\r\n";
    let got_event = raw_exchange(event.addr(), payload, &[]);
    let got_blocking = raw_exchange(blocking.addr(), payload, &[]);
    assert_eq!(got_event, got_blocking);
    assert!(String::from_utf8_lossy(&got_event).contains("EXAMPLE.COM"));
    assert!(!String::from_utf8_lossy(&got_event).contains("REGISTRY.NET"));
}

#[test]
fn byte_at_a_time_query_is_answered_by_the_event_loop() {
    let event = start(ServingMode::EventLoop, FaultPlan::new());
    let payload = b"registry.net\r\n";
    let splits: Vec<usize> = vec![1; payload.len()];
    let got = raw_exchange(event.addr(), payload, &splits);
    assert!(
        String::from_utf8_lossy(&got).contains("REGISTRY.NET"),
        "dribbled query still answered: {got:?}"
    );
}

#[test]
fn many_concurrent_connections_on_one_loop_thread() {
    // A sanity-scale soak: hundreds of simultaneous sockets served by
    // the single event-loop thread (the bench pushes this to thousands).
    let event = start(ServingMode::EventLoop, FaultPlan::new());
    let addr = event.addr();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let got = raw_exchange(addr, b"example.com\r\n", &[]);
                    assert!(String::from_utf8_lossy(&got).contains("EXAMPLE.COM"));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(
        event
            .stats()
            .connections
            .load(std::sync::atomic::Ordering::Relaxed),
        200
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any fragmentation of the query bytes produces the same reply as
    /// whole-line delivery, on both serving cores.
    #[test]
    fn fragmented_queries_decode_identically(
        domain_idx in 0usize..3,
        splits in proptest::collection::vec(1usize..8, 0..4),
    ) {
        let domains = ["example.com", "registry.net", "unknown.org"];
        let payload = format!("{}\r\n", domains[domain_idx]).into_bytes();

        let event = start(ServingMode::EventLoop, FaultPlan::new());
        let blocking = start(ServingMode::Blocking, FaultPlan::new());

        let whole_event = raw_exchange(event.addr(), &payload, &[]);
        let frag_event = raw_exchange(event.addr(), &payload, &splits);
        let whole_blocking = raw_exchange(blocking.addr(), &payload, &[]);
        let frag_blocking = raw_exchange(blocking.addr(), &payload, &splits);

        prop_assert_eq!(&whole_event, &frag_event, "event loop: fragmentation changed the reply");
        prop_assert_eq!(&whole_blocking, &frag_blocking, "blocking: fragmentation changed the reply");
        prop_assert_eq!(&whole_event, &whole_blocking, "modes diverged");
    }
}
