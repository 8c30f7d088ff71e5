//! The JSON text codec under the wire protocol, tested from where
//! `cargo test --workspace` runs (the vendored `serde` is not a
//! workspace member, so its own unit tests do not).
//!
//! The codec's string reader and writer work a run at a time. The
//! char-at-a-time versions they replaced are kept here as the oracle:
//! same `Value` or same rejection for the reader, same bytes for the
//! writer. The rest pins what the first untrusted byte boundary must
//! hold — bounded nesting, no half-decoded surrogates or infinities,
//! and decode time linear in the line.
//!
//! `serde_json::to_string` streams (`Serialize::write_json`) where it
//! used to build a `Value` tree and print that. The tree writer is the
//! oracle for it: every type this workspace puts on the wire or on disk
//! must stream the bytes its tree prints.

use proptest::prelude::*;
use serde::Serialize;
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whois_model::{BlockLabel, Contact, Label, ParsedRecord, RegistrantLabel};
use whois_parser::{LineCacheStats, ParserConfig, TrainExample, WhoisParser};
use whois_serve::{
    ConnectionGauges, DecodeTierStats, HealthSnapshot, ModelRegistry, ParseRequest, ParseService,
    QuarantineEntry, Reply, Request, RetrainSnapshot, ServeClient, ServeConfig, StageSnapshot,
    StatsSnapshot, StoreTierStats,
};

// ---------------------------------------------------------------------
// The oracle: one char per step, as the codec did before.
// ---------------------------------------------------------------------

fn oracle_write_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Read a JSON text that is exactly one string. The one departure from
/// the old reader: a high surrogate must be followed by a low one,
/// where the old reader masked whatever followed into range.
fn oracle_read_string(text: &str) -> Result<String, &'static str> {
    let mut chars = text.chars();
    if chars.next() != Some('"') {
        return Err("not a string");
    }
    // Four characters through `from_str_radix`, as the codec does. That
    // function takes a sign, so `\u+123` reads as U+0123 on both sides.
    let hex4 = |chars: &mut std::str::Chars<'_>| -> Result<u32, &'static str> {
        let digits: String = chars.take(4).collect();
        if digits.chars().count() != 4 {
            return Err("truncated \\u escape");
        }
        u32::from_str_radix(&digits, 16).map_err(|_| "bad \\u escape")
    };
    let mut out = String::new();
    loop {
        match chars.next().ok_or("unterminated string")? {
            '"' => break,
            '\\' => match chars.next().ok_or("unterminated escape")? {
                'u' => {
                    let cp = hex4(&mut chars)?;
                    let cp = if (0xD800..0xDC00).contains(&cp) {
                        if chars.next() != Some('\\') || chars.next() != Some('u') {
                            return Err("unpaired surrogate");
                        }
                        let low = hex4(&mut chars)?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err("unpaired surrogate");
                        }
                        0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        cp
                    };
                    out.push(char::from_u32(cp).ok_or("bad \\u escape")?);
                }
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                _ => return Err("bad escape"),
            },
            c => out.push(c),
        }
    }
    match chars.next() {
        None => Ok(out),
        Some(_) => Err("trailing characters"),
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Scalars at every UTF-8 length and both ends of each, the bytes the
/// writer escapes, and the ones it must not.
#[rustfmt::skip]
const CHARS: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', ' ',
    '\u{7f}', 'a', 'u', '\u{80}', 'é', '\u{7ff}', '\u{800}', '日', '\u{d7ff}', '\u{e000}',
    '\u{ffff}', '\u{10000}', '😀', '\u{10ffff}',
];

/// Arbitrary Unicode strings, dense in the interesting scalars.
fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..2 * CHARS.len(), 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(i, cp)| match CHARS.get(i) {
                Some(&c) => c,
                None => char::from_u32(cp).unwrap_or('"'),
            })
            .collect()
    })
}

/// Pieces of JSON string *text*: every escape, whole and truncated,
/// paired and unpaired surrogates, raw control bytes, stray quotes.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\u00E9",
    "\\u0000", "\\uffff", "\\ud83d\\ude00", "\\uD83D\\uDE00", "\\udbff\\udfff",
    "\\ud800\\udc00", "\\ud83d", "\\ude00", "\\ud83d\\u0041", "\\ud83d\\ud83d", "\\ud83dx",
    "\\ud83d\\n", "\\u12", "\\u", "\\u+123", "\\u12g4", "\\uD8", "\\", "\\x", "\\é", "\"", "\n",
    "\t", "\u{1}", "é", "日", "😀", "\u{80}", "\u{10ffff}", "a", "u", "/", " ", "dc00", "0041",
];

/// A JSON text that should be one string: fragments between quotes,
/// now and then with the closing quote missing.
fn string_text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0usize..FRAGMENTS.len() + CHARS.len(), 0usize..8), 0..16),
        0usize..12,
    )
        .prop_map(|(picks, close)| {
            let mut text = String::from('"');
            for (i, repeat) in picks {
                match FRAGMENTS.get(i) {
                    Some(f) => text.push_str(f),
                    // A run of one scalar: multibyte runs on both sides
                    // of an escape are what run-copying could get wrong.
                    None => text.extend(std::iter::repeat_n(CHARS[i - FRAGMENTS.len()], repeat)),
                }
            }
            if close > 0 {
                text.push('"');
            }
            text
        })
}

/// Value trees over [`any_string`] keys and strings. Floats are kept
/// off the integers: an integral float prints without a fraction and
/// reads back as `Int` by design.
fn any_value() -> impl Strategy<Value = Value> {
    fn leaf(kind: usize, s: String, n: i64) -> Value {
        match kind {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 0),
            2 => Value::Int(n),
            3 => Value::Float((n % 1_000_000) as f64 / 1024.0 + 0.0001),
            _ => Value::Str(s),
        }
    }
    let leaves = || proptest::collection::vec((0usize..7, any_string(), i64::MIN..i64::MAX), 0..5);
    (leaves(), leaves(), any_string()).prop_map(|(a, b, key)| {
        let inner: Vec<Value> = b.into_iter().map(|(k, s, n)| leaf(k, s, n)).collect();
        let mut fields: Vec<(String, Value)> = a
            .into_iter()
            .map(|(k, s, n)| (s.clone(), leaf(k, s, n)))
            .collect();
        fields.push((key, Value::Array(inner.clone())));
        fields.push((
            "nested".into(),
            Value::Object(vec![("again".into(), Value::Array(inner))]),
        ));
        Value::Object(fields)
    })
}

// ---------------------------------------------------------------------
// Differential properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn writer_emits_the_oracles_bytes(s in any_string()) {
        let text = serde_json::to_string(&Value::Str(s.clone())).unwrap();
        prop_assert_eq!(&text, &oracle_write_string(&s));
        prop_assert_eq!(oracle_read_string(&text), Ok(s.clone()));
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), Value::Str(s));
    }

    #[test]
    fn reader_agrees_with_the_oracle(text in string_text()) {
        let got = serde_json::from_str::<Value>(&text);
        match oracle_read_string(&text) {
            Ok(want) => prop_assert_eq!(got.ok(), Some(Value::Str(want)), "{:?}", text),
            Err(why) => prop_assert!(got.is_err(), "{:?} accepted, oracle says {}", text, why),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn values_round_trip_compact_and_pretty(v in any_value()) {
        let compact = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).unwrap(), &v);
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &v);
    }

    #[test]
    fn requests_round_trip_any_text(domain in any_string(), text in any_string()) {
        let domain = format!("d{domain}");
        let req = Request::Parse(ParseRequest { domain: domain.clone(), text: text.clone() });
        match Request::decode(&req.encode()) {
            Ok(Request::Parse(back)) => {
                prop_assert_eq!(back.domain, domain);
                prop_assert_eq!(back.text, text);
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// Streamed bytes ≡ tree bytes
// ---------------------------------------------------------------------

/// What `serde_json::to_string` printed before it streamed.
fn tree_text<T: Serialize + ?Sized>(x: &T) -> String {
    serde::json::to_text(&x.to_value(), false)
}

/// SplitMix64: the snapshot fields below are drawn from one seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counters of every magnitude, past `i64::MAX` included (the tree
/// holds `as i64`, so those print negative on both sides).
fn count(seed: u64, i: u64) -> u64 {
    mix(seed, i) >> (mix(seed, !i) % 64)
}

/// Floats of every printed shape: fractional, integral (no fraction in
/// the text), signed zero, tiny, huge, and the non-finite ones (`null`).
fn float(seed: u64, i: u64) -> f64 {
    match mix(seed, i) % 10 {
        0 => 0.0,
        1 => -0.0,
        2 => (mix(seed, i + 1) % 1000) as f64,
        3 => 0.1,
        4 => 1e-17,
        5 => -2.5e300,
        6 => f64::NAN,
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        _ => f64::from_bits(mix(seed, i + 2)),
    }
}

fn stage(seed: u64, i: u64) -> StageSnapshot {
    StageSnapshot {
        total_us: count(seed, i),
        count: count(seed, i + 1),
        mean_us: float(seed, i + 2),
    }
}

fn store_tier(seed: u64) -> StoreTierStats {
    StoreTierStats {
        enabled: seed.is_multiple_of(2),
        segments: count(seed, 40),
        live_bytes: count(seed, 41),
        dead_bytes: count(seed, 42),
        spills: count(seed, 43),
        disk_hits: count(seed, 44),
        ..Default::default()
    }
}

fn retrain_snapshot(seed: u64, text: &str) -> RetrainSnapshot {
    RetrainSnapshot {
        enabled: seed.is_multiple_of(3),
        records_seen: count(seed, 50),
        window_mean: float(seed, 51),
        drifting: seed.is_multiple_of(5),
        queue_len: count(seed, 52),
        incumbent_accuracy: float(seed, 53),
        candidate_accuracy: float(seed, 54),
        last_outcome: text.to_string(),
        ..Default::default()
    }
}

fn stats_snapshot(seed: u64, strings: &[String]) -> StatsSnapshot {
    let s = |i: usize| strings[i % strings.len()].clone();
    StatsSnapshot {
        requests: count(seed, 0),
        cache_hits: count(seed, 1),
        cache_hit_rate: float(seed, 2),
        parses: count(seed, 3),
        queue_wait: stage(seed, 4),
        parse: stage(seed, 7),
        serialize: stage(seed, 10),
        model_version: s(0),
        model_generation: count(seed, 13),
        line_cache: LineCacheStats {
            capacity: count(seed, 14),
            misses: count(seed, 15),
            hit_rate: float(seed, 16),
            bypass_active: seed.is_multiple_of(7),
            bypassed_records: count(seed, 17),
            ..Default::default()
        },
        quarantine: (0..seed % 4)
            .map(|i| QuarantineEntry {
                domain: s(1 + i as usize),
                body_hash: format!("{:016x}", mix(seed, 18 + i)),
            })
            .collect(),
        connections: ConnectionGauges {
            open: count(seed, 22),
            idle_closed: count(seed, 23),
            ..Default::default()
        },
        decode: DecodeTierStats {
            tier: s(2),
            fast_decodes: count(seed, 24),
            exact_fallbacks: count(seed, 25),
            fallback_rate: float(seed, 26),
            kernel: s(3),
        },
        store: store_tier(seed),
        retrain: retrain_snapshot(seed, &s(4)),
        ..Default::default()
    }
}

fn health_snapshot(seed: u64, strings: &[String]) -> HealthSnapshot {
    let s = |i: usize| strings[i % strings.len()].clone();
    HealthSnapshot {
        uptime_ms: count(seed, 30),
        workers: count(seed, 31),
        workers_alive: count(seed, 32),
        model_version: s(0),
        draining: seed % 2 == 1,
        decode_tier: s(1),
        store: store_tier(seed),
        kernel: s(2),
        retrain: retrain_snapshot(seed, &s(3)),
        ..Default::default()
    }
}

/// A contact with some fields set, some `None`, and multi-valued ones.
fn contact(seed: u64, strings: &[String]) -> Contact {
    let s = |i: u64| strings[(mix(seed, i) % strings.len() as u64) as usize].clone();
    let some = |i: u64| (!mix(seed, 100 + i).is_multiple_of(3)).then(|| s(i));
    Contact {
        name: some(0),
        org: some(1),
        street: (0..seed % 3).map(|i| s(2 + i)).collect(),
        city: some(5),
        country: some(6),
        email: some(7),
        other: (0..seed % 2).map(|i| s(8 + i)).collect(),
        ..Default::default()
    }
}

/// A record in every shape the wire carries: with and without a
/// registrant, with and without extra contacts, blocks empty or not.
fn parsed_record(seed: u64, strings: &[String]) -> ParsedRecord {
    let s = |i: u64| strings[(mix(seed, i) % strings.len() as u64) as usize].clone();
    let mut record = ParsedRecord::new(s(0));
    record.registrar = (seed.is_multiple_of(2)).then(|| s(1));
    record.created = (seed.is_multiple_of(3)).then(|| s(2));
    record.name_servers = (0..seed % 4).map(|i| s(3 + i)).collect();
    if seed % 5 < 3 {
        record.registrant = Some(contact(mix(seed, 7), strings));
    }
    for i in 0..seed % 3 {
        record
            .contacts
            .insert(s(10 + i), contact(mix(seed, 8 + i), strings));
    }
    for i in 0..seed % 5 {
        record.blocks.insert(
            s(20 + i),
            (0..mix(seed, 30 + i) % 4).map(|j| s(40 + j)).collect(),
        );
    }
    record
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_wire_type_streams_the_bytes_its_tree_prints(
        strings in proptest::collection::vec(any_string(), 1..8),
        seed in 0u64..u64::MAX,
    ) {
        let s = |i: usize| strings[i % strings.len()].clone();
        let replies = [
            Reply::record(&s(0), parsed_record(seed, &strings)),
            Reply::record(&s(1), ParsedRecord::new(s(2))),
            Reply::stats(stats_snapshot(seed, &strings)),
            Reply::health(health_snapshot(seed, &strings)),
            Reply::retrain(retrain_snapshot(seed, &s(3))),
            Reply::error(s(4), false),
            Reply::error(s(5), true),
        ];
        for reply in &replies {
            let line = reply.encode();
            prop_assert_eq!(&line, &tree_text(reply));
            prop_assert!(!line.contains('\n'), "a reply is one line");
        }
        let request = ParseRequest { domain: s(6), text: s(7) };
        prop_assert_eq!(serde_json::to_string(&request).unwrap(), tree_text(&request));
        // The payloads on their own, as `whoisml query` prints them.
        let stats = stats_snapshot(seed, &strings);
        prop_assert_eq!(serde_json::to_string(&stats).unwrap(), tree_text(&stats));
        let health = health_snapshot(seed, &strings);
        prop_assert_eq!(serde_json::to_string(&health).unwrap(), tree_text(&health));
        let retrain = retrain_snapshot(seed, &s(3));
        prop_assert_eq!(serde_json::to_string(&retrain).unwrap(), tree_text(&retrain));
        // Bare strings and the containers around them.
        prop_assert_eq!(serde_json::to_string(&strings).unwrap(), tree_text(&strings));
        prop_assert_eq!(serde_json::to_string(s(0).as_str()).unwrap(), oracle_write_string(&s(0)));
    }
}

/// The model file: a generic `LevelParser<L>` per level, a skipped
/// field, `into = "DictionaryRepr"`, `HashMap`s (printed in key order)
/// and megabytes of floats.
#[test]
fn a_trained_model_streams_the_bytes_its_tree_prints() {
    let parser = train_parser(11, 12);
    let json = parser.to_json().unwrap();
    assert_eq!(json, tree_text(&parser));
    assert_eq!(
        WhoisParser::from_json(&json).unwrap().to_json().unwrap(),
        json
    );
    // Every label enum by name, and a generated record's parse.
    assert_eq!(
        serde_json::to_string(BlockLabel::ALL).unwrap(),
        tree_text(BlockLabel::ALL)
    );
    assert_eq!(
        serde_json::to_string(RegistrantLabel::ALL).unwrap(),
        tree_text(RegistrantLabel::ALL)
    );
    for d in whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(5, 40)) {
        let reply = Reply::record("model-0001", parser.parse(&d.raw()));
        assert_eq!(reply.encode(), tree_text(&reply));
    }
}

// ---------------------------------------------------------------------
// Strictness
// ---------------------------------------------------------------------

fn nested(open: &str, close: &str, depth: usize) -> String {
    open.repeat(depth) + &close.repeat(depth)
}

#[test]
fn nesting_is_capped_at_every_decoder() {
    let limit = 128;
    assert!(serde_json::from_str::<Value>(&nested("[", "]", limit)).is_ok());
    for bad in [
        nested("[", "]", limit + 1),
        nested("{\"k\":", "}", limit + 1),
        // What overflowed the stack: far more opens than any stack holds.
        "[".repeat(1 << 20),
        "[{\"k\":".repeat(1 << 17),
    ] {
        assert!(serde_json::from_str::<Value>(&bad).is_err());
        let err = Request::decode(&format!("PARSE {bad}")).unwrap_err();
        assert!(
            err.starts_with("bad PARSE payload: nesting deeper than 128"),
            "{err}"
        );
        let err = Reply::decode(&bad).unwrap_err();
        assert!(
            err.starts_with("bad reply: nesting deeper than 128"),
            "{err}"
        );
        let err = Reply::decode(&format!("{{\"ok\":true,\"record\":{bad}}}")).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(WhoisParser::from_json(&bad).is_err());
    }
    // Depth counts what is open, not what has been seen.
    let wide = format!("[{}]", vec![nested("[", "]", 100); 500].join(","));
    assert!(serde_json::from_str::<Value>(&wide).is_ok());
}

#[test]
fn unpaired_surrogates_and_infinities_are_rejected() {
    let text = |payload: &str| format!(r#"PARSE {{"domain":"a.com","text":{payload}}}"#);
    assert!(Request::decode(&text(r#""😀""#)).is_ok());
    for bad in [
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ud83dé""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d""#,
        r#""\ude00""#,
    ] {
        assert!(Request::decode(&text(bad)).is_err(), "{bad}");
    }
    for bad in ["1e999", "-1e999", "123456789e400"] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
        let reply = format!(r#"{{"ok":true,"stats":{{"mean_latency_us":{bad}}}}}"#);
        assert!(Reply::decode(&reply).is_err(), "{bad}");
    }
    assert_eq!(
        serde_json::from_str::<Value>("1e308").unwrap(),
        Value::Float(1e308)
    );
}

// ---------------------------------------------------------------------
// Linearity
// ---------------------------------------------------------------------

/// The fastest of a few tries: the budget is for the work, not for
/// whatever else the machine is doing.
fn best_of<R>(tries: usize, mut f: impl FnMut() -> R) -> Duration {
    (0..tries)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .min()
        .expect("at least one try")
}

#[test]
fn a_request_line_at_the_size_limit_decodes_in_linear_time() {
    // The daemon's `max_request_len`: 1 MiB of record text, escapes and
    // multibyte scalars included. Quadratic decode took ~21 s here.
    let mut body = String::new();
    while body.len() < (1 << 20) - 256 {
        let _ = write!(body, "Registrant Name: Zoë \"Z\" №{}\r\n", body.len());
    }
    let line = Request::Parse(ParseRequest {
        domain: "big.com".into(),
        text: body.clone(),
    })
    .encode();
    assert!(line.len() > 1 << 20);
    let took = best_of(3, || match Request::decode(&line).unwrap() {
        Request::Parse(p) => assert_eq!(p.text.len(), body.len()),
        other => panic!("{other:?}"),
    });
    assert!(
        took < Duration::from_millis(50),
        "1 MiB PARSE line took {took:?}"
    );

    // One unbroken run, the other extreme.
    let line = format!(
        r#"PARSE {{"domain":"a.com","text":"{}"}}"#,
        "é".repeat(1 << 19)
    );
    let took = best_of(3, || Request::decode(&line).unwrap());
    assert!(
        took < Duration::from_millis(50),
        "1 MiB single-run line took {took:?}"
    );

    // And the client's side of the same codec.
    let reply = Reply::error(body, false).encode();
    let took = best_of(3, || Reply::decode(&reply).unwrap());
    assert!(
        took < Duration::from_millis(50),
        "1 MiB reply took {took:?}"
    );
}

// ---------------------------------------------------------------------
// Over a real socket
// ---------------------------------------------------------------------

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

#[test]
fn a_megabyte_of_open_brackets_gets_an_error_reply_and_the_daemon_lives() {
    let registry = Arc::new(ModelRegistry::new(train_parser(11, 12), "model-0001", 1));
    let mut service = ParseService::start(registry, ServeConfig::default(), 0).unwrap();
    let mut client = ServeClient::connect(service.addr()).unwrap();

    // Just under `max_request_len`: the line is read whole and handed to
    // the decoder, which used to recurse once per bracket.
    for bomb in ["[".repeat((1 << 20) - 64), "{\"domain\":".repeat(100_000)] {
        let line = client.request_line(&format!("PARSE {bomb}")).unwrap();
        let reply = Reply::decode(&line).unwrap();
        assert!(!reply.ok && !reply.shed);
        let error = reply.error.unwrap();
        assert!(
            error.starts_with("bad PARSE payload: nesting deeper than 128"),
            "{error}"
        );
    }

    // Same connection, then a fresh one: still serving, all workers up.
    let record = "Domain Name: EXAMPLE.COM\nRegistrar: Example Registrar, Inc.\n";
    assert!(client.parse("example.com", record).unwrap().ok);
    let mut fresh = ServeClient::connect(service.addr()).unwrap();
    let health = fresh.health().unwrap();
    assert_eq!(health.workers_alive, health.workers);
    assert!(!health.draining);
    assert!(fresh.stats().unwrap().errors >= 2);
    service.shutdown();
}
