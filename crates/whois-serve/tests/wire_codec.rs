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

use proptest::prelude::*;
use serde_json::Value;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use whois_model::{BlockLabel, RegistrantLabel};
use whois_parser::{ParserConfig, TrainExample, WhoisParser};
use whois_serve::{
    ModelRegistry, ParseRequest, ParseService, Reply, Request, ServeClient, ServeConfig,
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
