//! The `whois-serve` line protocol.
//!
//! Requests are single lines (framed by [`whois_net::proto::decode_line`],
//! the helper shared with the WHOIS server), verb first:
//!
//! ```text
//! PARSE {"domain":"example.com","text":"Domain Name: ..."}
//! FETCH example.com
//! STATS
//! HEALTH
//! RETRAIN
//! ```
//!
//! Every reply is one JSON line. Replies to `PARSE`/`FETCH` carry the
//! structured record and the model version that produced it; shed
//! replies carry `"shed":true` so clients can distinguish overload from
//! a parse failure and retry elsewhere / later:
//!
//! ```text
//! {"ok":true,"model":"model-0001","record":{...}}
//! {"ok":false,"error":"overloaded","shed":true}
//! ```
//!
//! Newlines can never appear inside a reply because JSON strings escape
//! them, so line framing is airtight in both directions.

use serde::{Deserialize, Serialize};
use whois_model::ParsedRecord;

use crate::retrain::RetrainSnapshot;
use crate::stats::{HealthSnapshot, StatsSnapshot};

/// Payload of a `PARSE` request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParseRequest {
    /// Domain the record describes (embedded in the parse output).
    pub domain: String,
    /// Verbatim record body.
    pub text: String,
}

/// A decoded request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Parse a record body supplied by the client.
    Parse(ParseRequest),
    /// Fetch the record for a domain from upstream WHOIS, then parse it.
    Fetch(String),
    /// Report serving statistics.
    Stats,
    /// Report liveness (answered inline, never queued — works even when
    /// every parse worker is wedged).
    Health,
    /// Report drift-monitor and retrain-loop state (answered inline,
    /// like `HEALTH`).
    Retrain,
}

impl Request {
    /// Decode one request line. `Err` carries the message for the error
    /// reply.
    pub fn decode(line: &str) -> Result<Request, String> {
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let is = |name: &str| verb.eq_ignore_ascii_case(name);
        if is("PARSE") {
            let req: ParseRequest =
                serde_json::from_str(rest).map_err(|e| format!("bad PARSE payload: {e}"))?;
            if req.domain.trim().is_empty() {
                return Err("bad PARSE payload: empty domain".into());
            }
            Ok(Request::Parse(req))
        } else if is("FETCH") {
            if rest.is_empty() {
                return Err("FETCH requires a domain".into());
            }
            Ok(Request::Fetch(rest.to_string()))
        } else if is("STATS") {
            Ok(Request::Stats)
        } else if is("HEALTH") {
            Ok(Request::Health)
        } else if is("RETRAIN") {
            Ok(Request::Retrain)
        } else {
            Err(format!("unknown verb: {}", verb.to_ascii_uppercase()))
        }
    }

    /// Encode this request as a protocol line (no terminator).
    pub fn encode(&self) -> String {
        match self {
            Request::Parse(req) => format!(
                "PARSE {}",
                serde_json::to_string(req).expect("request serializes")
            ),
            Request::Fetch(domain) => format!("FETCH {domain}"),
            Request::Stats => "STATS".to_string(),
            Request::Health => "HEALTH".to_string(),
            Request::Retrain => "RETRAIN".to_string(),
        }
    }
}

/// A reply line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Reply {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Model version that served a parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model: Option<String>,
    /// The structured parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub record: Option<ParsedRecord>,
    /// `STATS` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<StatsSnapshot>,
    /// `HEALTH` payload.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub health: Option<HealthSnapshot>,
    /// Error message when `ok` is false.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// True when the request was refused by admission control — retry
    /// later; nothing is wrong with the request itself.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub shed: bool,
    /// `RETRAIN` payload (appended after `shed`; older servers never
    /// emit it and older clients ignore it).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub retrain: Option<RetrainSnapshot>,
}

impl Reply {
    /// Successful parse reply (the cached unit).
    pub fn record(model: &str, record: ParsedRecord) -> Reply {
        Reply {
            ok: true,
            model: Some(model.to_string()),
            record: Some(record),
            stats: None,
            health: None,
            error: None,
            shed: false,
            retrain: None,
        }
    }

    /// `STATS` reply.
    pub fn stats(snapshot: StatsSnapshot) -> Reply {
        Reply {
            ok: true,
            model: None,
            record: None,
            stats: Some(snapshot),
            health: None,
            error: None,
            shed: false,
            retrain: None,
        }
    }

    /// `HEALTH` reply.
    pub fn health(snapshot: HealthSnapshot) -> Reply {
        Reply {
            ok: true,
            model: None,
            record: None,
            stats: None,
            health: Some(snapshot),
            error: None,
            shed: false,
            retrain: None,
        }
    }

    /// `RETRAIN` reply.
    pub fn retrain(snapshot: RetrainSnapshot) -> Reply {
        Reply {
            ok: true,
            model: None,
            record: None,
            stats: None,
            health: None,
            error: None,
            shed: false,
            retrain: Some(snapshot),
        }
    }

    /// Error reply; `shed` marks admission-control refusals.
    pub fn error(message: impl Into<String>, shed: bool) -> Reply {
        Reply {
            ok: false,
            model: None,
            record: None,
            stats: None,
            health: None,
            error: Some(message.into()),
            shed,
            retrain: None,
        }
    }

    /// Serialize to the wire line (no terminator).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("reply serializes")
    }

    /// Decode a wire line.
    pub fn decode(line: &str) -> Result<Reply, String> {
        serde_json::from_str(line).map_err(|e| format!("bad reply: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Parse(ParseRequest {
            domain: "example.com".into(),
            text: "Domain Name: EXAMPLE.COM\nRegistrar: X\n".into(),
        });
        match Request::decode(&req.encode()).unwrap() {
            Request::Parse(p) => {
                assert_eq!(p.domain, "example.com");
                assert!(p.text.contains('\n'), "newlines survive JSON escaping");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            Request::decode("FETCH example.com").unwrap(),
            Request::Fetch(d) if d == "example.com"
        ));
        assert!(matches!(Request::decode("stats").unwrap(), Request::Stats));
        assert!(matches!(
            Request::decode("health").unwrap(),
            Request::Health
        ));
        assert!(matches!(
            Request::decode(&Request::Health.encode()).unwrap(),
            Request::Health
        ));
        assert!(matches!(
            Request::decode("retrain").unwrap(),
            Request::Retrain
        ));
        assert!(matches!(
            Request::decode(&Request::Retrain.encode()).unwrap(),
            Request::Retrain
        ));
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        assert!(Request::decode("PARSE not json").is_err());
        assert!(Request::decode("PARSE {\"domain\":\"\",\"text\":\"x\"}").is_err());
        assert!(Request::decode("FETCH").is_err());
        // Verbs match in any case without a copy; the error still
        // names the verb upper-cased.
        assert!(matches!(Request::decode("hEaLtH"), Ok(Request::Health)));
        assert_eq!(
            Request::decode("explode now").unwrap_err(),
            "unknown verb: EXPLODE"
        );
        assert!(Request::decode("PARSÉ {}").is_err());
    }

    #[test]
    fn reply_roundtrip_and_shed_flag() {
        let shed = Reply::error("overloaded", true);
        let line = shed.encode();
        assert!(line.contains("\"shed\":true"), "{line}");
        let back = Reply::decode(&line).unwrap();
        assert!(!back.ok);
        assert!(back.shed);

        let plain = Reply::error("bad request", false).encode();
        assert!(!plain.contains("shed"), "{plain}");
        assert!(!Reply::decode(&plain).unwrap().shed);
    }

    #[test]
    fn health_reply_roundtrip() {
        let snapshot = crate::stats::HealthSnapshot {
            uptime_ms: 5,
            workers: 2,
            workers_alive: 2,
            model_version: "v1".into(),
            ..Default::default()
        };
        let line = Reply::health(snapshot.clone()).encode();
        let back = Reply::decode(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.health, Some(snapshot));
        // Replies without a health payload omit the field entirely.
        assert!(!Reply::error("x", false).encode().contains("health"));
    }

    #[test]
    fn retrain_reply_roundtrip() {
        let snapshot = RetrainSnapshot {
            enabled: true,
            drifting: true,
            queue_len: 4,
            ..RetrainSnapshot::default()
        };
        let line = Reply::retrain(snapshot.clone()).encode();
        let back = Reply::decode(&line).unwrap();
        assert!(back.ok);
        assert_eq!(back.retrain, Some(snapshot));
        // Non-retrain replies omit the field, so older clients that
        // deny unknown fields never see it.
        assert!(!Reply::error("x", false).encode().contains("retrain"));
    }
}
