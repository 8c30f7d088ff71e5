//! Deterministic fault injection, in the style of the smoltcp examples'
//! `--drop-chance` / `--corrupt-chance` options.
//!
//! Real WHOIS servers misbehave: they hang up without answering, return
//! empty bodies, stall mid-reply, truncate, emit mojibake, or ban a
//! client outright for a while. The crawler must survive all of it (the
//! paper retried every query three times and still lost ~7.5% of
//! domains). [`FaultConfig`] decides, per request, which fate applies.
//!
//! Determinism is keyed, not streamed: each request's fate is a pure
//! function of `(seed, query, per-query request index)`. A multi-worker
//! crawl interleaves requests to a server in a timing-dependent order,
//! so a single shared RNG stream would make fault sequences depend on
//! scheduling; keying by query makes every domain's fault trajectory
//! reproducible regardless of concurrency — the property the
//! fault-sweep tests assert byte-for-byte.
//!
//! For scripted scenarios ("domain 17 stalls twice then succeeds"),
//! [`FaultPlan`] assigns an explicit per-query fate sequence that is
//! consumed before any probabilistic roll.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Duration;
use whois_store::Fnv;

/// Per-request fault probabilities (independent; checked in the order
/// drop, empty, stall, truncate, non-UTF-8, ban, garble).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability of closing the connection without any reply.
    pub drop_chance: f64,
    /// Probability of replying with an empty body.
    pub empty_chance: f64,
    /// Probability of corrupting the reply (one byte garbled per 64).
    pub garble_chance: f64,
    /// Probability of stalling for [`stall`](Self::stall) before
    /// delivering the body (slow-loris; clients with a shorter read
    /// timeout see it as a hang-up).
    pub stall_chance: f64,
    /// How long a stalled reply sleeps before delivering.
    pub stall: Duration,
    /// Probability of truncating the reply to its first
    /// [`truncate_at`](Self::truncate_at) bytes.
    pub truncate_chance: f64,
    /// Truncation point for a truncated reply.
    pub truncate_at: usize,
    /// Probability of corrupting the reply into invalid UTF-8 (0xFF
    /// bytes) while keeping its length.
    pub non_utf8_chance: f64,
    /// Probability of banning the querying domain: this request and the
    /// next [`ban_requests`](Self::ban_requests)−1 for the same query
    /// get an explicit rate-limit error.
    pub ban_chance: f64,
    /// Total requests covered by one triggered ban (min 1).
    pub ban_requests: u32,
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if all probabilities are zero.
    pub fn is_none(&self) -> bool {
        self.drop_chance == 0.0
            && self.empty_chance == 0.0
            && self.garble_chance == 0.0
            && self.stall_chance == 0.0
            && self.truncate_chance == 0.0
            && self.non_utf8_chance == 0.0
            && self.ban_chance == 0.0
    }
}

/// The fate of one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the body unchanged.
    Deliver,
    /// Close without replying.
    Drop,
    /// Reply with an empty body.
    Empty,
    /// Reply with this corrupted body.
    Garbled(Vec<u8>),
    /// Sleep this long, then deliver the body unchanged.
    Stall(Duration),
    /// Reply with this prefix of the body, then close.
    Truncated(Vec<u8>),
    /// Reply with this non-UTF-8 body.
    NonUtf8(Vec<u8>),
    /// Reply with an explicit rate-limit error (the query is banned).
    Banned,
}

/// A scripted fate, before it is applied to a concrete body. Used by
/// [`FaultPlan`] to express reproducible scenarios.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FateSpec {
    /// Deliver unchanged.
    Deliver,
    /// Close without replying.
    Drop,
    /// Empty body.
    Empty,
    /// Garble (seeded by the request key).
    Garble,
    /// Stall for this duration, then deliver.
    Stall(Duration),
    /// Truncate the body to its first `n` bytes.
    Truncate(usize),
    /// Corrupt into invalid UTF-8.
    NonUtf8,
    /// Ban this query for `n` requests total (including this one).
    Ban(u32),
}

/// A per-query fault script: an explicit sequence of fates consumed
/// request by request, after which the query falls back to the
/// probabilistic [`FaultConfig`]. `"domain17.com" stalls twice then
/// succeeds` is `FaultPlan::new().script("domain17.com", [Stall(d),
/// Stall(d)])` with an otherwise fault-free config.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    scripts: HashMap<String, VecDeque<FateSpec>>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or extend) the script for `query` (matched case-insensitively
    /// against incoming queries).
    pub fn script(mut self, query: &str, fates: impl IntoIterator<Item = FateSpec>) -> Self {
        self.scripts
            .entry(query.to_lowercase())
            .or_default()
            .extend(fates);
        self
    }

    /// True when no scripts remain.
    pub fn is_empty(&self) -> bool {
        self.scripts.is_empty()
    }
}

/// FNV-1a over the request key; cheap, stable, and good enough to seed a
/// ChaCha stream per request.
fn request_key(seed: u64, query: &str, index: u64) -> u64 {
    let mut h = Fnv::new();
    h.write(&seed.to_le_bytes());
    h.write(&index.to_le_bytes());
    h.write(query.as_bytes());
    h.finish()
}

/// Keyed deterministic fault roller.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    seed: u64,
    plan: FaultPlan,
    /// Requests seen so far per query (the per-query request index).
    counters: HashMap<String, u64>,
    /// Remaining banned requests per query.
    bans: HashMap<String, u32>,
}

impl FaultInjector {
    /// New injector.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        Self::with_plan(cfg, seed, FaultPlan::new())
    }

    /// New injector with a per-query script consulted before the
    /// probabilistic config.
    pub fn with_plan(cfg: FaultConfig, seed: u64, plan: FaultPlan) -> Self {
        FaultInjector {
            cfg,
            seed,
            plan,
            counters: HashMap::new(),
            bans: HashMap::new(),
        }
    }

    /// Decide the fate of the reply to `query` with body `body`.
    pub fn fate(&mut self, query: &str, body: &[u8]) -> Fate {
        let query = query.to_lowercase();
        let index = {
            let n = self.counters.entry(query.clone()).or_insert(0);
            let index = *n;
            *n += 1;
            index
        };

        // An active ban outranks everything, scripted fates included.
        if let Some(remaining) = self.bans.get_mut(&query) {
            *remaining -= 1;
            if *remaining == 0 {
                self.bans.remove(&query);
            }
            return Fate::Banned;
        }

        if let Some(script) = self.plan.scripts.get_mut(&query) {
            if let Some(spec) = script.pop_front() {
                if script.is_empty() {
                    self.plan.scripts.remove(&query);
                }
                return self.realize(spec, &query, index, body);
            }
        }

        if self.cfg.is_none() {
            return Fate::Deliver;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(request_key(self.seed, &query, index));
        if rng.random_bool(self.cfg.drop_chance.clamp(0.0, 1.0)) {
            return Fate::Drop;
        }
        if rng.random_bool(self.cfg.empty_chance.clamp(0.0, 1.0)) {
            return Fate::Empty;
        }
        if rng.random_bool(self.cfg.stall_chance.clamp(0.0, 1.0)) {
            return Fate::Stall(self.cfg.stall);
        }
        if rng.random_bool(self.cfg.truncate_chance.clamp(0.0, 1.0)) {
            return Fate::Truncated(truncate(body, self.cfg.truncate_at));
        }
        if rng.random_bool(self.cfg.non_utf8_chance.clamp(0.0, 1.0)) {
            return Fate::NonUtf8(non_utf8(body));
        }
        if rng.random_bool(self.cfg.ban_chance.clamp(0.0, 1.0)) {
            self.start_ban(&query, self.cfg.ban_requests);
            return Fate::Banned;
        }
        if rng.random_bool(self.cfg.garble_chance.clamp(0.0, 1.0)) {
            return Fate::Garbled(garble(body, &mut rng));
        }
        Fate::Deliver
    }

    /// Apply one scripted fate.
    fn realize(&mut self, spec: FateSpec, query: &str, index: u64, body: &[u8]) -> Fate {
        match spec {
            FateSpec::Deliver => Fate::Deliver,
            FateSpec::Drop => Fate::Drop,
            FateSpec::Empty => Fate::Empty,
            FateSpec::Garble => {
                let mut rng = ChaCha8Rng::seed_from_u64(request_key(self.seed, query, index));
                Fate::Garbled(garble(body, &mut rng))
            }
            FateSpec::Stall(d) => Fate::Stall(d),
            FateSpec::Truncate(n) => Fate::Truncated(truncate(body, n)),
            FateSpec::NonUtf8 => Fate::NonUtf8(non_utf8(body)),
            FateSpec::Ban(n) => {
                self.start_ban(query, n);
                Fate::Banned
            }
        }
    }

    /// Record a ban covering `total` requests including the current one.
    fn start_ban(&mut self, query: &str, total: u32) {
        let further = total.max(1) - 1;
        if further > 0 {
            self.bans.insert(query.to_string(), further);
        }
    }
}

/// One byte garbled per 64-byte chunk.
fn garble(body: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
    let mut out = body.to_vec();
    for chunk in out.chunks_mut(64) {
        let idx = rng.random_range(0..chunk.len());
        chunk[idx] = rng.random_range(0..=255u8);
    }
    out
}

/// First `n` bytes of the body.
fn truncate(body: &[u8], n: usize) -> Vec<u8> {
    body[..n.min(body.len())].to_vec()
}

/// Same length, but one byte per 32-byte chunk replaced with 0xFF —
/// guaranteed invalid UTF-8 (0xFF never appears in well-formed UTF-8).
fn non_utf8(body: &[u8]) -> Vec<u8> {
    if body.is_empty() {
        return vec![0xFF, 0xFE];
    }
    let mut out = body.to_vec();
    for chunk in out.chunks_mut(32) {
        chunk[chunk.len() / 2] = 0xFF;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_delivers() {
        let mut f = FaultInjector::new(FaultConfig::none(), 1);
        for i in 0..100 {
            assert_eq!(f.fate(&format!("d{i}.com"), b"body"), Fate::Deliver);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut f = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.3,
                ..Default::default()
            },
            7,
        );
        let drops = (0..10_000)
            .filter(|_| f.fate("x.com", b"x") == Fate::Drop)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate}");
    }

    #[test]
    fn garble_changes_bytes_but_not_length() {
        let mut f = FaultInjector::new(
            FaultConfig {
                garble_chance: 1.0,
                ..Default::default()
            },
            11,
        );
        let body = vec![b'a'; 256];
        match f.fate("g.com", &body) {
            Fate::Garbled(out) => {
                assert_eq!(out.len(), body.len());
                assert_ne!(out, body);
            }
            other => panic!("expected garble, got {other:?}"),
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            drop_chance: 0.5,
            empty_chance: 0.2,
            garble_chance: 0.2,
            ..Default::default()
        };
        let run = |seed| {
            let mut f = FaultInjector::new(cfg, seed);
            (0..50)
                .map(|i| format!("{:?}", f.fate(&format!("d{}.com", i % 7), b"abc")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn fate_depends_only_on_query_and_index_not_arrival_order() {
        // The keyed property: interleaving requests from two queries in
        // any order yields the same per-query fate sequence.
        let cfg = FaultConfig {
            drop_chance: 0.5,
            garble_chance: 0.3,
            ..Default::default()
        };
        let sequence = |order: &[&str]| {
            let mut f = FaultInjector::new(cfg, 42);
            let mut per_query: HashMap<String, Vec<String>> = HashMap::new();
            for q in order {
                let fate = format!("{:?}", f.fate(q, b"some body text"));
                per_query.entry(q.to_string()).or_default().push(fate);
            }
            per_query
        };
        let a = sequence(&["a.com", "a.com", "b.com", "a.com", "b.com", "b.com"]);
        let b = sequence(&["b.com", "a.com", "b.com", "b.com", "a.com", "a.com"]);
        assert_eq!(a, b);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut f = FaultInjector::new(
            FaultConfig {
                truncate_chance: 1.0,
                truncate_at: 4,
                ..Default::default()
            },
            5,
        );
        assert_eq!(
            f.fate("t.com", b"0123456789"),
            Fate::Truncated(b"0123".to_vec())
        );
    }

    #[test]
    fn non_utf8_output_is_invalid_utf8_with_same_length() {
        let mut f = FaultInjector::new(
            FaultConfig {
                non_utf8_chance: 1.0,
                ..Default::default()
            },
            5,
        );
        let body = b"Domain Name: EXAMPLE.COM\nRegistrar: Test Registrar Inc\n";
        match f.fate("m.com", body) {
            Fate::NonUtf8(out) => {
                assert_eq!(out.len(), body.len());
                assert!(std::str::from_utf8(&out).is_err());
            }
            other => panic!("expected NonUtf8, got {other:?}"),
        }
    }

    #[test]
    fn ban_covers_n_requests_then_lifts() {
        let mut f = FaultInjector::new(FaultConfig::none(), 0);
        f.plan = FaultPlan::new().script("b.com", [FateSpec::Ban(3)]);
        assert_eq!(f.fate("b.com", b"x"), Fate::Banned);
        assert_eq!(f.fate("b.com", b"x"), Fate::Banned);
        assert_eq!(f.fate("b.com", b"x"), Fate::Banned);
        assert_eq!(f.fate("b.com", b"x"), Fate::Deliver);
        // Other queries are unaffected throughout.
        assert_eq!(f.fate("c.com", b"x"), Fate::Deliver);
    }

    #[test]
    fn plan_scripts_run_before_config_rolls() {
        let plan = FaultPlan::new().script(
            "d17.com",
            [
                FateSpec::Stall(Duration::from_millis(5)),
                FateSpec::Stall(Duration::from_millis(5)),
            ],
        );
        let mut f = FaultInjector::with_plan(FaultConfig::none(), 9, plan);
        assert_eq!(
            f.fate("d17.com", b"x"),
            Fate::Stall(Duration::from_millis(5))
        );
        assert_eq!(
            f.fate("D17.COM", b"x"),
            Fate::Stall(Duration::from_millis(5)),
            "scripts match case-insensitively"
        );
        assert_eq!(f.fate("d17.com", b"x"), Fate::Deliver, "then succeeds");
        assert_eq!(f.fate("other.com", b"x"), Fate::Deliver);
    }
}
