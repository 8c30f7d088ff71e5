//! Serving counters and per-stage latency accounting.
//!
//! Everything is a relaxed atomic: counters are bumped on the hot path
//! by connection threads and parse workers, and [`ServeStats::snapshot`]
//! reads a consistent-enough view for the `STATS` protocol verb without
//! stopping the world.

use crate::retrain::RetrainSnapshot;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use whois_parser::LineCacheStats;

/// Latency sum + count for one pipeline stage.
#[derive(Debug, Default)]
pub struct StageTimer {
    nanos: AtomicU64,
    count: AtomicU64,
}

impl StageTimer {
    /// Fold one measured duration into the stage.
    pub fn record(&self, elapsed: Duration) {
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StageSnapshot {
        let nanos = self.nanos.load(Ordering::Relaxed);
        let count = self.count.load(Ordering::Relaxed);
        StageSnapshot {
            total_us: nanos / 1_000,
            count,
            mean_us: if count > 0 {
                nanos as f64 / count as f64 / 1_000.0
            } else {
                0.0
            },
        }
    }
}

/// Serialized view of one [`StageTimer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Total time spent in the stage, microseconds.
    pub total_us: u64,
    /// Number of measurements.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
}

/// Live counters for a running service.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Protocol requests received (all verbs).
    pub requests: AtomicU64,
    /// `PARSE` requests.
    pub parse_requests: AtomicU64,
    /// `FETCH` requests.
    pub fetch_requests: AtomicU64,
    /// `STATS` requests.
    pub stats_requests: AtomicU64,
    /// Requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to run the parser.
    pub cache_misses: AtomicU64,
    /// Engine parses performed.
    pub parses: AtomicU64,
    /// Requests shed by admission control (queue full or draining).
    pub sheds: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Upstream WHOIS fetches attempted.
    pub fetches: AtomicU64,
    /// Upstream fetches that produced no usable body.
    pub fetch_failures: AtomicU64,
    /// Parses that panicked inside a worker (contained, record
    /// quarantined).
    pub panics: AtomicU64,
    /// Cache evictions (and shutdown drains) written to the disk tier.
    pub store_spills: AtomicU64,
    /// RAM-cache misses answered from the disk tier.
    pub disk_hits: AtomicU64,
    /// RAM-cache misses the disk tier also missed (parse required).
    pub disk_misses: AtomicU64,
    /// Connections currently open (gauge).
    pub conns_open: AtomicU64,
    /// Connections currently reading request bytes (gauge; event loop
    /// only — the blocking core reads and writes on one thread and
    /// reports open connections as reading between requests).
    pub conns_reading: AtomicU64,
    /// Connections with a request queued on the worker pool (gauge).
    pub conns_queued: AtomicU64,
    /// Connections with unflushed reply bytes (gauge).
    pub conns_writing: AtomicU64,
    /// Connections closed by the idle/read deadline (counter).
    pub idle_closed: AtomicU64,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait: StageTimer,
    /// Cache lookup time (hits and misses).
    pub cache_lookup: StageTimer,
    /// Engine parse time (misses only).
    pub parse: StageTimer,
    /// Reply serialization time (misses only).
    pub serialize: StageTimer,
    /// Upstream fetch time (`FETCH` only).
    pub fetch: StageTimer,
}

impl ServeStats {
    /// Bump a counter.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop a gauge (saturating; a gauge must never wrap on a missed
    /// increment).
    pub fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Point-in-time view of the live connection gauges.
    pub fn connection_gauges(&self) -> ConnectionGauges {
        ConnectionGauges {
            open: self.conns_open.load(Ordering::Relaxed),
            reading: self.conns_reading.load(Ordering::Relaxed),
            queued: self.conns_queued.load(Ordering::Relaxed),
            writing: self.conns_writing.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
        }
    }

    /// Point-in-time view for the `STATS` verb. Model/cache fields are
    /// supplied by the service, which owns those components, as are the
    /// watcher's load-failure count and the quarantine ring's contents.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        model_version: &str,
        model_generation: u64,
        model_swaps: u64,
        cache_len: usize,
        workers: usize,
        line_cache: LineCacheStats,
        model_load_failures: u64,
        quarantine: Vec<QuarantineEntry>,
        decode: DecodeTierStats,
        store: StoreTierStats,
        retrain: RetrainSnapshot,
    ) -> StatsSnapshot {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            parse_requests: self.parse_requests.load(Ordering::Relaxed),
            fetch_requests: self.fetch_requests.load(Ordering::Relaxed),
            stats_requests: self.stats_requests.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            parses: self.parses.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            fetch_failures: self.fetch_failures.load(Ordering::Relaxed),
            queue_wait: self.queue_wait.snapshot(),
            cache_lookup: self.cache_lookup.snapshot(),
            parse: self.parse.snapshot(),
            serialize: self.serialize.snapshot(),
            fetch: self.fetch.snapshot(),
            model_version: model_version.to_string(),
            model_generation,
            model_swaps,
            cache_len: cache_len as u64,
            workers: workers as u64,
            line_cache,
            panics: self.panics.load(Ordering::Relaxed),
            model_load_failures,
            quarantine_len: quarantine.len() as u64,
            quarantine,
            connections: self.connection_gauges(),
            decode,
            store,
            retrain,
        }
    }

    /// Fill the serving-side counters of a [`StoreTierStats`] (the
    /// store-side gauges come from [`whois_store::StoreStats`]).
    pub fn store_tier(&self, disk: Option<whois_store::StoreStats>) -> StoreTierStats {
        match disk {
            None => StoreTierStats::default(),
            Some(s) => StoreTierStats {
                enabled: true,
                segments: s.segments,
                live_bytes: s.live_bytes,
                dead_bytes: s.dead_bytes,
                parsed_entries: s.parsed_entries,
                raw_entries: s.raw_entries,
                compactions: s.compactions,
                last_recovery_truncated: s.last_recovery_truncated,
                spills: self.store_spills.load(Ordering::Relaxed),
                disk_hits: self.disk_hits.load(Ordering::Relaxed),
                disk_misses: self.disk_misses.load(Ordering::Relaxed),
            },
        }
    }
}

/// Disk-tier section of `STATS`/`HEALTH`: segment/byte gauges from the
/// store plus the serving-side spill and hit/miss counters. All zeros
/// (and `enabled: false`) when the daemon runs without `--store`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreTierStats {
    /// Whether a disk tier is attached.
    pub enabled: bool,
    /// Segment files in the store.
    pub segments: u64,
    /// Bytes of live (indexed) entries.
    pub live_bytes: u64,
    /// Reclaimable bytes (superseded / generation-fenced entries).
    pub dead_bytes: u64,
    /// Live parsed replies on disk.
    pub parsed_entries: u64,
    /// Live raw records on disk.
    pub raw_entries: u64,
    /// Compaction passes over the store's lifetime.
    pub compactions: u64,
    /// Bytes dropped by torn-tail truncation at the last open.
    pub last_recovery_truncated: u64,
    /// Cache evictions (and shutdown drains) written to disk.
    pub spills: u64,
    /// RAM misses answered from disk.
    pub disk_hits: u64,
    /// RAM misses the disk also missed.
    pub disk_misses: u64,
}

/// Fast-tier decode outcomes for the `STATS` verb: which tier the
/// registry builds engines with, and how often fast decodes stuck
/// versus fell back to the exact engine under the margin guard.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeTierStats {
    /// Configured tier (`"fast"` / `"exact"`).
    pub tier: String,
    /// Level decodes completed on the fast tier.
    pub fast_decodes: u64,
    /// Level decodes re-run on the exact engine (margin under guard).
    pub exact_fallbacks: u64,
    /// `exact_fallbacks / (fast_decodes + exact_fallbacks)`.
    pub fallback_rate: f64,
    /// Active SIMD kernel level (`"scalar"`/`"sse2"`/`"avx2"`; appended
    /// after `fallback_rate`, empty in replies from older servers).
    #[serde(default)]
    pub kernel: String,
}

/// Live connection gauges: how many sockets the serving core holds and
/// what they are doing, plus the idle-deadline casualty count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnectionGauges {
    /// Connections currently open.
    pub open: u64,
    /// Connections accumulating request bytes.
    pub reading: u64,
    /// Connections whose request sits on the worker queue.
    pub queued: u64,
    /// Connections with unflushed reply bytes.
    pub writing: u64,
    /// Connections closed by the idle/read deadline (counter, not a
    /// gauge).
    pub idle_closed: u64,
}

/// One quarantined record: a (domain, body hash) pair whose parse
/// panicked. Subsequent requests for the same pair are refused without
/// re-running the parser.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The domain of the poisoned request.
    pub domain: String,
    /// Hash of the record body as 16 hex digits (same keying as the
    /// result cache at generation 0, so it is model-independent; hex
    /// because JSON integers don't reliably carry full u64 range).
    pub body_hash: String,
}

/// The `HEALTH` verb's payload: liveness, not throughput. Answered
/// inline by the connection thread — it must work even when every parse
/// worker is wedged.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Configured parse workers.
    pub workers: u64,
    /// Workers currently alive (a worker that died to a contained panic
    /// and could not be respawned drops this below `workers`).
    pub workers_alive: u64,
    /// Contained parse panics since start.
    pub panics: u64,
    /// Entries in the quarantine ring.
    pub quarantine_len: u64,
    /// Model-file loads that failed (corrupt/half-written uploads).
    pub model_load_failures: u64,
    /// Active model version.
    pub model_version: String,
    /// Active model generation.
    pub model_generation: u64,
    /// Completed model swaps.
    pub model_swaps: u64,
    /// Whether the service is draining (shutdown in progress).
    pub draining: bool,
    /// Live connection gauges. `#[serde(default)]` keeps replies from
    /// older servers (which omit the field) deserializable.
    #[serde(default)]
    pub connections: ConnectionGauges,
    /// Configured decode tier (`"fast"` / `"exact"`; appended after
    /// `connections`, empty in replies from older servers).
    #[serde(default)]
    pub decode_tier: String,
    /// Disk-tier gauges and counters (appended after `decode_tier`;
    /// older replies omit it and deserialize to the disabled default).
    #[serde(default)]
    pub store: StoreTierStats,
    /// Active SIMD kernel level (appended after `store`; empty in
    /// replies from older servers).
    #[serde(default)]
    pub kernel: String,
    /// Drift-monitor and retrain-loop state (appended after `kernel`;
    /// older replies omit it and deserialize to the disabled default).
    #[serde(default)]
    pub retrain: RetrainSnapshot,
}

/// The `STATS` verb's payload.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Protocol requests received (all verbs).
    pub requests: u64,
    /// `PARSE` requests.
    pub parse_requests: u64,
    /// `FETCH` requests.
    pub fetch_requests: u64,
    /// `STATS` requests.
    pub stats_requests: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Requests that had to run the parser.
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when nothing was looked up.
    pub cache_hit_rate: f64,
    /// Engine parses performed.
    pub parses: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Upstream fetches attempted.
    pub fetches: u64,
    /// Upstream fetches without a usable body.
    pub fetch_failures: u64,
    /// Queue-wait latency.
    pub queue_wait: StageSnapshot,
    /// Cache-lookup latency.
    pub cache_lookup: StageSnapshot,
    /// Parse latency (misses only).
    pub parse: StageSnapshot,
    /// Serialization latency (misses only).
    pub serialize: StageSnapshot,
    /// Upstream fetch latency.
    pub fetch: StageSnapshot,
    /// Active model version.
    pub model_version: String,
    /// Active model generation.
    pub model_generation: u64,
    /// Completed model swaps.
    pub model_swaps: u64,
    /// Entries in the result cache.
    pub cache_len: u64,
    /// Parse worker threads.
    pub workers: u64,
    /// Line-memoization cache counters (hits, misses, evictions): the
    /// exact tier's memo, so all zero under the default fast tier.
    /// `#[serde(default)]` keeps old clients' replies parseable.
    #[serde(default)]
    pub line_cache: LineCacheStats,
    /// Contained parse panics. New fields stay `#[serde(default)]` and
    /// serialize *after* `line_cache` so replies from older servers
    /// (which stop at `line_cache` or earlier) still deserialize.
    #[serde(default)]
    pub panics: u64,
    /// Model-file loads that failed (watcher retries them).
    #[serde(default)]
    pub model_load_failures: u64,
    /// Entries in the quarantine ring.
    #[serde(default)]
    pub quarantine_len: u64,
    /// The quarantine ring's contents, oldest first.
    #[serde(default)]
    pub quarantine: Vec<QuarantineEntry>,
    /// Live connection gauges (appended after `quarantine`; older
    /// replies omit it and deserialize to zeros).
    #[serde(default)]
    pub connections: ConnectionGauges,
    /// Fast-tier decode outcomes (appended after `connections`; older
    /// replies omit it and deserialize to the zeroed default).
    #[serde(default)]
    pub decode: DecodeTierStats,
    /// Disk-tier gauges and counters (appended after `decode`; older
    /// replies omit it and deserialize to the disabled default).
    #[serde(default)]
    pub store: StoreTierStats,
    /// Drift-monitor and retrain-loop state (appended after `store`;
    /// older replies omit it and deserialize to the disabled default).
    #[serde(default)]
    pub retrain: RetrainSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_accumulates() {
        let t = StageTimer::default();
        t.record(Duration::from_micros(100));
        t.record(Duration::from_micros(300));
        let s = t.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_us, 400);
        assert!((s.mean_us - 200.0).abs() < 1.0);
    }

    #[test]
    fn snapshot_computes_hit_rate_and_roundtrips_json() {
        let stats = ServeStats::default();
        for _ in 0..9 {
            ServeStats::inc(&stats.cache_hits);
        }
        ServeStats::inc(&stats.cache_misses);
        let line_cache = LineCacheStats {
            capacity: 1024,
            l1_hits: 7,
            l2_hits: 2,
            misses: 1,
            hit_rate: 0.9,
            ..LineCacheStats::default()
        };
        ServeStats::inc(&stats.panics);
        let quarantine = vec![QuarantineEntry {
            domain: "poison.com".into(),
            body_hash: format!("{:016x}", 0xDEAD_BEEFu64),
        }];
        let snap = stats.snapshot(
            "model-0001",
            3,
            2,
            17,
            4,
            line_cache,
            2,
            quarantine,
            DecodeTierStats {
                tier: "fast".into(),
                fast_decodes: 10,
                exact_fallbacks: 1,
                fallback_rate: 1.0 / 11.0,
                kernel: "avx2".into(),
            },
            StoreTierStats {
                enabled: true,
                segments: 2,
                live_bytes: 4096,
                dead_bytes: 128,
                parsed_entries: 9,
                raw_entries: 3,
                compactions: 1,
                last_recovery_truncated: 0,
                spills: 5,
                disk_hits: 4,
                disk_misses: 6,
            },
            RetrainSnapshot {
                enabled: true,
                records_seen: 100,
                low_confidence: 12,
                window_len: 48,
                window_mean: 0.91,
                drifting: false,
                queue_len: 3,
                queue_dropped: 0,
                queue_acked: 9,
                attempts: 2,
                deployed: 1,
                rejected: 1,
                rollbacks: 0,
                labeled: 8,
                label_dropped: 1,
                probation: true,
                incumbent_accuracy: 0.97,
                candidate_accuracy: 0.98,
                last_outcome: "deployed".into(),
            },
        );
        assert!((snap.cache_hit_rate - 0.9).abs() < 1e-9);
        assert_eq!(snap.model_generation, 3);
        assert_eq!(snap.cache_len, 17);
        assert_eq!(snap.line_cache.l1_hits, 7);
        assert_eq!(snap.panics, 1);
        assert_eq!(snap.model_load_failures, 2);
        assert_eq!(snap.quarantine_len, 1);
        assert_eq!(snap.quarantine[0].domain, "poison.com");
        assert!(snap.store.enabled);
        assert_eq!(snap.store.spills, 5);
        assert!(snap.retrain.enabled);
        assert_eq!(snap.retrain.deployed, 1);
        assert_eq!(snap.retrain.last_outcome, "deployed");
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_deserializes_replies_without_line_cache_field() {
        // A reply from a pre-line-cache server omits that field and
        // everything after it; the serde defaults keep the client
        // compatible.
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        // `line_cache` and the robustness fields serialize last; chop
        // them off at the text level.
        let start = json.find(",\"line_cache\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn old_snapshot_without_decode_field_still_deserializes() {
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let start = json.find(",\"decode\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap, "missing decode stats default to zero");
    }

    #[test]
    fn old_snapshot_without_store_section_still_deserializes() {
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let start = json.find(",\"store\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap, "missing store section defaults to disabled");
    }

    #[test]
    fn old_health_without_store_section_still_deserializes() {
        let health = HealthSnapshot::default();
        let json = serde_json::to_string(&health).unwrap();
        let start = json.find(",\"store\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: HealthSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, health, "missing store section defaults to disabled");
    }

    #[test]
    fn store_tier_merges_disk_gauges_with_serve_counters() {
        let stats = ServeStats::default();
        ServeStats::inc(&stats.store_spills);
        ServeStats::inc(&stats.disk_hits);
        ServeStats::inc(&stats.disk_hits);
        ServeStats::inc(&stats.disk_misses);
        assert_eq!(stats.store_tier(None), StoreTierStats::default());
        let tier = stats.store_tier(Some(whois_store::StoreStats {
            segments: 3,
            total_bytes: 9000,
            live_bytes: 8000,
            dead_bytes: 1000,
            parsed_entries: 40,
            raw_entries: 2,
            generation: 7,
            compactions: 2,
            last_recovery_truncated: 13,
        }));
        assert!(tier.enabled);
        assert_eq!(tier.segments, 3);
        assert_eq!(tier.live_bytes, 8000);
        assert_eq!(tier.dead_bytes, 1000);
        assert_eq!(tier.compactions, 2);
        assert_eq!(tier.last_recovery_truncated, 13);
        assert_eq!((tier.spills, tier.disk_hits, tier.disk_misses), (1, 2, 1));
    }

    #[test]
    fn old_decode_stats_without_kernel_still_deserialize() {
        // `kernel` is the last DecodeTierStats field; replies from
        // pre-kernel servers omit it.
        let decode = DecodeTierStats::default();
        let json = serde_json::to_string(&decode).unwrap();
        let start = json.find(",\"kernel\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: DecodeTierStats = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, decode, "missing kernel defaults to empty");
    }

    #[test]
    fn old_health_without_kernel_still_deserializes() {
        let health = HealthSnapshot::default();
        let json = serde_json::to_string(&health).unwrap();
        let start = json.find(",\"kernel\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: HealthSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, health, "missing kernel defaults to empty");
    }

    #[test]
    fn old_snapshot_without_retrain_section_still_deserializes() {
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let start = json.find(",\"retrain\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap, "missing retrain section defaults to disabled");
    }

    #[test]
    fn old_health_without_retrain_section_still_deserializes() {
        let health = HealthSnapshot {
            retrain: RetrainSnapshot::default(),
            ..HealthSnapshot::default()
        };
        let json = serde_json::to_string(&health).unwrap();
        let start = json.find(",\"retrain\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: HealthSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, health, "missing retrain section defaults to disabled");
    }

    #[test]
    fn old_health_without_decode_tier_still_deserializes() {
        let health = HealthSnapshot::default();
        let json = serde_json::to_string(&health).unwrap();
        let start = json.find(",\"decode_tier\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: HealthSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, health, "missing decode tier defaults to empty");
    }

    #[test]
    fn health_snapshot_roundtrips_json() {
        let health = HealthSnapshot {
            uptime_ms: 1234,
            workers: 4,
            workers_alive: 4,
            panics: 1,
            quarantine_len: 1,
            model_load_failures: 0,
            model_version: "model-0001".into(),
            model_generation: 2,
            model_swaps: 1,
            draining: false,
            decode_tier: "fast".into(),
            kernel: "sse2".into(),
            store: StoreTierStats {
                enabled: true,
                segments: 1,
                ..StoreTierStats::default()
            },
            connections: ConnectionGauges {
                open: 3,
                reading: 1,
                queued: 1,
                writing: 1,
                idle_closed: 2,
            },
            retrain: RetrainSnapshot {
                enabled: true,
                drifting: true,
                queue_len: 7,
                ..RetrainSnapshot::default()
            },
        };
        let json = serde_json::to_string(&health).unwrap();
        let back: HealthSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, health);
    }

    #[test]
    fn connection_gauges_saturate_and_surface_in_snapshots() {
        let stats = ServeStats::default();
        ServeStats::dec(&stats.conns_open); // never wraps below zero
        assert_eq!(stats.connection_gauges().open, 0);
        ServeStats::inc(&stats.conns_open);
        ServeStats::inc(&stats.conns_open);
        ServeStats::inc(&stats.conns_reading);
        ServeStats::inc(&stats.conns_writing);
        ServeStats::dec(&stats.conns_open);
        ServeStats::inc(&stats.idle_closed);
        let gauges = stats.connection_gauges();
        assert_eq!(
            (
                gauges.open,
                gauges.reading,
                gauges.writing,
                gauges.idle_closed
            ),
            (1, 1, 1, 1)
        );
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        assert_eq!(snap.connections, ConnectionGauges::default());
    }

    #[test]
    fn old_snapshot_without_connection_gauges_still_deserializes() {
        let snap = ServeStats::default().snapshot(
            "v",
            1,
            0,
            0,
            1,
            LineCacheStats::default(),
            0,
            vec![],
            DecodeTierStats::default(),
            StoreTierStats::default(),
            RetrainSnapshot::default(),
        );
        let json = serde_json::to_string(&snap).unwrap();
        let start = json.find(",\"connections\"").unwrap();
        let stripped = format!("{}}}", &json[..start]);
        let back: StatsSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, snap, "missing gauges default to zero");
    }
}
