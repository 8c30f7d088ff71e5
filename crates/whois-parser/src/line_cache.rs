//! Cross-record line memoization: the **LineCache**.
//!
//! WHOIS records are machine-generated from a small set of registrar
//! templates (§4 of the paper clusters the whole com/net/org population
//! into a few thousand layouts), so the same boilerplate and title lines
//! recur across millions of records. The per-unique-line potentials of
//! the training engine (`whois-crf::TrainEngine`) exploit this for
//! training; the LineCache brings the same idea to the parse path.
//!
//! For each distinct **(line text, blank-gap flag, previous-line text)**
//! context (hashed by `whois_tokenize::context_hash`, which provably
//! determines the line's feature bag — see DESIGN.md §11) the cache
//! stores a [`CachedLine`]: the interned feature-ID row, the per-label
//! **emission row**, the **edge row** (base transitions + pair-weight
//! blocks, the potentials entering the line's position), and the line's
//! capped `p:` word window (needed to annotate a following uncached
//! line). Emission and edge rows are computed once with exactly the
//! additions, in exactly the order, of `Crf::score_table_into`
//! (`Crf::emission_row_into` / `Crf::edge_row_into`), so a
//! `ScoreTable` assembled by concatenating cached rows is bit-identical
//! to the one the uncached path builds — Viterbi then returns the same
//! path, and the parse output is bit-identical. That equivalence is the
//! cache's contract, enforced by proptests.
//!
//! Structure: a **sharded, capacity-bounded LRU** (the L2, shared by all
//! workers of an engine and, in `whois-serve`, by successive engines
//! across model hot swaps) under per-worker **L1** hash maps that live
//! in each [`ParseScratch`](crate::ParseScratch) — repeat lines within a
//! worker's chunk hit without touching a lock. Keys mix a per-level salt
//! (the two CRF levels have different dictionaries) and the cache
//! **generation**: bumping the generation on model install makes every
//! old entry unreachable instantly, no sweep required, and a `CachedLine`
//! additionally records the generation it was computed under so even a
//! 64-bit key collision across generations cannot serve a stale row.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default L2 capacity (entries across all shards). WHOIS line-context
/// vocabularies are small relative to record volume — the paper's few
/// thousand templates share their boilerplate — so this comfortably
/// holds the working set of a large crawl.
pub const DEFAULT_LINE_CACHE_CAPACITY: usize = 32_768;

/// Default shard count for the L2.
pub const DEFAULT_LINE_CACHE_SHARDS: usize = 8;

/// Per-worker L1 bound: the scratch-local map is cleared when it grows
/// past this many entries (it holds `Arc`s into the L2, so clearing is
/// cheap and re-misses land in the L2).
pub(crate) const L1_MAX_ENTRIES: usize = 16_384;

/// Lookups per adaptive-bypass accounting epoch (see
/// [`LineCache::with_bypass_floor`]).
pub(crate) const BYPASS_EPOCH: u64 = 2048;

/// While bypassed, every Nth record still takes the cached path so the
/// epoch counters keep measuring the would-be hit rate and the cache can
/// re-engage when the workload turns template-heavy again.
pub(crate) const BYPASS_PROBE_INTERVAL: u64 = 16;

/// Default hit-rate floor for the adaptive bypass where it is enabled
/// (the serve daemon and the benches). The uniform-corpus line-cache
/// bench sits near 0.31 observed hit rate — all eviction churn, no
/// payoff — while template-skewed WHOIS traffic runs at 0.95+.
pub const DEFAULT_BYPASS_FLOOR: f64 = 0.35;

/// Key salt for the first (block) level.
pub(crate) const LEVEL1_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Key salt for the second (registrant) level.
pub(crate) const LEVEL2_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Compose the full cache key of a line: its tokenizer context hash
/// mixed with the level salt and the cache generation (FNV-1a over the
/// three words). Mixing the generation in makes every pre-swap entry
/// unreachable the instant a new model installs.
pub fn compose_key(context_hash: u64, salt: u64, generation: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for word in [salt, generation, context_hash] {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Everything memoized for one distinct line context, shared by `Arc`
/// between the L2, the per-worker L1s, and in-flight assemblies.
#[derive(Debug)]
pub struct CachedLine {
    /// Interned feature-ID row (sorted, deduplicated dictionary ids).
    pub(crate) feats: Box<[u32]>,
    /// Emission potentials, length `n` of the owning level.
    pub(crate) emit: Box<[f64]>,
    /// Edge potentials entering this line's position (base transitions
    /// plus pair blocks), length `n²`. Unused when the line is first.
    pub(crate) edge: Box<[f64]>,
    /// The line's capped `w:` window — what a following uncached line's
    /// `p:` features echo.
    pub(crate) window: Box<[Box<str>]>,
    /// Cache generation this entry was computed under.
    pub(crate) generation: u64,
}

impl CachedLine {
    /// The interned feature-ID row.
    pub fn features(&self) -> &[u32] {
        &self.feats
    }

    /// The generation this entry was computed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Point-in-time counters of a [`LineCache`], serialized into the serve
/// daemon's `STATS` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LineCacheStats {
    /// Configured capacity (0 = caching disabled).
    pub capacity: u64,
    /// Entries currently resident in the L2.
    pub entries: u64,
    /// Lookups answered by a per-worker L1 (no lock taken).
    pub l1_hits: u64,
    /// Lookups answered by the shared L2.
    pub l2_hits: u64,
    /// Lookups that computed the line from scratch.
    pub misses: u64,
    /// Entries evicted from the L2 by capacity pressure.
    pub evictions: u64,
    /// L2 hits rejected because the entry's generation did not match
    /// the caller's (possible only via 64-bit key collision across a
    /// model swap; counted to make "never serve stale" observable).
    pub stale_rejects: u64,
    /// `(l1_hits + l2_hits) / lookups`, 0.0 before any lookup.
    pub hit_rate: f64,
    /// Whether the adaptive bypass is currently routing records around
    /// the cache (low observed hit rate; see
    /// [`LineCache::with_bypass_floor`]).
    #[serde(default)]
    pub bypass_active: bool,
    /// Records routed around the cache by the adaptive bypass.
    #[serde(default)]
    pub bypassed_records: u64,
}

/// Intrusive-list slot of one shard's LRU slab.
struct Slot {
    key: u64,
    line: Arc<CachedLine>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// One L2 shard: key → slab index, slab with intrusive LRU links.
struct Shard {
    map: HashMap<u64, usize>,
    slab: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: u64) -> Option<Arc<CachedLine>> {
        let idx = *self.map.get(&key)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(self.slab[idx].line.clone())
    }

    /// Insert, evicting the LRU entry when at `capacity`. Returns the
    /// number of evictions (0 or 1).
    fn insert(&mut self, key: u64, line: Arc<CachedLine>, capacity: usize) -> u64 {
        if let Some(&idx) = self.map.get(&key) {
            // Re-insert under the same key (e.g. two workers raced on
            // the same miss): refresh the value and recency.
            self.slab[idx].line = line;
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return 0;
        }
        let mut evicted = 0;
        if self.map.len() >= capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.slab[lru].key);
            self.free.push(lru);
            evicted = 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Slot {
                    key,
                    line,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.slab.push(Slot {
                    key,
                    line,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

/// The shared L2: a sharded, capacity-bounded, generation-versioned LRU
/// of [`CachedLine`]s. See the module docs for the design.
pub struct LineCache {
    shards: Box<[Mutex<Shard>]>,
    per_shard: usize,
    capacity: usize,
    generation: AtomicU64,
    l1_hits: AtomicU64,
    l2_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_rejects: AtomicU64,
    /// Adaptive bypass: when the observed hit rate over an epoch of
    /// [`BYPASS_EPOCH`] lookups stays under this floor, the engine stops
    /// routing records through the cache (uniform traffic turns the
    /// cache into pure eviction churn). `0.0` disables the bypass — the
    /// conservative default; serve and the benches opt in.
    bypass_floor: f64,
    epoch_lookups: AtomicU64,
    epoch_hits: AtomicU64,
    bypassed: AtomicBool,
    bypassed_records: AtomicU64,
    probe_tick: AtomicU64,
}

impl std::fmt::Debug for LineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("generation", &self.generation())
            .finish()
    }
}

impl LineCache {
    /// Cache with `capacity` total entries across `shards` shards, at
    /// generation 1. `capacity == 0` disables caching entirely
    /// ([`enabled`](Self::enabled) returns false and the engine takes
    /// the plain uncached path). A zero `shards` is treated as 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(usize::from(capacity > 0));
        LineCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard,
            capacity,
            generation: AtomicU64::new(1),
            l1_hits: AtomicU64::new(0),
            l2_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            bypass_floor: 0.0,
            epoch_lookups: AtomicU64::new(0),
            epoch_hits: AtomicU64::new(0),
            bypassed: AtomicBool::new(false),
            bypassed_records: AtomicU64::new(0),
            probe_tick: AtomicU64::new(0),
        }
    }

    /// Enable the adaptive bypass with a hit-rate `floor` in `[0, 1]`
    /// (`0.0` keeps it off). When an epoch of `BYPASS_EPOCH` lookups
    /// closes with `hit_rate < floor`, [`admit_record`](Self::admit_record)
    /// starts steering records around the cache, still admitting every
    /// `BYPASS_PROBE_INTERVAL`th record so the next epochs keep
    /// measuring; a probing epoch that clears the floor re-engages the
    /// cache. Bypassed records parse on an uncached tier with identical
    /// output, so this only trades memoization for churn, never
    /// correctness.
    pub fn with_bypass_floor(mut self, floor: f64) -> Self {
        self.bypass_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Cache with the default capacity and shard count.
    pub fn with_default_capacity() -> Self {
        LineCache::new(DEFAULT_LINE_CACHE_CAPACITY, DEFAULT_LINE_CACHE_SHARDS)
    }

    /// A disabled cache (capacity 0): every parse takes the plain
    /// uncached path — the baseline engine configuration.
    pub fn disabled() -> Self {
        LineCache::new(0, 1)
    }

    /// Whether caching is enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Move to `generation` (monotonic; called by the model registry
    /// right before building the engine for a newly installed model).
    /// Old-generation entries become unreachable — their keys mix the
    /// old generation — and age out of the LRU; no sweep happens.
    pub fn set_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::SeqCst);
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits pick the shard; low bits index the shard's HashMap.
        let idx = (key >> 48) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Look up `key`, expecting an entry computed under `generation`.
    /// Returns `None` (and counts a stale reject) if a colliding entry
    /// from another generation is found. Does **not** bump hit/miss
    /// counters — workers batch those through
    /// [`record_lookups`](Self::record_lookups).
    pub fn get(&self, key: u64, generation: u64) -> Option<Arc<CachedLine>> {
        if !self.enabled() {
            return None;
        }
        let line = self.shard(key).lock().get(key)?;
        if line.generation != generation {
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(line)
    }

    /// Insert a computed line under `key`. No-op when disabled.
    pub fn insert(&self, key: u64, line: Arc<CachedLine>) {
        if !self.enabled() {
            return;
        }
        let evicted = self.shard(key).lock().insert(key, line, self.per_shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Whether the adaptive bypass is currently steering records away.
    pub fn bypass_active(&self) -> bool {
        self.bypassed.load(Ordering::Relaxed)
    }

    /// The configured bypass floor (`0.0` = bypass disabled).
    pub fn bypass_floor(&self) -> f64 {
        self.bypass_floor
    }

    /// Decide whether the next record should go through the cache.
    /// Always true unless the adaptive bypass is engaged; while
    /// bypassed, every `BYPASS_PROBE_INTERVAL`th record still probes
    /// the cached path. Engines call this once per record before
    /// choosing a parse path.
    pub fn admit_record(&self) -> bool {
        if self.bypass_floor == 0.0 || !self.bypassed.load(Ordering::Relaxed) {
            return true;
        }
        let tick = self.probe_tick.fetch_add(1, Ordering::Relaxed);
        if tick.is_multiple_of(BYPASS_PROBE_INTERVAL) {
            true
        } else {
            self.bypassed_records.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Fold one record's lookup outcomes into the shared counters (one
    /// atomic round-trip per counter per record, not per line).
    pub fn record_lookups(&self, l1_hits: u64, l2_hits: u64, misses: u64) {
        if l1_hits > 0 {
            self.l1_hits.fetch_add(l1_hits, Ordering::Relaxed);
        }
        if l2_hits > 0 {
            self.l2_hits.fetch_add(l2_hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed);
        }
        if self.bypass_floor > 0.0 {
            self.account_epoch(l1_hits + l2_hits, l1_hits + l2_hits + misses);
        }
    }

    /// Adaptive-bypass epoch accounting: after every [`BYPASS_EPOCH`]
    /// lookups, compare the epoch's hit rate against the floor and flip
    /// the bypass accordingly. The swap-reset is racy across workers
    /// (a concurrent record's counts may land in either epoch) but every
    /// outcome is a valid sample of recent traffic — the decision only
    /// steers memoization, never correctness.
    fn account_epoch(&self, hits: u64, lookups: u64) {
        self.epoch_hits.fetch_add(hits, Ordering::Relaxed);
        let seen = self.epoch_lookups.fetch_add(lookups, Ordering::Relaxed) + lookups;
        if seen >= BYPASS_EPOCH {
            let total = self.epoch_lookups.swap(0, Ordering::Relaxed);
            let hit = self.epoch_hits.swap(0, Ordering::Relaxed);
            if total > 0 {
                let rate = hit as f64 / total as f64;
                self.bypassed
                    .store(rate < self.bypass_floor, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> LineCacheStats {
        let l1_hits = self.l1_hits.load(Ordering::Relaxed);
        let l2_hits = self.l2_hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let lookups = l1_hits + l2_hits + misses;
        LineCacheStats {
            capacity: self.capacity as u64,
            entries: self.len() as u64,
            l1_hits,
            l2_hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            stale_rejects: self.stale_rejects.load(Ordering::Relaxed),
            hit_rate: if lookups > 0 {
                (l1_hits + l2_hits) as f64 / lookups as f64
            } else {
                0.0
            },
            bypass_active: self.bypass_active(),
            bypassed_records: self.bypassed_records.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(generation: u64, tag: u32) -> Arc<CachedLine> {
        Arc::new(CachedLine {
            feats: vec![tag].into(),
            emit: vec![tag as f64].into(),
            edge: vec![tag as f64].into(),
            window: Vec::new().into(),
            generation,
        })
    }

    #[test]
    fn get_returns_inserted_entries_and_respects_generation() {
        let cache = LineCache::new(8, 2);
        cache.insert(42, entry(1, 7));
        assert_eq!(cache.get(42, 1).unwrap().features(), &[7]);
        // A generation mismatch on the same key is rejected and counted.
        assert!(cache.get(42, 2).is_none());
        assert_eq!(cache.stats().stale_rejects, 1);
        assert!(cache.get(41, 1).is_none());
    }

    #[test]
    fn capacity_bounds_each_shard_and_counts_evictions() {
        let cache = LineCache::new(4, 1);
        for k in 0..10u64 {
            cache.insert(k, entry(1, k as u32));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().evictions, 6);
        // LRU: the most recent four keys survive.
        for k in 6..10u64 {
            assert!(cache.get(k, 1).is_some(), "key {k}");
        }
        assert!(cache.get(0, 1).is_none());
    }

    #[test]
    fn lru_order_follows_recency_of_gets() {
        let cache = LineCache::new(2, 1);
        cache.insert(1, entry(1, 1));
        cache.insert(2, entry(1, 2));
        // Touch 1, then insert 3: 2 is now the LRU and gets evicted.
        assert!(cache.get(1, 1).is_some());
        cache.insert(3, entry(1, 3));
        assert!(cache.get(1, 1).is_some());
        assert!(cache.get(2, 1).is_none());
        assert!(cache.get(3, 1).is_some());
    }

    #[test]
    fn disabled_cache_accepts_nothing() {
        let cache = LineCache::disabled();
        assert!(!cache.enabled());
        cache.insert(1, entry(1, 1));
        assert!(cache.get(1, 1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_one_always_holds_the_latest_entry() {
        let cache = LineCache::new(1, 4);
        for k in 0..20u64 {
            cache.insert(k, entry(1, k as u32));
            assert!(cache.get(k, 1).is_some(), "key {k} right after insert");
        }
        // Total residency never exceeds sharded capacity.
        assert!(cache.len() <= 4, "len = {}", cache.len());
    }

    #[test]
    fn compose_key_separates_levels_and_generations() {
        let ctx = 0xdead_beef_u64;
        let a = compose_key(ctx, LEVEL1_SALT, 1);
        assert_ne!(a, compose_key(ctx, LEVEL2_SALT, 1), "level salt");
        assert_ne!(a, compose_key(ctx, LEVEL1_SALT, 2), "generation");
        assert_eq!(a, compose_key(ctx, LEVEL1_SALT, 1), "deterministic");
    }

    #[test]
    fn generation_is_monotonic() {
        let cache = LineCache::new(8, 1);
        assert_eq!(cache.generation(), 1);
        cache.set_generation(5);
        cache.set_generation(3);
        assert_eq!(cache.generation(), 5);
    }

    #[test]
    fn counters_accumulate_and_hit_rate_is_computed() {
        let cache = LineCache::new(8, 1);
        cache.record_lookups(6, 2, 2);
        let s = cache.stats();
        assert_eq!((s.l1_hits, s.l2_hits, s.misses), (6, 2, 2));
        assert!((s.hit_rate - 0.8).abs() < 1e-12);
        let fresh = LineCache::new(8, 1);
        assert_eq!(fresh.stats().hit_rate, 0.0);
    }

    #[test]
    fn bypass_engages_on_low_hit_rate_and_recovers_on_high() {
        let cache = LineCache::new(8, 1).with_bypass_floor(0.5);
        assert!(cache.admit_record(), "fresh cache admits");
        // An epoch of pure misses: the bypass engages.
        cache.record_lookups(0, 0, BYPASS_EPOCH);
        assert!(cache.bypass_active());
        // While bypassed, only every Nth record probes the cache.
        let admitted = (0..BYPASS_PROBE_INTERVAL)
            .filter(|_| cache.admit_record())
            .count();
        assert_eq!(admitted, 1);
        assert!(cache.stats().bypass_active);
        assert!(cache.stats().bypassed_records > 0);
        // A probing epoch of pure hits: the cache re-engages.
        cache.record_lookups(BYPASS_EPOCH, 0, 0);
        assert!(!cache.bypass_active());
        assert!(cache.admit_record() && cache.admit_record());
    }

    #[test]
    fn zero_floor_never_bypasses() {
        let cache = LineCache::new(8, 1);
        assert_eq!(cache.bypass_floor(), 0.0);
        cache.record_lookups(0, 0, BYPASS_EPOCH * 4);
        assert!(!cache.bypass_active());
        assert!((0..100).all(|_| cache.admit_record()));
        assert_eq!(cache.stats().bypassed_records, 0);
    }

    #[test]
    fn line_cache_stats_json_without_bypass_fields_still_parses() {
        // Forward compatibility: snapshots serialized before the bypass
        // fields existed must still deserialize.
        let old = r#"{"capacity":8,"entries":1,"l1_hits":2,"l2_hits":3,"misses":4,"evictions":0,"stale_rejects":0,"hit_rate":0.5}"#;
        let s: LineCacheStats = serde_json::from_str(old).unwrap();
        assert_eq!(s.misses, 4);
        assert!(!s.bypass_active);
        assert_eq!(s.bypassed_records, 0);
    }

    #[test]
    fn concurrent_inserts_and_gets_stay_bounded() {
        let cache = Arc::new(LineCache::new(64, 4));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let k = w * 1000 + i;
                        cache.insert(k, entry(1, k as u32));
                        let _ = cache.get(k, 1);
                    }
                });
            }
        });
        assert!(cache.len() <= 64, "len = {}", cache.len());
    }
}
