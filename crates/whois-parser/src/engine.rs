//! Batch parsing engine: a trained parser plus a pool of per-worker
//! scratches.
//!
//! [`WhoisParser::parse`] allocates its working buffers per call; at
//! crawl scale (the paper parses 102M records) those allocations
//! dominate. [`ParseEngine`] owns the parser together with a pool of
//! [`ParseScratch`]es so that
//!
//! * [`ParseEngine::parse_one`] decodes a record with buffers checked
//!   out of the pool — steady-state parsing performs no per-feature
//!   `String` allocation, and the DP lattices are reused at high-water
//!   capacity; and
//! * [`ParseEngine::parse_batch`] fans a slice of records out over
//!   `crossbeam` scoped threads (the same idiom as the trainer's
//!   parallel objective), one scratch per worker, preserving input
//!   order.
//!
//! Results are identical to calling [`WhoisParser::parse`] in a loop —
//! the engine only changes where buffers live and which thread decodes
//! which record.

use crate::fast::{FastParser, FastScratch, DEFAULT_MARGIN_GUARD};
use crate::line_cache::{CachedLine, LineCache};
use crate::parser::WhoisParser;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use whois_crf::{InferenceScratch, KernelLevel};
use whois_model::{ParsedRecord, RawRecord};
use whois_tokenize::AnnotateScratch;

/// Reusable buffers for one parsing worker: annotation interner,
/// inference lattices, spare sequence rows, and the worker's private
/// line-cache L1.
#[derive(Default, Debug)]
pub struct ParseScratch {
    /// Feature composition buffers and dedup interner.
    pub(crate) annotate: AnnotateScratch,
    /// Score table, α/β/marginal/Viterbi lattices.
    pub(crate) infer: InferenceScratch,
    /// Spent sequence rows, recycled into the next encode.
    pub(crate) rows: Vec<Vec<u32>>,
    /// Per-worker L1 over the shared line cache: repeat lines within
    /// this worker's stream hit without taking any lock. Entries are
    /// keyed by the same composed key as the L2, so they are implicitly
    /// generation- and level-scoped.
    pub(crate) l1: HashMap<u64, Arc<CachedLine>>,
    /// The current record's per-line cache entries, in line order.
    pub(crate) entries: Vec<Arc<CachedLine>>,
    /// Emission-row staging buffer for line-cache misses.
    pub(crate) emit_row: Vec<f64>,
    /// Edge-row staging buffer for line-cache misses.
    pub(crate) edge_row: Vec<f64>,
    /// Indices of the registrant block's lines (reused per record).
    pub(crate) reg_idx: Vec<usize>,
    /// Join buffer for the registrant block text (reused per record).
    pub(crate) block_text: String,
    /// Fast-tier banks and decode scratch (see [`crate::fast`]).
    pub(crate) fast: FastScratch,
}

impl ParseScratch {
    /// New empty scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Throughput report for one [`ParseEngine::parse_batch_with_stats`]
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Records parsed.
    pub records: usize,
    /// Non-empty lines labeled across both levels' first pass.
    pub lines_labeled: usize,
    /// Records in which a non-empty registrant contact was extracted.
    pub registrant_blocks: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Records parsed per second of wall-clock time.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    fn absorb(&mut self, parsed: &ParsedRecord) {
        self.records += 1;
        self.lines_labeled += parsed.blocks.values().map(Vec::len).sum::<usize>();
        if parsed.has_registrant() {
            self.registrant_blocks += 1;
        }
    }

    /// Accumulate another report — e.g. successive chunks of a crawl
    /// pipeline. Counts add; `elapsed` sums; `workers` keeps the max.
    pub fn merge(&mut self, other: &BatchStats) {
        self.records += other.records;
        self.lines_labeled += other.lines_labeled;
        self.registrant_blocks += other.registrant_blocks;
        self.workers = self.workers.max(other.workers);
        self.elapsed += other.elapsed;
    }
}

/// Which engine decodes an engine's records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecodeTier {
    /// The `f64` reference engine: tokenize → dictionary → `ScoreTable`
    /// → Viterbi, memoized per line through the engine's [`LineCache`]
    /// when that is enabled. Always available; always exact.
    #[default]
    Exact,
    /// The compiled fast tier ([`crate::fast`]): pruned/quantized `f32`
    /// SoA weights, fused tokenize-and-score, batched Viterbi over the
    /// record's unique lines. Every record takes it and the line cache
    /// is never consulted. Low-margin records transparently re-decode
    /// on the exact engine, so parse output is byte-identical.
    Fast,
}

impl DecodeTier {
    /// Parse a CLI/config spelling (`"fast"` / `"exact"`).
    pub fn parse(s: &str) -> Option<DecodeTier> {
        match s {
            "fast" => Some(DecodeTier::Fast),
            "exact" => Some(DecodeTier::Exact),
            _ => None,
        }
    }

    /// The CLI/config spelling.
    pub fn name(self) -> &'static str {
        match self {
            DecodeTier::Exact => "exact",
            DecodeTier::Fast => "fast",
        }
    }
}

/// Shared counters of fast-tier decode outcomes. One `Arc` of these can
/// outlive individual engines (the serve registry keeps its counters
/// across model hot swaps).
#[derive(Debug, Default)]
pub struct DecodeCounters {
    fast_decodes: AtomicU64,
    exact_fallbacks: AtomicU64,
}

impl DecodeCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Level decodes completed on the fast tier.
    pub fn fast_decodes(&self) -> u64 {
        self.fast_decodes.load(Ordering::Relaxed)
    }

    /// Level decodes that fell back to the exact engine (decode margin
    /// under the guard threshold).
    pub fn exact_fallbacks(&self) -> u64 {
        self.exact_fallbacks.load(Ordering::Relaxed)
    }

    /// `exact_fallbacks / (fast_decodes + exact_fallbacks)`, 0.0 before
    /// any fast-tier decode.
    pub fn fallback_rate(&self) -> f64 {
        let fast = self.fast_decodes();
        let fallback = self.exact_fallbacks();
        let total = fast + fallback;
        if total > 0 {
            fallback as f64 / total as f64
        } else {
            0.0
        }
    }

    pub(crate) fn record(&self, fell_back: bool) {
        if fell_back {
            self.exact_fallbacks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fast_decodes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A trained [`WhoisParser`] wired for high-throughput batch parsing.
#[derive(Debug)]
pub struct ParseEngine {
    parser: WhoisParser,
    workers: usize,
    pool: Mutex<Vec<ParseScratch>>,
    /// Scratches retained at check-in; starts at `workers` and is only
    /// raised by explicit [`warm`](Self::warm) calls, so concurrent
    /// `parse_one` bursts can't grow the pool without bound.
    pool_cap: AtomicUsize,
    /// Shared L2 line cache (see [`LineCache`]): the exact tier's memo,
    /// consulted only when the engine has no fast tier. A disabled cache
    /// makes every exact parse take the plain uncached path.
    cache: Arc<LineCache>,
    /// The cache generation this engine's entries belong to, captured
    /// at construction (the serve registry bumps the cache's generation
    /// before building the engine for a newly installed model).
    generation: u64,
    /// Requested decode tier.
    tier: DecodeTier,
    /// The compiled fast tier; `None` when the tier is [`DecodeTier::Exact`]
    /// or the model's feature options fall outside the fast tier's
    /// exactness envelope (see [`crate::fast`]).
    fast: Option<FastParser>,
    /// Decode margin under which a fast-tier decode re-runs exactly.
    guard: f32,
    /// Fast-tier outcome counters (shared; survives engine rebuilds).
    counters: Arc<DecodeCounters>,
}

impl ParseEngine {
    /// Wrap a trained parser, using all available parallelism for
    /// batches.
    pub fn new(parser: WhoisParser) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(parser, workers)
    }

    /// Wrap a trained parser with an explicit batch worker count
    /// (`0` means use available parallelism) and a private
    /// default-capacity line cache.
    pub fn with_workers(parser: WhoisParser, workers: usize) -> Self {
        Self::with_line_cache(
            parser,
            workers,
            Arc::new(LineCache::with_default_capacity()),
        )
    }

    /// Wrap a trained parser with an explicit worker count and a shared
    /// [`LineCache`]. The engine memoizes under the cache's *current*
    /// generation; callers swapping models over a shared cache must bump
    /// its generation before constructing the next engine. Pass
    /// [`LineCache::disabled`] for the uncached baseline engine.
    pub fn with_line_cache(parser: WhoisParser, workers: usize, cache: Arc<LineCache>) -> Self {
        Self::with_decode_tier(
            parser,
            workers,
            cache,
            DecodeTier::Exact,
            Arc::new(DecodeCounters::new()),
        )
    }

    /// [`with_line_cache`](Self::with_line_cache) plus an explicit
    /// [`DecodeTier`] and a caller-shared [`DecodeCounters`]. Requesting
    /// [`DecodeTier::Fast`] compiles the model's fast tier at
    /// construction, and every record then decodes on it without
    /// touching `cache`; if the model's feature options are outside the
    /// fast tier's envelope the engine silently stays exact and memoizes
    /// ([`fast_tier_active`](Self::fast_tier_active) reports the
    /// outcome).
    pub fn with_decode_tier(
        parser: WhoisParser,
        workers: usize,
        cache: Arc<LineCache>,
        tier: DecodeTier,
        counters: Arc<DecodeCounters>,
    ) -> Self {
        // Clamp to the host's actual parallelism: oversubscribing a
        // small host with more batch threads than cores only adds
        // scheduling churn (the `batch_parse` bench measured 0.89x at
        // `workers=4` on one core).
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if workers == 0 {
            available
        } else {
            workers.min(available)
        };
        let generation = cache.generation();
        let fast = match tier {
            DecodeTier::Fast => FastParser::compile(&parser),
            DecodeTier::Exact => None,
        };
        ParseEngine {
            parser,
            workers,
            pool: Mutex::new(Vec::new()),
            pool_cap: AtomicUsize::new(workers),
            cache,
            generation,
            tier,
            fast,
            guard: DEFAULT_MARGIN_GUARD,
            counters,
        }
    }

    /// Override the decode-margin guard (testing hook: `f32::INFINITY`
    /// forces every fast-tier decode to fall back).
    pub fn with_margin_guard(mut self, guard: f32) -> Self {
        self.guard = guard;
        self
    }

    /// Recompile the fast tier with an explicit [`KernelLevel`]
    /// (testing/benchmarking hook; levels are bit-exact, so this never
    /// changes parse output, only speed). No-op when the engine has no
    /// fast tier; the exact `f64` path always dispatches on the
    /// process-wide [`KernelLevel::active`].
    pub fn with_kernel_level(mut self, kernel: KernelLevel) -> Self {
        if self.fast.is_some() {
            self.fast = FastParser::compile_with_kernel(&self.parser, kernel);
        }
        self
    }

    /// The SIMD kernel level this engine's decodes dispatch to: the fast
    /// tier's compiled level when one is active, otherwise the
    /// process-wide [`KernelLevel::active`].
    pub fn kernel_level(&self) -> KernelLevel {
        self.fast
            .as_ref()
            .map_or_else(KernelLevel::active, FastParser::kernel_level)
    }

    /// The requested decode tier.
    pub fn decode_tier(&self) -> DecodeTier {
        self.tier
    }

    /// Whether the fast tier actually compiled and serves decodes.
    pub fn fast_tier_active(&self) -> bool {
        self.fast.is_some()
    }

    /// The fast-tier outcome counters.
    pub fn decode_counters(&self) -> &Arc<DecodeCounters> {
        &self.counters
    }

    /// The engine's line cache.
    pub fn line_cache(&self) -> &Arc<LineCache> {
        &self.cache
    }

    /// The cache generation this engine memoizes under.
    pub fn cache_generation(&self) -> u64 {
        self.generation
    }

    /// The wrapped parser.
    pub fn parser(&self) -> &WhoisParser {
        &self.parser
    }

    /// The batch worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Unwrap the engine, recovering the parser.
    pub fn into_parser(self) -> WhoisParser {
        self.parser
    }

    /// Pre-populate the scratch pool with `n` scratches so the first
    /// requests of a long-running service don't pay the cold-start
    /// allocations. Buffers still grow to their high-water marks on
    /// first use; warming just guarantees `n` concurrent callers find a
    /// scratch to check out. Warming above the worker count raises the
    /// pool's retention cap to `n` — the caller is declaring that many
    /// concurrent users.
    pub fn warm(&self, n: usize) {
        self.pool_cap.fetch_max(n, Ordering::Relaxed);
        let mut pool = self.pool.lock();
        while pool.len() < n {
            pool.push(ParseScratch::new());
        }
    }

    /// Scratches currently checked in (pool size).
    pub fn pooled_scratches(&self) -> usize {
        self.pool.lock().len()
    }

    fn checkout(&self) -> ParseScratch {
        self.pool.lock().pop().unwrap_or_default()
    }

    /// Return a scratch to the pool, dropping it instead when the pool
    /// is already at its cap — otherwise a burst of concurrent
    /// `parse_one` callers would leak high-water scratches (and their
    /// grown buffers) for the lifetime of the engine.
    fn checkin(&self, scratch: ParseScratch) {
        let mut pool = self.pool.lock();
        if pool.len() < self.pool_cap.load(Ordering::Relaxed) {
            pool.push(scratch);
        }
    }

    /// The routing order: the compiled fast tier whenever the engine
    /// has one; otherwise the exact engine, memoized through the line
    /// cache unless that is disabled or bypassing.
    fn parse_into(&self, record: &RawRecord, scratch: &mut ParseScratch) -> ParsedRecord {
        if let Some(fast) = &self.fast {
            return self
                .parser
                .parse_fast(record, scratch, fast, self.guard, &self.counters);
        }
        if self.cache.enabled() && self.cache.admit_record() {
            return self
                .parser
                .parse_cached(record, scratch, &self.cache, self.generation);
        }
        self.parser.parse_with(record, scratch)
    }

    /// Parse one record with pooled buffers.
    pub fn parse_one(&self, record: &RawRecord) -> ParsedRecord {
        let mut scratch = self.checkout();
        let parsed = self.parse_into(record, &mut scratch);
        self.checkin(scratch);
        parsed
    }

    /// [`parse_one`](Self::parse_one) that also exports the per-record
    /// confidence the serving drift monitor feeds on: the fast tier's
    /// decode margin when one is active (the same decode `parse_one`
    /// runs), otherwise the mean first-level posterior marginal on the
    /// exact engine, which routes around the line cache (the memoized
    /// path decodes without marginals) — see
    /// [`WhoisParser::parse_fast_confident`]. The parse output matches
    /// [`parse_one`](Self::parse_one) byte for byte.
    pub fn parse_one_confident(&self, record: &RawRecord) -> (ParsedRecord, f64) {
        let mut scratch = self.checkout();
        let out = match &self.fast {
            Some(fast) => self.parser.parse_fast_confident(
                record,
                &mut scratch,
                fast,
                self.guard,
                &self.counters,
            ),
            None => self.parser.parse_with_confidence(record, &mut scratch),
        };
        self.checkin(scratch);
        out
    }

    /// Parse a batch in parallel, preserving input order.
    pub fn parse_batch(&self, records: &[RawRecord]) -> Vec<ParsedRecord> {
        self.parse_batch_with_stats(records).0
    }

    /// Parse a batch in parallel and report throughput statistics.
    pub fn parse_batch_with_stats(&self, records: &[RawRecord]) -> (Vec<ParsedRecord>, BatchStats) {
        let start = Instant::now();
        let workers = self.workers.min(records.len()).max(1);
        let mut stats = BatchStats {
            workers,
            ..BatchStats::default()
        };
        let mut out = Vec::with_capacity(records.len());
        if workers <= 1 {
            let mut scratch = self.checkout();
            for record in records {
                let parsed = self.parse_into(record, &mut scratch);
                stats.absorb(&parsed);
                out.push(parsed);
            }
            self.checkin(scratch);
        } else {
            let chunk_size = records.len().div_ceil(workers);
            let results: Vec<(Vec<ParsedRecord>, BatchStats)> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = records
                    .chunks(chunk_size)
                    .map(|chunk| {
                        scope.spawn(move |_| {
                            let mut scratch = self.checkout();
                            let mut local = BatchStats::default();
                            let parsed: Vec<ParsedRecord> = chunk
                                .iter()
                                .map(|record| {
                                    let p = self.parse_into(record, &mut scratch);
                                    local.absorb(&p);
                                    p
                                })
                                .collect();
                            self.checkin(scratch);
                            (parsed, local)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .expect("parse worker panicked");
            for (parsed, local) in results {
                stats.merge(&local);
                out.extend(parsed);
            }
        }
        stats.elapsed = start.elapsed();
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::TrainExample;
    use crate::level::ParserConfig;
    use whois_gen::corpus::{generate_corpus, GenConfig, GeneratedDomain};
    use whois_model::{BlockLabel, RegistrantLabel};

    fn trained_engine(workers: usize) -> (ParseEngine, Vec<GeneratedDomain>) {
        let corpus = generate_corpus(GenConfig::new(77, 140));
        let (train_set, test_set) = corpus.split_at(100);
        let first: Vec<TrainExample<BlockLabel>> = train_set
            .iter()
            .map(|d| TrainExample {
                text: d.rendered.text(),
                labels: d.block_labels().labels(),
            })
            .collect();
        let second: Vec<TrainExample<RegistrantLabel>> = train_set
            .iter()
            .filter_map(|d| {
                let reg = d.registrant_labels();
                if reg.is_empty() {
                    return None;
                }
                Some(TrainExample {
                    text: reg.texts().join("\n"),
                    labels: reg.labels(),
                })
            })
            .collect();
        let parser = WhoisParser::train(&first, &second, &ParserConfig::default());
        (
            ParseEngine::with_workers(parser, workers),
            test_set.to_vec(),
        )
    }

    #[test]
    fn parse_one_matches_plain_parse() {
        let (engine, test) = trained_engine(2);
        for d in test.iter().take(10) {
            let raw = d.raw();
            assert_eq!(engine.parse_one(&raw), engine.parser().parse(&raw));
            // Twice through the pool: reused buffers must not leak state.
            assert_eq!(engine.parse_one(&raw), engine.parser().parse(&raw));
        }
    }

    #[test]
    fn parse_batch_preserves_order_and_matches_sequential() {
        let (engine, test) = trained_engine(4);
        let records: Vec<_> = test.iter().map(|d| d.raw()).collect();
        let sequential: Vec<_> = records.iter().map(|r| engine.parser().parse(r)).collect();
        for workers in [1, 2, 4] {
            let engine = ParseEngine::with_workers(engine.parser().clone(), workers);
            let (batch, stats) = engine.parse_batch_with_stats(&records);
            assert_eq!(batch, sequential, "workers = {workers}");
            assert_eq!(stats.records, records.len());
            // Requested workers are clamped to the host's cores before
            // the per-batch record clamp.
            assert_eq!(stats.workers, engine.workers().min(records.len()));
            assert!(engine.workers() <= workers);
        }
    }

    #[test]
    fn batch_stats_count_lines_and_registrants() {
        let (engine, test) = trained_engine(3);
        let records: Vec<_> = test.iter().map(|d| d.raw()).collect();
        let (batch, stats) = engine.parse_batch_with_stats(&records);
        let want_lines: usize = records.iter().map(|r| r.lines().len()).sum();
        let want_reg = batch.iter().filter(|p| p.has_registrant()).count();
        assert_eq!(stats.lines_labeled, want_lines);
        assert_eq!(stats.registrant_blocks, want_reg);
        assert!(stats.records_per_sec() > 0.0);
        assert!(stats.elapsed > Duration::ZERO);
    }

    #[test]
    fn warm_populates_pool_and_parsing_reuses_it() {
        let (engine, test) = trained_engine(2);
        engine.warm(3);
        assert_eq!(engine.pooled_scratches(), 3);
        let raw = test[0].raw();
        let _ = engine.parse_one(&raw);
        // Checked out and back in: pool size unchanged.
        assert_eq!(engine.pooled_scratches(), 3);
        // Warming never shrinks the pool.
        engine.warm(1);
        assert_eq!(engine.pooled_scratches(), 3);
    }

    #[test]
    fn checkin_never_grows_pool_past_worker_count() {
        let (engine, test) = trained_engine(2);
        let records: Vec<_> = test.iter().map(|d| d.raw()).collect();
        // 8 concurrent parse_one callers on a 2-worker engine: each
        // checks out a fresh scratch (pool is empty), but check-in
        // retains at most `workers` of them.
        std::thread::scope(|scope| {
            for w in 0..8 {
                let engine = &engine;
                let records = &records;
                scope.spawn(move || {
                    for r in records.iter().skip(w % 4).take(6) {
                        let _ = engine.parse_one(r);
                    }
                });
            }
        });
        assert!(
            engine.pooled_scratches() <= engine.workers(),
            "pool {} exceeds workers {}",
            engine.pooled_scratches(),
            engine.workers()
        );
        // Sequential traffic keeps it bounded too.
        for r in records.iter().take(5) {
            let _ = engine.parse_one(r);
        }
        assert!(engine.pooled_scratches() <= engine.workers());
    }

    #[test]
    fn cached_engine_matches_uncached_engine_and_counts_hits() {
        let (engine, test) = trained_engine(1);
        let records: Vec<_> = test.iter().map(|d| d.raw()).collect();
        let uncached = ParseEngine::with_line_cache(
            engine.parser().clone(),
            1,
            Arc::new(LineCache::disabled()),
        );
        assert!(engine.line_cache().enabled());
        assert!(!uncached.line_cache().enabled());
        let want = uncached.parse_batch(&records);
        // Two passes through the cached engine: the second is hit-heavy
        // and must still be bit-identical.
        assert_eq!(engine.parse_batch(&records), want);
        assert_eq!(engine.parse_batch(&records), want);
        let stats = engine.line_cache().stats();
        assert!(stats.misses > 0, "{stats:?}");
        assert!(
            stats.l1_hits + stats.l2_hits > stats.misses,
            "second pass should be dominated by hits: {stats:?}"
        );
        assert!(stats.entries > 0 && stats.hit_rate > 0.0);
        let none = uncached.line_cache().stats();
        assert_eq!((none.l1_hits, none.l2_hits, none.misses), (0, 0, 0));
    }

    #[test]
    fn parse_one_confident_matches_parse_and_scores_sanely() {
        let (engine, test) = trained_engine(1);
        // Exercise both routes: the exact-tier engine and a fast-tier one.
        let fast = ParseEngine::with_decode_tier(
            engine.parser().clone(),
            1,
            Arc::new(LineCache::disabled()),
            DecodeTier::Fast,
            Arc::new(DecodeCounters::new()),
        );
        assert!(fast.fast_tier_active());
        let mut high = 0usize;
        for d in test.iter().take(20) {
            let raw = d.raw();
            let want = engine.parser().parse(&raw);
            for eng in [&engine, &fast] {
                let (parsed, confidence) = eng.parse_one_confident(&raw);
                assert_eq!(parsed, want, "confident parse must not change output");
                assert!(
                    (0.0..=1.0).contains(&confidence),
                    "confidence {confidence} out of range"
                );
                if confidence > 0.5 {
                    high += 1;
                }
            }
        }
        assert!(
            high >= 30,
            "held-out in-format records should be confident: {high}/40"
        );
    }

    #[test]
    fn drifted_records_score_lower_confidence_than_clean() {
        // The drift monitor's premise: a schema the model never saw
        // yields lower per-record confidence than the training schemas.
        let (engine, _) = trained_engine(1);
        let clean = generate_corpus(GenConfig::new(555, 60));
        let drifted = generate_corpus(GenConfig {
            drift_fraction: 1.0,
            ..GenConfig::new(555, 60)
        });
        let mean = |set: &[GeneratedDomain]| {
            let sum: f64 = set
                .iter()
                .map(|d| engine.parse_one_confident(&d.raw()).1)
                .sum();
            sum / set.len() as f64
        };
        let clean_mean = mean(&clean);
        let drifted_mean = mean(&drifted);
        assert!(
            drifted_mean < clean_mean,
            "drifted {drifted_mean} should score below clean {clean_mean}"
        );
    }

    #[test]
    fn empty_batch_is_benign() {
        let (engine, _) = trained_engine(2);
        let (batch, stats) = engine.parse_batch_with_stats(&[]);
        assert!(batch.is_empty());
        assert_eq!(stats.records, 0);
    }
}
