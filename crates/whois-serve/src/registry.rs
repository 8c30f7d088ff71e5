//! Versioned model registry with atomic hot swap.
//!
//! The paper's §5.3 story — retrain on a few labeled records from a new
//! registrar/TLD, redeploy — only pays off operationally if the fresh
//! model can go live without restarting the service. The registry keeps
//! the active model behind an `RwLock<Arc<_>>` (arc-swap idiom): readers
//! clone the `Arc` under a briefly held read lock and keep parsing on
//! whatever model they grabbed; `install` builds the new engine outside
//! any lock and swaps the pointer in one write. Requests in flight on
//! the old model finish on the old model; the next request sees the new
//! one. Each install bumps a monotonically increasing *generation*,
//! which the result cache mixes into its keys, so stale cached parses
//! are unreachable the instant a swap lands.
//!
//! [`ModelWatcher`] polls a versioned model directory (`*.json`, highest
//! file stem wins) and installs new versions as they appear — drop a
//! `model-0002.json` next to `model-0001.json` and the service picks it
//! up within one poll interval.

use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use whois_parser::{
    DecodeCounters, DecodeTier, LineCache, ParseEngine, WhoisParser, DEFAULT_BYPASS_FLOOR,
};

/// The currently active model: an immutable snapshot shared by every
/// request that started while it was current.
pub struct ActiveModel {
    /// Human-readable version (file stem for directory-loaded models).
    pub version: String,
    /// Monotonic install counter; cache keys include it.
    pub generation: u64,
    /// The parse engine wrapping this model.
    pub engine: ParseEngine,
}

/// Callback invoked after a model swap lands: `(version, generation)`.
/// The disk tier hangs off this to fence its stored parses.
pub type InstallHook = Box<dyn Fn(&str, u64) + Send + Sync>;

/// Registry holding the active model and performing atomic swaps.
pub struct ModelRegistry {
    active: RwLock<Arc<ActiveModel>>,
    generation: AtomicU64,
    swaps: AtomicU64,
    load_failures: AtomicU64,
    install_hooks: RwLock<Vec<InstallHook>>,
    engine_workers: usize,
    line_cache: Arc<LineCache>,
    /// Decode tier for this and every subsequently installed engine.
    decode_tier: DecodeTier,
    /// Fast-tier outcome counters, shared across model swaps so `STATS`
    /// reports service-lifetime totals.
    decode_counters: Arc<DecodeCounters>,
}

impl ModelRegistry {
    /// Start with `parser` as generation 1. `engine_workers` is passed
    /// through to the engine for this and every subsequently installed
    /// model (0 = available parallelism). Records decode on the fast
    /// tier — the serving default — which never touches the line cache;
    /// that is created (empty, at
    /// [`whois_parser::DEFAULT_LINE_CACHE_CAPACITY`] with the adaptive
    /// bypass enabled) for a model outside the fast tier's envelope,
    /// whose engine stays exact and memoizes.
    pub fn new(parser: WhoisParser, version: impl Into<String>, engine_workers: usize) -> Self {
        Self::with_line_cache(
            parser,
            version,
            engine_workers,
            Arc::new(LineCache::with_default_capacity().with_bypass_floor(DEFAULT_BYPASS_FLOOR)),
        )
    }

    /// [`new`](Self::new) with a caller-provided line cache — the shared
    /// L2 an installed model's engine memoizes into when it has no fast
    /// tier. Capacity 0 disables memoization entirely. Decodes default
    /// to the fast tier.
    pub fn with_line_cache(
        parser: WhoisParser,
        version: impl Into<String>,
        engine_workers: usize,
        line_cache: Arc<LineCache>,
    ) -> Self {
        Self::with_decode_tier(
            parser,
            version,
            engine_workers,
            line_cache,
            DecodeTier::Fast,
        )
    }

    /// [`with_line_cache`](Self::with_line_cache) with an explicit
    /// [`DecodeTier`] (the `--decode-tier` serve flag lands here):
    /// `Fast` engines decode every record on the compiled tier, `Exact`
    /// ones on the f64 engine memoized through `line_cache`. Install
    /// compiles the requested tier for every engine; parse output is
    /// byte-identical either way.
    pub fn with_decode_tier(
        parser: WhoisParser,
        version: impl Into<String>,
        engine_workers: usize,
        line_cache: Arc<LineCache>,
        decode_tier: DecodeTier,
    ) -> Self {
        // The cache is born at generation 1, matching the first model.
        line_cache.set_generation(1);
        let decode_counters = Arc::new(DecodeCounters::new());
        let active = Arc::new(ActiveModel {
            version: version.into(),
            generation: 1,
            engine: ParseEngine::with_decode_tier(
                parser,
                engine_workers,
                line_cache.clone(),
                decode_tier,
                decode_counters.clone(),
            ),
        });
        ModelRegistry {
            active: RwLock::new(active),
            generation: AtomicU64::new(1),
            swaps: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            install_hooks: RwLock::new(Vec::new()),
            engine_workers,
            line_cache,
            decode_tier,
            decode_counters,
        }
    }

    /// The decode tier every installed engine is built with.
    pub fn decode_tier(&self) -> DecodeTier {
        self.decode_tier
    }

    /// Service-lifetime fast-tier outcome counters (shared across
    /// swaps).
    pub fn decode_counters(&self) -> &Arc<DecodeCounters> {
        &self.decode_counters
    }

    /// The SIMD kernel level the active engine's decodes dispatch to
    /// (surfaced in `STATS`/`HEALTH`).
    pub fn kernel_level(&self) -> whois_parser::KernelLevel {
        self.current().engine.kernel_level()
    }

    /// Snapshot the active model. Cheap: one read lock + `Arc` clone.
    pub fn current(&self) -> Arc<ActiveModel> {
        self.active.read().clone()
    }

    /// The shared line cache exact-tier engines memoize into.
    pub fn line_cache(&self) -> &Arc<LineCache> {
        &self.line_cache
    }

    /// Atomically swap in a new model; returns its generation. The
    /// engine is built before the write lock is taken, so readers are
    /// never blocked behind model construction. The line cache's
    /// generation is bumped *before* the new engine is built: entries
    /// memoized under the old model become unreachable at that instant
    /// (no sweep), while the still-running old engine keeps its own
    /// generation and keeps hitting its own entries until it drains.
    ///
    /// Install hooks run while the write lock is still held, so no
    /// reader can obtain the new model before every hook has finished.
    /// The disk tier depends on that fence: if the new model were
    /// visible before its `bump_generation` hook persisted, a request
    /// racing the install could serve an old-model parse from disk and
    /// re-promote it under the new generation.
    pub fn install(&self, parser: WhoisParser, version: impl Into<String>) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.line_cache.set_generation(generation);
        let fresh = Arc::new(ActiveModel {
            version: version.into(),
            generation,
            engine: ParseEngine::with_decode_tier(
                parser,
                self.engine_workers,
                self.line_cache.clone(),
                self.decode_tier,
                self.decode_counters.clone(),
            ),
        });
        let version = fresh.version.clone();
        {
            let mut active = self.active.write();
            *active = fresh;
            for hook in self.install_hooks.read().iter() {
                hook(&version, generation);
            }
        }
        self.swaps.fetch_add(1, Ordering::SeqCst);
        generation
    }

    /// Register a callback to run on every future [`install`], after
    /// the swap but *before* it becomes visible: hooks run under the
    /// registry's write lock, so `current()` returns the new model
    /// only once every hook has completed. The disk store uses this to
    /// bump its persistent generation, guaranteeing no request can
    /// pair the new model with an unfenced store. Keep hooks brief —
    /// readers block on `current()` while they run.
    ///
    /// [`install`]: Self::install
    pub fn on_install(&self, hook: InstallHook) {
        self.install_hooks.write().push(hook);
    }

    /// Load a serialized [`WhoisParser`] from `path` and install it,
    /// versioned by the file stem. A read or deserialization failure
    /// bumps [`load_failures`](Self::load_failures) — corrupt or
    /// half-written uploads are an operational signal, not just an
    /// `eprintln`.
    pub fn install_file(&self, path: &Path) -> Result<u64, String> {
        let loaded = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|json| {
                WhoisParser::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
            });
        match loaded {
            Ok(parser) => Ok(self.install(parser, file_version(path))),
            Err(e) => {
                self.load_failures.fetch_add(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Number of completed swaps (installs after the first model).
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::SeqCst)
    }

    /// Number of failed [`install_file`](Self::install_file) attempts
    /// (every retry of the same bad file counts).
    pub fn load_failures(&self) -> u64 {
        self.load_failures.load(Ordering::SeqCst)
    }
}

/// Version string for a model file: its stem (`model-0002.json` →
/// `model-0002`).
fn file_version(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// The newest model file in `dir`: the `*.json` entry with the
/// lexicographically greatest file name (versioned naming —
/// `model-0001.json`, `model-0002.json`, … — sorts chronologically).
pub fn newest_model_file(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
        .max()
}

/// Poll delay after `failures` consecutive load failures on the same
/// file: `interval * 2^min(failures, 6)` plus up to 25% jitter, so a
/// fleet of watchers staring at the same bad upload doesn't retry in
/// lockstep. Zero failures → the plain interval, no jitter.
fn backoff_delay(interval: Duration, failures: u32) -> Duration {
    if failures == 0 {
        return interval;
    }
    let scaled = interval.saturating_mul(1u32 << failures.min(6));
    // Cheap decorrelation without a PRNG dependency: hash the clock.
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0)
        .hash(&mut h);
    let jitter_cap = (scaled.as_millis() as u64 / 4).max(1);
    scaled + Duration::from_millis(h.finish() % jitter_cap)
}

/// Background thread polling a model directory for new versions.
pub struct ModelWatcher {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ModelWatcher {
    /// Watch `dir`, installing any new newest model into `registry`
    /// every `interval`. Files that fail to load are left alone and
    /// retried on later polls (logged once per path), so a corrupt or
    /// half-written upload can't take the service down — and a slow
    /// upload is picked up once it finishes. Publishing via
    /// write-to-temp-then-rename avoids the retry window entirely.
    ///
    /// Repeated failures on the *same* file back off exponentially
    /// (capped at 64× the poll interval) with a little jitter, so a
    /// permanently corrupt upload costs a handful of load attempts per
    /// minute instead of one per poll — the failure count stays visible
    /// in `HEALTH` as `model_load_failures`. The backoff resets the
    /// moment a different newest file appears or a load succeeds.
    pub fn start(
        registry: Arc<ModelRegistry>,
        dir: impl Into<PathBuf>,
        interval: Duration,
    ) -> Self {
        let dir = dir.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("whois-serve-model-watcher".into())
            .spawn(move || {
                let mut last_seen: Option<PathBuf> = None;
                let mut last_failed: Option<PathBuf> = None;
                let mut failures: u32 = 0;
                while !stop_flag.load(Ordering::SeqCst) {
                    if let Some(newest) = newest_model_file(&dir) {
                        let is_new = last_seen.as_ref() != Some(&newest)
                            && file_version(&newest) != registry.current().version;
                        if is_new {
                            if last_failed.as_ref() != Some(&newest) {
                                // A different file: whatever we were
                                // backing off from is moot.
                                failures = 0;
                            }
                            match registry.install_file(&newest) {
                                Ok(generation) => {
                                    eprintln!(
                                        "[whois-serve] installed {} (generation {generation})",
                                        newest.display()
                                    );
                                    last_seen = Some(newest);
                                    last_failed = None;
                                    failures = 0;
                                }
                                Err(e) => {
                                    if last_failed.as_ref() != Some(&newest) {
                                        eprintln!(
                                            "[whois-serve] model load failed (will retry): {e}"
                                        );
                                        last_failed = Some(newest);
                                    }
                                    failures = failures.saturating_add(1);
                                }
                            }
                        }
                    }
                    // Sleep in small steps so stop() is prompt. Repeated
                    // failures stretch the sleep exponentially (with
                    // jitter) so a permanently bad file doesn't get
                    // hammered every poll.
                    let mut remaining = backoff_delay(interval, failures);
                    while !remaining.is_zero() && !stop_flag.load(Ordering::SeqCst) {
                        let step = remaining.min(Duration::from_millis(10));
                        std::thread::sleep(step);
                        remaining = remaining.saturating_sub(step);
                    }
                }
            })
            .expect("spawn model watcher");
        ModelWatcher {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the watcher and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ModelWatcher {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whois_model::{BlockLabel, RegistrantLabel};
    use whois_parser::ParserConfig;
    use whois_parser::TrainExample;

    fn tiny_parser(seed: u64) -> WhoisParser {
        let corpus =
            whois_gen::corpus::generate_corpus(whois_gen::corpus::GenConfig::new(seed, 40));
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
    fn install_bumps_generation_and_readers_keep_old_arcs() {
        let registry = ModelRegistry::new(tiny_parser(1), "v1", 1);
        let before = registry.current();
        assert_eq!(before.generation, 1);
        assert_eq!(before.version, "v1");

        let gen2 = registry.install(tiny_parser(2), "v2");
        assert_eq!(gen2, 2);
        assert_eq!(registry.swaps(), 1);
        let after = registry.current();
        assert_eq!(after.version, "v2");
        // The pre-swap snapshot still works: in-flight requests finish
        // on the model they started with.
        assert_eq!(before.generation, 1);
        let raw = whois_model::RawRecord::new("x.com", "Domain Name: X.COM\n");
        let _ = before.engine.parse_one(&raw);
        let _ = after.engine.parse_one(&raw);
    }

    #[test]
    fn install_advances_shared_line_cache_generation() {
        let registry = ModelRegistry::new(tiny_parser(5), "v1", 1);
        assert_eq!(registry.line_cache().generation(), 1);
        let raw = whois_model::RawRecord::new("x.com", "Domain Name: X.COM\nRegistrar: R\n");
        let before = registry.current();
        let want_v1 = before.engine.parse_one(&raw);
        // Populate generation-1 entries, then swap models.
        let _ = before.engine.parse_one(&raw);

        let parser2 = tiny_parser(6);
        let want_v2 = parser2.parse(&raw);
        registry.install(parser2, "v2");
        assert_eq!(registry.line_cache().generation(), 2);
        let after = registry.current();
        assert_eq!(after.engine.cache_generation(), 2);
        // The new engine never sees generation-1 rows; the drained old
        // engine keeps matching its own model.
        assert_eq!(after.engine.parse_one(&raw), want_v2);
        assert_eq!(before.engine.parse_one(&raw), want_v1);
        // Both engines share the registry's cache.
        assert!(Arc::ptr_eq(
            before.engine.line_cache(),
            after.engine.line_cache()
        ));
    }

    #[test]
    fn fast_tier_registry_is_byte_identical_and_shares_counters_across_swaps() {
        let parser = tiny_parser(7);
        // Disabled line cache: every record exercises the decode tier.
        let registry = ModelRegistry::with_decode_tier(
            parser.clone(),
            "v1",
            1,
            Arc::new(LineCache::disabled()),
            DecodeTier::Fast,
        );
        assert_eq!(registry.decode_tier(), DecodeTier::Fast);
        assert!(registry.current().engine.fast_tier_active());
        let raw = whois_model::RawRecord::new(
            "x.com",
            "Domain Name: X.COM\nRegistrar: R\nRegistrant Name: J. Doe\n",
        );
        assert_eq!(
            registry.current().engine.parse_one(&raw),
            parser.parse(&raw)
        );
        let seen = registry.decode_counters().fast_decodes()
            + registry.decode_counters().exact_fallbacks();
        assert!(seen > 0, "decode outcomes are counted");
        // The same counters keep accumulating across a hot swap.
        let parser2 = tiny_parser(8);
        let want2 = parser2.parse(&raw);
        registry.install(parser2, "v2");
        assert_eq!(registry.current().engine.parse_one(&raw), want2);
        let after = registry.decode_counters().fast_decodes()
            + registry.decode_counters().exact_fallbacks();
        assert!(after > seen, "counters survive the swap");
    }

    #[test]
    fn install_hooks_complete_before_new_model_is_visible() {
        // Regression: install() used to publish the new model and only
        // then run hooks, so a racing request could pair the new model
        // with a store whose generation fence hadn't landed yet. The
        // hook now runs under the write lock; a reader must never
        // observe a model generation ahead of the hook-maintained
        // fence.
        let registry = Arc::new(ModelRegistry::new(tiny_parser(9), "v1", 1));
        let fence = Arc::new(AtomicU64::new(1));
        let hook_fence = fence.clone();
        registry.on_install(Box::new(move |_, generation| {
            // Simulate the disk tier's manifest persist: slow enough
            // that an unfenced reader would race past us.
            std::thread::sleep(Duration::from_millis(40));
            hook_fence.store(generation, Ordering::SeqCst);
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let registry = registry.clone();
            let fence = fence.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let model_generation = registry.current().generation;
                    let fenced = fence.load(Ordering::SeqCst);
                    assert!(
                        fenced >= model_generation,
                        "saw generation-{model_generation} model while the \
                         install hook had only fenced {fenced}"
                    );
                }
            })
        };
        registry.install(tiny_parser(10), "v2");
        registry.install(tiny_parser(12), "v3");
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert_eq!(fence.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn backoff_delay_grows_exponentially_with_bounded_jitter() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 0), base, "no failures, no backoff");
        for failures in 1..=10u32 {
            let scaled = base * (1 << failures.min(6));
            let cap = scaled + Duration::from_millis((scaled.as_millis() as u64 / 4).max(1));
            for _ in 0..8 {
                let d = backoff_delay(base, failures);
                assert!(d >= scaled, "{failures} failures: {d:?} < {scaled:?}");
                assert!(d <= cap, "{failures} failures: {d:?} > {cap:?}");
            }
        }
        // The exponent is capped: 20 failures sleep no longer than 7.
        assert!(backoff_delay(base, 20) <= backoff_delay(base, 6) * 2);
    }

    #[test]
    fn watcher_backs_off_on_repeated_corrupt_loads() {
        let dir = std::env::temp_dir().join(format!(
            "whois-serve-backoff-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("model-0002.json"), "not json").unwrap();

        let registry = Arc::new(ModelRegistry::new(tiny_parser(11), "model-0001", 1));
        let watcher = ModelWatcher::start(registry.clone(), &dir, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(400));
        watcher.stop();

        let failures = registry.load_failures();
        assert!(failures >= 1, "the corrupt file is attempted at least once");
        // Without backoff a 5 ms poll would attempt ~80 loads in 400 ms;
        // exponential backoff (5, 10, 20, 40, 80, 160 ms ... + jitter)
        // bounds it to a handful. Scheduling delays only *reduce* the
        // count, so the bound is load-robust.
        assert!(
            failures <= 8,
            "backoff should bound retries, saw {failures}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_model_file_picks_greatest_name() {
        let dir = std::env::temp_dir().join(format!("whois-serve-reg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(newest_model_file(&dir).is_none());
        std::fs::write(dir.join("model-0001.json"), "{}").unwrap();
        std::fs::write(dir.join("model-0002.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let newest = newest_model_file(&dir).unwrap();
        assert!(newest.ends_with("model-0002.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watcher_installs_new_versions_and_survives_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("whois-serve-watch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let registry = Arc::new(ModelRegistry::new(tiny_parser(3), "model-0001", 1));
        let watcher = ModelWatcher::start(registry.clone(), &dir, Duration::from_millis(10));

        // A corrupt newest file is skipped without killing the watcher,
        // and every failed attempt is counted.
        std::fs::write(dir.join("model-0002.json"), "not json").unwrap();
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(registry.current().version, "model-0001");
        assert!(registry.load_failures() >= 1, "failed loads are counted");

        // A valid one is installed.
        let parser = tiny_parser(4);
        std::fs::write(dir.join("model-0003.json"), parser.to_json().unwrap()).unwrap();
        // Generous: the watcher retries torn mid-write reads, and on a
        // loaded single-core test host the poll thread can be starved
        // for seconds at a time.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while registry.current().version != "model-0003" && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(registry.current().version, "model-0003");
        assert_eq!(registry.current().generation, 2);

        watcher.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
