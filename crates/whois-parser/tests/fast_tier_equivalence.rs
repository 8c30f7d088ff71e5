//! Property tests for the fast decode tier's contract: a fast-tier
//! parse is **byte-identical** to the exact engine's — for any records,
//! any worker count, whatever line cache the engine was handed (it never
//! touches it), across model hot swaps, and under forced margin-guard
//! fallback.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use whois_gen::corpus::{generate_corpus, GenConfig};
use whois_model::{BlockLabel, ParsedRecord, RawRecord, RegistrantLabel};
use whois_parser::{
    DecodeCounters, DecodeTier, FastParser, FastScratch, LineCache, ParseEngine, ParserConfig,
    TrainExample, WhoisParser, DEFAULT_MARGIN_GUARD,
};

fn train_on(seed: u64, count: usize, split: usize) -> (WhoisParser, Vec<RawRecord>) {
    let corpus = generate_corpus(GenConfig::new(seed, count));
    let (train, test) = corpus.split_at(split);
    let first: Vec<TrainExample<BlockLabel>> = train
        .iter()
        .map(|d| TrainExample {
            text: d.rendered.text(),
            labels: d.block_labels().labels(),
        })
        .collect();
    let second: Vec<TrainExample<RegistrantLabel>> = train
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
    let raws: Vec<RawRecord> = test.iter().map(|d| d.raw()).collect();
    (parser, raws)
}

struct Fixture {
    model_a: WhoisParser,
    model_b: WhoisParser,
    raws: Vec<RawRecord>,
    exact_a: Vec<ParsedRecord>,
    exact_b: Vec<ParsedRecord>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (model_a, raws) = train_on(41, 160, 110);
        let (model_b, _) = train_on(63, 120, 90);
        let exact_a: Vec<ParsedRecord> = raws.iter().map(|r| model_a.parse(r)).collect();
        let exact_b: Vec<ParsedRecord> = raws.iter().map(|r| model_b.parse(r)).collect();
        Fixture {
            model_a,
            model_b,
            raws,
            exact_a,
            exact_b,
        }
    })
}

fn fast_engine(model: &WhoisParser, workers: usize, cache: Arc<LineCache>) -> ParseEngine {
    ParseEngine::with_decode_tier(
        model.clone(),
        workers,
        cache,
        DecodeTier::Fast,
        Arc::new(DecodeCounters::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fast-tier engine output ≡ exact output for any worker count and
    /// record subset.
    #[test]
    fn fast_tier_parse_is_byte_identical(
        workers in 1usize..=4,
        start in 0usize..30,
        len in 0usize..30,
    ) {
        let f = fixture();
        let end = (start + len).min(f.raws.len());
        let subset = &f.raws[start..end];
        let want = &f.exact_a[start..end];

        let engine = fast_engine(&f.model_a, workers, Arc::new(LineCache::disabled()));
        prop_assert!(engine.fast_tier_active());
        prop_assert_eq!(&engine.parse_batch(subset), want);
        // Second pass through the same pooled scratches: reused banks
        // and stamps must not leak state between records.
        prop_assert_eq!(&engine.parse_batch(subset), want);
        let c = engine.decode_counters();
        prop_assert!(c.fast_decodes() + c.exact_fallbacks() >= subset.len() as u64 * 2);
    }

    /// First-level label agreement, checked directly on the compiled
    /// tier against the f64 engine (no extraction layer in between).
    #[test]
    fn fast_labels_match_exact_labels(idx in 0usize..50) {
        let f = fixture();
        let raw = &f.raws[idx % f.raws.len()];
        let fast = FastParser::compile(&f.model_a).expect("default options compile");
        let mut scratch = FastScratch::new();
        if let Some(labels) = fast
            .first_level()
            .predict::<BlockLabel>(&raw.text, &mut scratch, DEFAULT_MARGIN_GUARD)
        {
            prop_assert_eq!(labels, f.model_a.label_blocks(&raw.text));
        }
        // A margin under the guard is legitimate (the engine would fall
        // back); anything returned must agree exactly.
    }

    /// A model hot swap over a shared cache: each engine's fast tier is
    /// compiled from its own model and keeps matching that model's
    /// exact output before and after the generation bump.
    #[test]
    fn fast_tier_survives_hot_swap(
        workers in 1usize..=3,
        start in 0usize..30,
        len in 1usize..25,
    ) {
        let f = fixture();
        let end = (start + len).min(f.raws.len());
        let subset = &f.raws[start..end];

        let cache = Arc::new(LineCache::new(64, 2));
        let engine_a = fast_engine(&f.model_a, workers, cache.clone());
        prop_assert_eq!(&engine_a.parse_batch(subset), &f.exact_a[start..end]);

        // Install order: bump the generation, then build the new
        // engine — its DecodeModel is compiled fresh from model B.
        cache.set_generation(2);
        let engine_b = fast_engine(&f.model_b, workers, cache.clone());
        prop_assert_eq!(engine_b.cache_generation(), 2);
        prop_assert_eq!(&engine_b.parse_batch(subset), &f.exact_b[start..end]);
        // The pre-swap engine still serves its own model's output.
        prop_assert_eq!(&engine_a.parse_batch(subset), &f.exact_a[start..end]);
    }
}

/// Degenerate records: empty text, blank-only, and single-line records
/// take the fast tier without drama and agree with the exact engine.
#[test]
fn degenerate_records_agree() {
    let f = fixture();
    let engine = fast_engine(&f.model_a, 1, Arc::new(LineCache::disabled()));
    for text in [
        "",
        "\n\n\n",
        "   \n\t\n",
        "single line",
        "Domain Name: X.COM\n",
    ] {
        let raw = RawRecord {
            domain: "x.com".into(),
            text: text.to_string(),
        };
        assert_eq!(engine.parse_one(&raw), f.model_a.parse(&raw), "{text:?}");
    }
}

/// Margin-guard fallback: an infinite guard makes every fast decode a
/// near-tie by definition — every record must fall back to the exact
/// engine and the served output stays byte-identical.
#[test]
fn forced_fallback_is_byte_identical_and_counted() {
    let f = fixture();
    let engine = fast_engine(&f.model_a, 2, Arc::new(LineCache::disabled()))
        .with_margin_guard(f32::INFINITY);
    assert_eq!(engine.parse_batch(&f.raws), f.exact_a);
    let c = engine.decode_counters();
    assert_eq!(c.fast_decodes(), 0, "infinite guard admits nothing");
    assert!(c.exact_fallbacks() >= f.raws.len() as u64);
    assert_eq!(c.fallback_rate(), 1.0);
}

/// A crafted exact near-tie: with all-zero weights every path scores
/// identically, the decode margin is 0, and even the default guard
/// rejects the fast decode.
#[test]
fn zero_weight_near_tie_triggers_fallback() {
    let f = fixture();
    let mut model = f.model_a.clone();
    // Zero both levels' weights in place: every label sequence now ties.
    for w in model.first_level_mut().crf_mut().weights_mut() {
        *w = 0.0;
    }
    for w in model.second_level_mut().crf_mut().weights_mut() {
        *w = 0.0;
    }
    let fast = FastParser::compile(&model).unwrap();
    let mut scratch = FastScratch::new();
    let raw = &f.raws[0];
    assert!(
        fast.first_level()
            .predict::<BlockLabel>(&raw.text, &mut scratch, DEFAULT_MARGIN_GUARD)
            .is_none(),
        "an exact tie must fall under the margin guard"
    );
    // End to end the tie still parses — on the exact engine — and the
    // fallback is visible in the counters.
    let engine = fast_engine(&model, 1, Arc::new(LineCache::disabled()));
    let want = model.parse(raw);
    assert_eq!(engine.parse_one(raw), want);
    assert!(engine.decode_counters().exact_fallbacks() > 0);
}

/// Exact-tier engines never touch the fast counters.
#[test]
fn exact_tier_engine_reports_inactive_fast_tier() {
    let f = fixture();
    let engine = ParseEngine::with_workers(f.model_a.clone(), 1);
    assert_eq!(engine.decode_tier(), DecodeTier::Exact);
    assert!(!engine.fast_tier_active());
    let _ = engine.parse_one(&f.raws[0]);
    let c = engine.decode_counters();
    assert_eq!((c.fast_decodes(), c.exact_fallbacks()), (0, 0));
    assert_eq!(c.fallback_rate(), 0.0);
}

/// The fast tier is the route, not the fallback: an engine that has one
/// never consults, fills or bypasses the line cache it was handed —
/// through `parse_one`, `parse_one_confident` and `parse_batch`, for any
/// worker count and across a generation bump — and stays byte-identical
/// to the exact oracle.
#[test]
fn fast_tier_engine_never_touches_its_line_cache() {
    let f = fixture();
    // A live cache with the most eager bypass: under the old routing the
    // first record would have filled it and the first epoch bypassed it.
    let cache = Arc::new(LineCache::new(64, 2).with_bypass_floor(1.0));
    for (generation, model, want) in [(1, &f.model_a, &f.exact_a), (2, &f.model_b, &f.exact_b)] {
        cache.set_generation(generation);
        for workers in 1..=3 {
            let engine = fast_engine(model, workers, cache.clone());
            assert!(engine.fast_tier_active());
            assert_eq!(engine.cache_generation(), generation);
            assert_eq!(&engine.parse_batch(&f.raws), want, "workers = {workers}");
            for (raw, want) in f.raws.iter().zip(want) {
                assert_eq!(&engine.parse_one(raw), want);
                assert_eq!(&engine.parse_one_confident(raw).0, want);
            }
            assert!(engine.decode_counters().fast_decodes() > 0);
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.l1_hits, stats.l2_hits, stats.misses),
        (0, 0, 0),
        "{stats:?}"
    );
    assert_eq!((stats.entries, stats.bypassed_records), (0, 0), "{stats:?}");
    assert!(!stats.bypass_active);
}
