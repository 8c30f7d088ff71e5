//! # whois-parser
//!
//! The paper's **two-level statistical WHOIS parser** (§3), assembled from
//! `whois-tokenize` (feature extraction) and `whois-crf` (the model):
//!
//! * [`LevelParser`] — one CRF over any label space: builds the trimmed
//!   feature dictionary from training text, chooses pair-eligible
//!   features (title words, markers, classes — the features of eq. 8),
//!   trains by L-BFGS or SGD, and Viterbi-decodes new records.
//! * [`WhoisParser`] — the two-level composition: a six-state first-level
//!   CRF segments the record into blocks; a twelve-state second-level CRF
//!   re-parses the registrant block into sub-fields; mechanical value
//!   extraction then fills a [`whois_model::ParsedRecord`].
//! * [`ParseEngine`] — batch parsing: the trained parser plus a pool of
//!   reusable per-worker scratches ([`ParseScratch`]), parsing record
//!   batches across crossbeam scoped threads with a [`BatchStats`]
//!   throughput report, and with zero per-feature allocation at steady
//!   state.
//! * [`LineCache`] — the exact tier's cross-record line memo: WHOIS
//!   records are rendered from a few thousand registrar templates, so
//!   an engine without a fast tier memoizes each distinct (line, layout
//!   context, previous line)'s feature row and CRF potentials in a
//!   sharded, generation-versioned LRU — parses are bit-identical to
//!   the uncached path, repeated template lines cost a hash lookup
//!   instead of re-tokenization.
//! * [`FastParser`] — the compiled fast decode tier: zero-pruned `f32`
//!   structure-of-arrays weights probed by feature hash *during*
//!   tokenization (no strings, no dictionary lookups), per-record
//!   unique-line interning, and batched Viterbi. Decodes whose margin
//!   falls under a guard threshold transparently re-run on the exact
//!   `f64` engine, so engine output is byte-identical either way. An
//!   engine built with [`DecodeTier::Fast`] decodes every record on it.
//! * [`inspect`] — model introspection: the top-weight word features per
//!   label (Table 1) and the top transition-detecting features between
//!   blocks (Figure 1).
//! * [`FeatureOptions`] — ablation switches for the title/value
//!   annotation, layout markers, word classes, and pair features, used by
//!   the `features_ablation` bench.
//!
//! Models serialize with serde ([`WhoisParser::to_json`] /
//! [`WhoisParser::from_json`]), and adapt to new formats by retraining
//! with a handful of additional labeled examples (§5.3) —
//! [`WhoisParser::retrain_first_level`].

pub mod encoder;
pub mod engine;
pub mod extract;
pub mod fast;
pub mod inspect;
pub mod level;
pub mod line_cache;
pub mod parser;

pub use encoder::{Encoder, FeatureOptions, TrainExample};
pub use engine::{BatchStats, DecodeCounters, DecodeTier, ParseEngine, ParseScratch};
pub use fast::{FastLevel, FastParser, FastScratch, DEFAULT_MARGIN_GUARD};
pub use level::{LevelParser, ParserConfig};
pub use line_cache::{
    CachedLine, LineCache, LineCacheStats, DEFAULT_BYPASS_FLOOR, DEFAULT_LINE_CACHE_CAPACITY,
    DEFAULT_LINE_CACHE_SHARDS,
};
pub use parser::WhoisParser;
pub use whois_crf::{KernelLevel, TrainConfig};
