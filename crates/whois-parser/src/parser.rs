//! The two-level [`WhoisParser`] facade.

use crate::encoder::TrainExample;
use crate::engine::{DecodeCounters, ParseScratch};
use crate::extract;
use crate::fast::FastParser;
use crate::level::{LevelParser, ParserConfig};
use crate::line_cache::{LineCache, LEVEL1_SALT, LEVEL2_SALT};
use serde::{Deserialize, Serialize};
use whois_model::{BlockLabel, ErrorStats, ParsedRecord, RawRecord, RegistrantLabel, WhoisError};

/// The complete statistical WHOIS parser: first-level block segmentation
/// plus second-level registrant sub-field parsing (§3.2 of the paper).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WhoisParser {
    first: LevelParser<BlockLabel>,
    second: LevelParser<RegistrantLabel>,
}

impl WhoisParser {
    /// Train both levels.
    ///
    /// * `first_examples` — full record texts with block labels.
    /// * `second_examples` — registrant-block line runs with sub-field
    ///   labels (text = the block's lines joined by `\n`).
    pub fn train(
        first_examples: &[TrainExample<BlockLabel>],
        second_examples: &[TrainExample<RegistrantLabel>],
        cfg: &ParserConfig,
    ) -> Self {
        WhoisParser {
            first: LevelParser::train(first_examples, cfg),
            second: LevelParser::train(second_examples, cfg),
        }
    }

    /// Label every non-empty line of a record with its block.
    pub fn label_blocks(&self, text: &str) -> Vec<BlockLabel> {
        self.first.predict(text)
    }

    /// Parse a raw record into structured form.
    pub fn parse(&self, record: &RawRecord) -> ParsedRecord {
        self.parse_with(record, &mut ParseScratch::new())
    }

    /// [`parse`](Self::parse) reusing a caller-owned [`ParseScratch`] —
    /// the steady-state path used by
    /// [`ParseEngine`](crate::engine::ParseEngine) workers.
    pub fn parse_with(&self, record: &RawRecord, scratch: &mut ParseScratch) -> ParsedRecord {
        self.parse_impl(record, scratch, None)
    }

    /// [`parse_with`](Self::parse_with) through a [`LineCache`] at
    /// `generation` — the memoized path used by
    /// [`ParseEngine`](crate::engine::ParseEngine) when its cache is
    /// enabled. Output is bit-identical to `parse_with` (see
    /// [`LevelParser::predict_cached`]).
    pub fn parse_cached(
        &self,
        record: &RawRecord,
        scratch: &mut ParseScratch,
        cache: &LineCache,
        generation: u64,
    ) -> ParsedRecord {
        self.parse_impl(record, scratch, Some((cache, generation)))
    }

    /// [`parse_with`](Self::parse_with) on the **fast decode tier**:
    /// [`parse_fast_confident`](Self::parse_fast_confident) without the
    /// confidence (the margin it comes from is computed either way).
    pub fn parse_fast(
        &self,
        record: &RawRecord,
        scratch: &mut ParseScratch,
        fast: &FastParser,
        guard: f32,
        counters: &DecodeCounters,
    ) -> ParsedRecord {
        self.parse_fast_confident(record, scratch, fast, guard, counters)
            .0
    }

    /// The fast decode tier's one parse body: both levels decode on
    /// `fast`'s pruned `f32` models ([`crate::fast`]); a level whose
    /// decode margin falls under `guard` transparently re-decodes on the
    /// exact engine, so the output is byte-identical to
    /// [`parse_with`](Self::parse_with). Each level decode is tallied
    /// into `counters`.
    ///
    /// Also exports a per-record **confidence** in `[0, 1]` for the
    /// serving drift monitor. On a successful fast first-level decode the
    /// confidence is the decode margin mapped through
    /// `margin / (margin + 1)`; when the margin guard forces the exact
    /// engine, it is the mean of the first level's per-line posterior
    /// marginals (eq. 12). Both scales sit near 1 on schemas the model
    /// knows and sag on drifted ones, which is all a
    /// sustained-low-confidence detector needs.
    pub fn parse_fast_confident(
        &self,
        record: &RawRecord,
        scratch: &mut ParseScratch,
        fast: &FastParser,
        guard: f32,
        counters: &DecodeCounters,
    ) -> (ParsedRecord, f64) {
        let lines = record.lines();
        let (mut blocks, confidence) =
            match fast
                .first
                .predict_scored::<BlockLabel>(&record.text, &mut scratch.fast, guard)
            {
                Some((b, margin)) => {
                    counters.record(false);
                    (b, (margin as f64 / (margin as f64 + 1.0)).clamp(0.0, 1.0))
                }
                None => {
                    counters.record(true);
                    let scored = self
                        .first
                        .predict_with_confidence_with(&record.text, scratch);
                    let confidence = mean_confidence(&scored);
                    (scored.into_iter().map(|(l, _)| l).collect(), confidence)
                }
            };
        align_blocks(lines.len(), &mut blocks);
        let registrant =
            self.second_level_pass(&lines, &blocks, scratch, Some((fast, guard, counters)));
        (
            extract::assemble(&record.domain, &lines, &blocks, &registrant),
            confidence,
        )
    }

    /// Exact-tier parse that exports the same per-record confidence as
    /// [`parse_fast_confident`](Self::parse_fast_confident): the mean
    /// first-level posterior marginal along the decoded path.
    pub fn parse_with_confidence(
        &self,
        record: &RawRecord,
        scratch: &mut ParseScratch,
    ) -> (ParsedRecord, f64) {
        let lines = record.lines();
        let scored = self
            .first
            .predict_with_confidence_with(&record.text, scratch);
        let confidence = mean_confidence(&scored);
        let mut blocks: Vec<BlockLabel> = scored.into_iter().map(|(l, _)| l).collect();
        align_blocks(lines.len(), &mut blocks);
        let registrant = self.second_level_pass(&lines, &blocks, scratch, None);
        (
            extract::assemble(&record.domain, &lines, &blocks, &registrant),
            confidence,
        )
    }

    /// The shared second-level stage: collect the registrant block's
    /// lines and label them, on the fast tier when one is supplied
    /// (falling back under the margin guard) or the exact engine
    /// otherwise.
    fn second_level_pass(
        &self,
        lines: &[&str],
        blocks: &[BlockLabel],
        scratch: &mut ParseScratch,
        fast: Option<(&FastParser, f32, &DecodeCounters)>,
    ) -> Vec<(String, RegistrantLabel)> {
        let mut reg_idx = std::mem::take(&mut scratch.reg_idx);
        reg_idx.clear();
        reg_idx.extend(
            blocks
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == BlockLabel::Registrant)
                .map(|(i, _)| i),
        );
        let registrant: Vec<(String, RegistrantLabel)> = if reg_idx.is_empty() {
            Vec::new()
        } else {
            let mut block_text = std::mem::take(&mut scratch.block_text);
            block_text.clear();
            for (k, &i) in reg_idx.iter().enumerate() {
                if k > 0 {
                    block_text.push('\n');
                }
                block_text.push_str(lines[i]);
            }
            let sub = match fast {
                Some((f, guard, counters)) => {
                    match f
                        .second
                        .predict::<RegistrantLabel>(&block_text, &mut scratch.fast, guard)
                    {
                        Some(s) => {
                            counters.record(false);
                            s
                        }
                        None => {
                            counters.record(true);
                            self.second.predict_with(&block_text, scratch)
                        }
                    }
                }
                None => self.second.predict_with(&block_text, scratch),
            };
            scratch.block_text = block_text;
            reg_idx
                .iter()
                .map(|&i| lines[i].to_string())
                .zip(sub)
                .collect()
        };
        scratch.reg_idx = reg_idx;
        registrant
    }

    fn parse_impl(
        &self,
        record: &RawRecord,
        scratch: &mut ParseScratch,
        cache: Option<(&LineCache, u64)>,
    ) -> ParsedRecord {
        let lines = record.lines();
        let mut blocks = match cache {
            Some((c, generation)) => {
                self.first
                    .predict_cached(&record.text, scratch, c, LEVEL1_SALT, generation)
            }
            None => self.first.predict_with(&record.text, scratch),
        };
        align_blocks(lines.len(), &mut blocks);

        // Second level over the registrant block. The line indices and
        // the joined block text live in scratch-owned buffers — no
        // per-record `Vec`/`String` allocation.
        let mut reg_idx = std::mem::take(&mut scratch.reg_idx);
        reg_idx.clear();
        reg_idx.extend(
            blocks
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == BlockLabel::Registrant)
                .map(|(i, _)| i),
        );
        let registrant: Vec<(String, RegistrantLabel)> = if reg_idx.is_empty() {
            Vec::new()
        } else {
            let mut block_text = std::mem::take(&mut scratch.block_text);
            block_text.clear();
            for (k, &i) in reg_idx.iter().enumerate() {
                if k > 0 {
                    block_text.push('\n');
                }
                block_text.push_str(lines[i]);
            }
            let sub = match cache {
                Some((c, generation)) => {
                    self.second
                        .predict_cached(&block_text, scratch, c, LEVEL2_SALT, generation)
                }
                None => self.second.predict_with(&block_text, scratch),
            };
            scratch.block_text = block_text;
            reg_idx
                .iter()
                .map(|&i| lines[i].to_string())
                .zip(sub)
                .collect()
        };
        scratch.reg_idx = reg_idx;

        extract::assemble(&record.domain, &lines, &blocks, &registrant)
    }

    /// First-level accuracy on held-out examples (Figures 2–3 metrics).
    pub fn evaluate_first_level(&self, examples: &[TrainExample<BlockLabel>]) -> ErrorStats {
        self.first.evaluate(examples)
    }

    /// Second-level accuracy on held-out registrant blocks.
    pub fn evaluate_second_level(&self, examples: &[TrainExample<RegistrantLabel>]) -> ErrorStats {
        self.second.evaluate(examples)
    }

    /// Retrain the first level on extended data (§5.3 adaptation).
    pub fn retrain_first_level(
        &mut self,
        examples: &[TrainExample<BlockLabel>],
        cfg: &ParserConfig,
    ) {
        self.first.retrain(examples, cfg);
    }

    /// Retrain the second level on extended data.
    pub fn retrain_second_level(
        &mut self,
        examples: &[TrainExample<RegistrantLabel>],
        cfg: &ParserConfig,
    ) {
        self.second.retrain(examples, cfg);
    }

    /// The first-level parser (for inspection).
    pub fn first_level(&self) -> &LevelParser<BlockLabel> {
        &self.first
    }

    /// The second-level parser (for inspection).
    pub fn second_level(&self) -> &LevelParser<RegistrantLabel> {
        &self.second
    }

    /// Mutable first-level parser (weight surgery in tests and
    /// experiments).
    pub fn first_level_mut(&mut self) -> &mut LevelParser<BlockLabel> {
        &mut self.first
    }

    /// Mutable second-level parser.
    pub fn second_level_mut(&mut self) -> &mut LevelParser<RegistrantLabel> {
        &mut self.second
    }

    /// Serialize the trained model to JSON.
    pub fn to_json(&self) -> Result<String, WhoisError> {
        serde_json::to_string(self).map_err(|e| WhoisError::Serialization(e.to_string()))
    }

    /// Load a trained model from JSON.
    pub fn from_json(json: &str) -> Result<Self, WhoisError> {
        serde_json::from_str(json).map_err(|e| WhoisError::Serialization(e.to_string()))
    }
}

/// Force the block-label vector to cover exactly `num_lines` lines.
///
/// The first level labels the lines the annotator considers labelable
/// while `RawRecord::lines` keeps the lines `non_empty_lines` keeps; the
/// two filters agree, but the invariant spans two crates and used to be
/// guarded only by a `debug_assert!` that vanished in release builds —
/// any future drift would have silently misaligned every label after the
/// first disagreement. Missing labels are filled with
/// [`BlockLabel::Other`] (the catch-all block), surplus labels dropped,
/// so a drifted build degrades per-line instead of corrupting the whole
/// record.
/// Mean posterior marginal along a scored path; 1.0 for an empty record
/// (nothing to be unsure about).
fn mean_confidence<L>(scored: &[(L, f64)]) -> f64 {
    if scored.is_empty() {
        return 1.0;
    }
    scored.iter().map(|(_, c)| *c).sum::<f64>() / scored.len() as f64
}

fn align_blocks(num_lines: usize, blocks: &mut Vec<BlockLabel>) {
    debug_assert_eq!(
        num_lines,
        blocks.len(),
        "annotator and non_empty_lines disagree on labelable lines"
    );
    blocks.resize(num_lines, BlockLabel::Other);
}

#[cfg(test)]
mod tests {
    use super::*;
    use whois_gen::corpus::{generate_corpus, GenConfig};

    #[test]
    fn align_blocks_pads_and_truncates() {
        let mut short = vec![BlockLabel::Domain];
        // Suppress the debug assertion path: exercise the release-mode
        // behavior directly on intentionally mismatched inputs.
        if !cfg!(debug_assertions) {
            align_blocks(3, &mut short);
            assert_eq!(
                short,
                vec![BlockLabel::Domain, BlockLabel::Other, BlockLabel::Other]
            );
            let mut long = vec![BlockLabel::Domain, BlockLabel::Registrar];
            align_blocks(1, &mut long);
            assert_eq!(long, vec![BlockLabel::Domain]);
        }
        let mut exact = vec![BlockLabel::Domain, BlockLabel::Null];
        align_blocks(2, &mut exact);
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn parse_labels_every_line_on_awkward_records() {
        // Records mixing blank, symbol-only, and indented lines: the
        // regression surface for the line/label alignment contract.
        let (parser, _) = trained();
        for text in [
            "%% notice\nDomain Name: A.COM\n\n   indented: yes\n%%%\ntail line",
            "\n\n\nDomain Name: B.COM\n\t\nRegistrant Name: J\n",
            "only one line",
        ] {
            let record = RawRecord {
                domain: "x.com".into(),
                text: text.to_string(),
            };
            let parsed = parser.parse(&record);
            let labeled: usize = parsed.blocks.values().map(Vec::len).sum();
            assert_eq!(labeled, record.lines().len(), "{text:?}");
        }
    }

    /// Train on a modest generated corpus and return parser + held-out set.
    fn trained() -> (WhoisParser, Vec<whois_gen::corpus::GeneratedDomain>) {
        let corpus = generate_corpus(GenConfig::new(101, 260));
        let (train_set, test_set) = corpus.split_at(200);
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
        (parser, test_set.to_vec())
    }

    #[test]
    fn end_to_end_accuracy_on_held_out_generated_records() {
        let (parser, test) = trained();
        let examples: Vec<TrainExample<BlockLabel>> = test
            .iter()
            .map(|d| TrainExample {
                text: d.rendered.text(),
                labels: d.block_labels().labels(),
            })
            .collect();
        let stats = parser.evaluate_first_level(&examples);
        assert!(
            stats.line_error_rate() < 0.03,
            "first-level line error {} too high",
            stats.line_error_rate()
        );
    }

    #[test]
    fn parse_produces_structured_output() {
        let (parser, test) = trained();
        let mut extracted_registrars = 0;
        let mut extracted_created = 0;
        let mut extracted_registrant = 0;
        for d in &test {
            let parsed = parser.parse(&d.raw());
            if let Some(r) = &parsed.registrar {
                if r == &d.facts.registrar_name {
                    extracted_registrars += 1;
                }
            }
            if parsed.creation_year() == Some(d.facts.created.y) {
                extracted_created += 1;
            }
            if parsed.has_registrant() {
                extracted_registrant += 1;
            }
        }
        let n = test.len();
        assert!(
            extracted_registrars as f64 / n as f64 > 0.8,
            "registrar extraction {extracted_registrars}/{n}"
        );
        assert!(
            extracted_created as f64 / n as f64 > 0.8,
            "creation year {extracted_created}/{n}"
        );
        assert!(
            extracted_registrant as f64 / n as f64 > 0.9,
            "registrant presence {extracted_registrant}/{n}"
        );
    }

    #[test]
    fn model_save_load_roundtrip() {
        let (parser, test) = trained();
        let json = parser.to_json().unwrap();
        let back = WhoisParser::from_json(&json).unwrap();
        let raw = test[0].raw();
        assert_eq!(back.label_blocks(&raw.text), parser.label_blocks(&raw.text));
        assert_eq!(back.parse(&raw), parser.parse(&raw));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(WhoisParser::from_json("not json").is_err());
    }
}
