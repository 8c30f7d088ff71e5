//! The four declared workloads, the records behind them, and the exact
//! f64 oracle every reply is checked against.

use crate::load::Corpus;
use crate::sched::Mix;
use std::time::Instant;
use whois_bench::{corpus, first_level_examples, second_level_examples};
use whois_gen::corpus::GeneratedDomain;
use whois_model::RawRecord;
use whois_parser::{ParserConfig, WhoisParser};
use whois_serve::{ParseRequest, Reply, Request, StatsSnapshot};

/// The daemon's model version is its model file's stem.
pub const MODEL_VERSION: &str = "e2e-model";
/// The model is the same in every run (the corpus seed every existing
/// bench trains on); `--seed` drives the traffic, not the model, so that
/// set-up time and parse cost do not vary with it.
pub const TRAIN_SEED: u64 = 13;
/// Training-set size. Every other bench trains on 300 records, but the
/// daemon takes ~29 s to load that 9 MB model (see README, "first
/// run"), and the contract allows ~34 s per run all told. 40 records
/// load in ~2 s and label ~99 % of lines correctly, which also leaves
/// `line_err` room to move in both directions.
pub const TRAIN_RECORDS: usize = 40;
pub const TRAIN_RECORDS_SMOKE: usize = 20;
/// Accuracy is scored over this many pool records.
const ACCURACY_SAMPLE: usize = 1000;

/// One declared workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `--cache`: result-cache capacity.
    pub cache: usize,
    /// `--store <tmp>`.
    pub store: bool,
    /// `--retrain <tmp>`.
    pub retrain: bool,
    pub mix: Mix,
    /// Open-loop rates, requests/s: about 50 % and 70 % of the seed
    /// commit's `sat_req_s` on the host the benchmark was defined on.
    /// Fixed here, never derived at run time.
    pub ref_rate: f64,
    pub hi_rate: f64,
    /// The closed-loop reply rate the single-use record pool is sized
    /// for; a daemon faster than this fails the run loudly.
    pub sat_ceiling: f64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hot_hits",
        why: "2,000 primed records, Zipf(1.0) draws: every request is a result-cache hit, so time is wire decode, event loop, queue hand-off and write",
        cache: 4096,
        store: false,
        retrain: false,
        mix: Mix::Zipf {
            primed: 2000,
            fresh_share: 0.0,
        },
        ref_rate: 4000.0,
        hi_rate: 5600.0,
        sat_ceiling: 0.0,
    },
    Spec {
        name: "cold_parse",
        why: "8,192 distinct records cycled through a 4,096-entry cache: every request misses and runs tokenize, score, Viterbi, level 2 and serialize on the one worker",
        cache: 4096,
        store: false,
        retrain: false,
        mix: Mix::Cycle { distinct: 8192 },
        ref_rate: 3200.0,
        hi_rate: 5000.0,
        sat_ceiling: 0.0,
    },
    Spec {
        name: "disk_tier",
        why: "4,096 primed records over a 512-entry cache with --store, 90 % Zipf draws and 10 % never-seen records: store reads run beside spills and the compactor",
        cache: 512,
        store: true,
        retrain: false,
        mix: Mix::Zipf {
            primed: 4096,
            fresh_share: 0.10,
        },
        ref_rate: 3600.0,
        hi_rate: 5000.0,
        sat_ceiling: 16_000.0,
    },
    Spec {
        name: "live_mix",
        why: "the daemon's fullest configuration (--store --retrain): 80 % Zipf hits and 20 % never-seen records share one worker and one event loop, misses go through the confidence path",
        cache: 4096,
        store: true,
        retrain: true,
        mix: Mix::Zipf {
            primed: 2000,
            fresh_share: 0.20,
        },
        ref_rate: 3200.0,
        hi_rate: 4500.0,
        sat_ceiling: 14_000.0,
    },
];

pub fn find(name: &str) -> Result<Spec, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .cloned()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?} (expected one of {})",
                names.join(", ")
            )
        })
}

impl Spec {
    /// The same shape on pools and caches an eighth the size, for
    /// `--smoke`.
    pub fn smoke(&self) -> Spec {
        let mut s = self.clone();
        match &mut s.mix {
            Mix::Zipf { primed, .. } => *primed /= 8,
            Mix::Cycle { distinct } => *distinct /= 8,
        }
        // hot_hits and live_mix keep the default cache: their pools fit
        // in it either way. disk_tier's shrinks by four, not eight: a
        // 64-entry LRU under 10 % single-use traffic drops below the 0.5
        // RAM hit share the workload asserts.
        match self.name {
            "cold_parse" => s.cache /= 8,
            "disk_tier" => s.cache /= 4,
            _ => {}
        }
        s
    }

    /// Records answered from cache or store once primed.
    pub fn primed(&self) -> usize {
        match self.mix {
            Mix::Zipf { primed, .. } => primed,
            Mix::Cycle { .. } => 0,
        }
    }

    pub fn fresh_share(&self) -> f64 {
        match self.mix {
            Mix::Zipf { fresh_share, .. } => fresh_share,
            Mix::Cycle { .. } => 0.0,
        }
    }

    /// `whoisml serve` arguments; `dir` holds the model and, per daemon
    /// instance `n`, the store and retrain directories.
    pub fn serve_args(&self, dir: &std::path::Path, n: usize) -> Vec<String> {
        let mut args = vec![
            "--model".to_string(),
            dir.join(format!("{MODEL_VERSION}.json"))
                .display()
                .to_string(),
            "--port".into(),
            "0".into(),
            "--workers".into(),
            "1".into(),
            "--cache".into(),
            self.cache.to_string(),
        ];
        if self.store {
            args.push("--store".into());
            args.push(dir.join(format!("store-{n}")).display().to_string());
        }
        if self.retrain {
            args.push("--retrain".into());
            args.push(dir.join(format!("retrain-{n}")).display().to_string());
        }
        args
    }

    /// Check from `STATS` deltas over the measured phases that the run
    /// exercised the path this workload exists for. `sent` and `fresh`
    /// are the generator's own counts over the same span. Returns one
    /// line per violated assertion.
    pub fn path_violations(
        &self,
        before: &StatsSnapshot,
        after: &StatsSnapshot,
        sent: u64,
        fresh: u64,
    ) -> Vec<String> {
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        let parses = after.parses - before.parses;
        let hit_share = hits as f64 / (hits + misses).max(1) as f64;
        let mut bad = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                bad.push(format!("{}: {what}", self.name));
            }
        };
        check(
            hits + misses == sent,
            format!(
                "daemon looked up {} requests, generator sent {sent}",
                hits + misses
            ),
        );
        match self.name {
            "hot_hits" => {
                check(
                    hit_share >= 0.99,
                    format!("cache hit share {hit_share:.4} < 0.99"),
                );
                check(
                    parses == 0,
                    format!("{parses} parses on an all-hit workload"),
                );
            }
            "cold_parse" => {
                check(
                    hit_share <= 0.01,
                    format!("cache hit share {hit_share:.4} > 0.01"),
                );
                check(
                    parses == sent,
                    format!("{parses} parses for {sent} requests"),
                );
            }
            "disk_tier" => {
                let disk_hits = after.store.disk_hits - before.store.disk_hits;
                let spills = after.store.spills - before.store.spills;
                check(
                    (0.5..=0.8).contains(&hit_share),
                    format!("RAM hit share {hit_share:.4} outside 0.5..0.8"),
                );
                check(disk_hits > 0, "no disk hits".into());
                check(spills > 0, "no spills".into());
                check(
                    parses == fresh,
                    format!("{parses} parses for {fresh} never-seen records"),
                );
            }
            "live_mix" => {
                check(after.retrain.enabled, "retrain loop is off".into());
                check(
                    after.retrain.attempts == 0,
                    format!("{} refits fired at zero drift", after.retrain.attempts),
                );
                check(
                    parses == fresh,
                    format!("{parses} parses for {fresh} never-seen records"),
                );
            }
            other => unreachable!("no path assertion for workload {other}"),
        }
        bad
    }
}

/// Train the model under test. Deterministic: same corpus, same bytes.
pub fn train(records: usize) -> WhoisParser {
    let docs = corpus(TRAIN_SEED, records);
    WhoisParser::train(
        &first_level_examples(&docs),
        &second_level_examples(&docs),
        &ParserConfig::default(),
    )
}

/// The records of one run and what the daemon must answer for each.
pub struct Pools {
    pub records: Vec<RawRecord>,
    pub corpus: Corpus,
    /// Seconds spent generating the records (`gen.corpus_s`).
    pub gen_s: f64,
    /// The paper's Fig. 2 quantities for the oracle's block labels
    /// against the generator's ground truth, over the first
    /// [`ACCURACY_SAMPLE`] records.
    pub line_err: f64,
    pub doc_err: f64,
}

fn request_line(raw: &RawRecord) -> Vec<u8> {
    let mut line = Request::Parse(ParseRequest {
        domain: raw.domain.clone(),
        text: raw.text.clone(),
    })
    .encode()
    .into_bytes();
    line.push(b'\n');
    line
}

/// An order of `sizes.len()` items in which every prefix spans the size
/// distribution: the k-th place goes to the item nearest the size
/// quantile `frac(0.5 + k/φ)` (a low-discrepancy sequence that starts at
/// the median) that is still free.
///
/// Under Zipf(1.0) the ten most popular of 2,000 records draw a third of
/// all requests. Ranked as generated, their sizes are ten random draws,
/// and the request size a seed happens to give them moved `sat_req_s`
/// and `lat_p50_us` by ±10 % between seeds; ranked in this order the
/// traffic's size mix is the pool's own on every seed.
fn stratified_by_size(sizes: &[usize]) -> Vec<usize> {
    let n = sizes.len();
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| (sizes[i], i));
    let mut taken = vec![false; n];
    (0..n)
        .map(|k| {
            let quantile = (0.5 + k as f64 * 0.618_033_988_749_895).fract();
            let mut at = ((quantile * n as f64) as usize).min(n - 1);
            while taken[at] {
                at = (at + 1) % n;
            }
            taken[at] = true;
            by_size[at]
        })
        .collect()
}

/// Generate `count` records from `seed` — the first `primed` of them, the
/// popular pool, ranked by [`stratified_by_size`] — and compute, off the
/// clock and with the exact f64 engine, the reply bytes the daemon owes
/// for each.
pub fn build_pools(parser: &WhoisParser, seed: u64, count: usize, primed: usize) -> Pools {
    let started = Instant::now();
    let mut domains: Vec<GeneratedDomain> = corpus(seed, count);
    let sizes: Vec<usize> = domains[..primed]
        .iter()
        .map(|d| d.rendered.text().len())
        .collect();
    let mut popular: Vec<Option<GeneratedDomain>> = domains.drain(..primed).map(Some).collect();
    let ranked: Vec<GeneratedDomain> = stratified_by_size(&sizes)
        .into_iter()
        .map(|i| {
            popular[i]
                .take()
                .expect("a permutation visits each index once")
        })
        .collect();
    domains.splice(0..0, ranked);
    let gen_s = started.elapsed().as_secs_f64();

    let (mut lines, mut bad_lines, mut bad_docs) = (0usize, 0usize, 0usize);
    let sample = &domains[..domains.len().min(ACCURACY_SAMPLE)];
    for d in sample {
        let gold = d.block_labels().labels();
        let got = parser.label_blocks(&d.rendered.text());
        let wrong =
            gold.iter().zip(&got).filter(|(a, b)| a != b).count() + gold.len().abs_diff(got.len());
        lines += gold.len();
        bad_lines += wrong;
        bad_docs += usize::from(wrong > 0);
    }

    let records: Vec<RawRecord> = domains.iter().map(|d| d.raw()).collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = records.len().div_ceil(threads).max(1);
    let mut expected: Vec<String> = Vec::with_capacity(records.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = records
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|raw| Reply::record(MODEL_VERSION, parser.parse(raw)).encode())
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        for w in workers {
            expected.extend(w.join().expect("oracle thread panicked"));
        }
    });

    Pools {
        corpus: Corpus {
            requests: records.iter().map(request_line).collect(),
            expected,
        },
        records,
        gen_s,
        line_err: bad_lines as f64 / lines.max(1) as f64,
        doc_err: bad_docs as f64 / sample.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_order_is_a_permutation_whose_prefixes_span_the_sizes() {
        let sizes: Vec<usize> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let order = stratified_by_size(&sizes);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        // Rank 1 is the median; the first ten already average near it.
        assert_eq!(sizes[order[0]], 500);
        let head: f64 = order[..10].iter().map(|&i| sizes[i] as f64).sum::<f64>() / 10.0;
        assert!((head - 500.0).abs() < 60.0, "mean of first ten: {head}");
        assert!(stratified_by_size(&[]).is_empty());
    }
}
