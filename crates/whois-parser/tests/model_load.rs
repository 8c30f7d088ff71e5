//! Model load is linear in the model file.
//!
//! A model is a few megabytes of JSON whose dictionaries are thousands
//! of short strings. When the codec re-validated the rest of the file
//! once per character, load time grew with the square of the file: a
//! 300-record model (9 MB) took 28.6 s, paid again by every hot swap.
//! The budget here is one the quadratic reader misses by more than an
//! order of magnitude and the linear one meets in a debug build.

use std::time::{Duration, Instant};
use whois_crf::lbfgs::LbfgsConfig;
use whois_crf::TrainerKind;
use whois_gen::corpus::{generate_corpus, GenConfig};
use whois_model::{BlockLabel, RegistrantLabel};
use whois_parser::{ParserConfig, TrainConfig, TrainExample, WhoisParser};

#[test]
fn a_model_trained_on_300_records_loads_in_under_a_second() {
    let corpus = generate_corpus(GenConfig::new(13, 300));
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
    // The file's size comes from the dictionaries, which are fixed by
    // the records before the first step; the weights need not be good.
    let config = ParserConfig {
        train: TrainConfig {
            kind: TrainerKind::Lbfgs(LbfgsConfig {
                max_iters: 2,
                ..LbfgsConfig::default()
            }),
            ..TrainConfig::default()
        },
        ..ParserConfig::default()
    };
    let parser = WhoisParser::train(&first, &second, &config);
    let json = parser.to_json().unwrap();
    assert!(json.len() > 4 << 20, "model is only {} bytes", json.len());

    let start = Instant::now();
    let loaded = WhoisParser::from_json(&json).unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "{} byte model took {took:?}",
        json.len()
    );

    // What was loaded is what was written: same bytes out, same parses.
    assert_eq!(loaded.to_json().unwrap(), json);
    for doc in corpus.iter().take(20) {
        assert_eq!(loaded.parse(&doc.raw()), parser.parse(&doc.raw()));
    }
}
