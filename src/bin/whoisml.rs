//! The `whoisml` command-line tool.
//!
//! ```text
//! whoisml gen         --count 500 --seed 7 --out corpus.jsonl
//! whoisml train       --corpus corpus.jsonl --out model.json
//! whoisml parse       --model model.json --domain example.com [--input record.txt]
//! whoisml parse-batch --model model.json --input records.jsonl [--workers N] [--out parsed.jsonl]
//! whoisml label       --model model.json [--input record.txt]
//! whoisml inspect     --model model.json
//! whoisml serve       --model model.json [--model-dir models/ --poll-ms 1000]
//!                     [--port P] [--workers N] [--cache N] [--queue N]
//!                     [--upstream host:port] [--timeout MS]
//!                     [--conns-per-ip N]
//!                     [--decode-tier fast|exact]
//!                     [--retrain dir/ [--retrain-window N] [--retrain-threshold F]
//!                      [--retrain-interval-ms MS] [--retrain-golden N] [--retrain-seed S]]
//! whoisml query       --addr 127.0.0.1:PORT [--timeout MS]
//!                     (--domain d [--input record.txt] | --stats 1 | --health 1 | --retrain 1)
//! whoisml retrain     status --addr 127.0.0.1:PORT [--timeout MS]
//! ```
//!
//! * `gen` writes a labeled JSONL corpus (one [`CorpusLine`] per record)
//!   from the calibrated synthetic generator — the starting point when
//!   you have no hand-labeled data yet.
//! * `train` fits the two-level CRF parser on a JSONL corpus and saves
//!   the model as JSON.
//! * `parse` reads one raw WHOIS record (stdin or `--input`) and prints
//!   the structured parse as JSON.
//! * `parse-batch` streams a JSONL file of raw records (objects with
//!   `domain` and `text` fields — a `gen` corpus works as-is) through the
//!   parallel [`ParseEngine`](whoisml::parser::ParseEngine), writing one
//!   `ParsedRecord` JSON per line and a throughput report to stderr.
//! * `label` prints one `label<TAB>confidence<TAB>line` row per record
//!   line — the triage view for finding records worth labeling.
//! * `inspect` dumps the model's heaviest features (Table 1 / Figure 1).
//! * `serve` runs the long-lived parse daemon (`whois-serve`): sharded
//!   result cache, bounded admission queue, and — with `--model-dir` —
//!   hot reload of new model versions dropped into the directory.
//!   Every connection is multiplexed through one epoll event-loop
//!   thread (thread-per-connection where epoll is unavailable).
//!   `--conns-per-ip N` caps concurrent connections per source IP at
//!   accept time.
//!   `--decode-tier` picks the engine for records that miss the result
//!   cache (and the store): `fast` (default) decodes every one on the
//!   compiled pruned/quantized tier with an exact re-decode under the
//!   margin guard, `exact` uses the f64 reference engine, memoized per
//!   line; output is byte-identical either way.
//!   `--retrain dir/` switches on the closed continual-learning loop:
//!   per-record confidence feeds a drift monitor, sustained
//!   low-confidence records queue crash-safely under `dir/`, and a
//!   background loop relabels them with the rule/template baselines,
//!   refits from the incumbent's weights, gates the candidate on a
//!   synthetic golden set (`--retrain-golden N` records from seed
//!   `--retrain-seed`), hot-swaps survivors, and rolls back if
//!   post-swap confidence collapses.
//! * `query` is the matching client: `--domain` alone issues a `FETCH`
//!   through the server's upstream WHOIS, `--domain` plus `--input`
//!   sends the record body for a `PARSE`, `--stats 1` prints serving
//!   statistics (including the `retrain` section), `--health 1` prints
//!   the liveness snapshot, `--retrain 1` prints the drift/retrain
//!   snapshot alone.
//! * `retrain status` asks a running daemon for the same snapshot the
//!   `RETRAIN` verb returns (`enabled: false` on a loop-less server).
//!
//! Both `serve` and `query` take `--timeout MS`: for `query` it bounds
//! connect/read/write on the client socket; for `serve` it is the
//! per-connection read timeout and the upstream WHOIS client's
//! connect/read timeout.

use serde::{Deserialize, Serialize};
use std::io::Read;
use whoisml::gen::corpus::{generate_corpus, GenConfig};
use whoisml::model::{BlockLabel, Label, RawRecord, RegistrantLabel};
use whoisml::parser::{inspect, ParseEngine, ParserConfig, TrainExample, WhoisParser};

/// One labeled record in the JSONL corpus format.
#[derive(Serialize, Deserialize)]
struct CorpusLine {
    /// The domain the record describes.
    domain: String,
    /// Verbatim record text (blank lines included).
    text: String,
    /// First-level labels, one per non-empty line.
    labels: Vec<BlockLabel>,
    /// The registrant block's lines joined by `\n` (absent when the
    /// record has no registrant block).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    registrant_text: Option<String>,
    /// Second-level labels for the registrant block.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    registrant_labels: Option<Vec<RegistrantLabel>>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "gen" => cmd_gen(&flags),
        "train" => cmd_train(&flags),
        "parse" => cmd_parse(&flags),
        "parse-batch" => cmd_parse_batch(&flags),
        "label" => cmd_label(&flags),
        "inspect" => cmd_inspect(&flags),
        "serve" => cmd_serve(&flags),
        "query" => cmd_query(&flags),
        "store" => cmd_store(&args[1..], &flags),
        "retrain" => cmd_retrain(&args[1..], &flags),
        "--help" | "-h" | "help" => usage_and_exit(),
        other => Err(format!("unknown command: {other}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "whoisml — statistical WHOIS parsing (IMC 2015 reproduction)\n\n\
         usage:\n\
         \x20 whoisml gen         --count N [--seed S] [--drift F] --out corpus.jsonl\n\
         \x20 whoisml train       --corpus corpus.jsonl --out model.json\n\
         \x20 whoisml parse       --model model.json --domain example.com [--input record.txt]\n\
         \x20 whoisml parse-batch --model model.json --input records.jsonl [--workers N] [--out parsed.jsonl]\n\
         \x20 whoisml label       --model model.json [--input record.txt]\n\
         \x20 whoisml inspect     --model model.json [--topk K]\n\
         \x20 whoisml serve       --model model.json [--model-dir models/ --poll-ms 1000]\n\
         \x20                     [--port P] [--workers N] [--cache N] [--queue N]\n\
         \x20                     [--upstream host:port] [--timeout MS]\n\
         \x20                     [--conns-per-ip N]\n\
         \x20                     [--decode-tier fast|exact]\n\
         \x20                     [--store dir/ [--store-cap BYTES]]\n\
         \x20                     [--retrain dir/ [--retrain-window N] [--retrain-threshold F]\n\
         \x20                      [--retrain-interval-ms MS] [--retrain-golden N] [--retrain-seed S]]\n\
         \x20 whoisml query       --addr 127.0.0.1:PORT [--timeout MS]\n\
         \x20                     (--domain d [--input record.txt] | --stats 1 | --health 1 | --retrain 1)\n\
         \x20 whoisml retrain     status --addr 127.0.0.1:PORT [--timeout MS]\n\
         \x20 whoisml store       stat|verify|compact --dir store/ [--cap BYTES]"
    );
    std::process::exit(2);
}

/// Minimal `--key value` flag parser.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(k) = args[i].strip_prefix("--") {
                // A following `--token` is the next flag, not this one's
                // value: a bare flag parses with an empty value
                // instead of swallowing its neighbor.
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        pairs.push((k.to_string(), v.clone()));
                        i += 2;
                    }
                    _ => {
                        pairs.push((k.to_string(), String::new()));
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        Flags(pairs)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let count: usize = flags.get_or("count", 500);
    let seed: u64 = flags.get_or("seed", 42);
    let drift: f64 = flags.get_or("drift", 0.0);
    let out = flags.require("out")?;
    let corpus = generate_corpus(GenConfig {
        drift_fraction: drift,
        ..GenConfig::new(seed, count)
    });
    let mut body = String::new();
    for d in &corpus {
        let reg = d.registrant_labels();
        let line = CorpusLine {
            domain: d.facts.domain.clone(),
            text: d.rendered.text(),
            labels: d.block_labels().labels(),
            registrant_text: (!reg.is_empty()).then(|| reg.texts().join("\n")),
            registrant_labels: (!reg.is_empty()).then(|| reg.labels()),
        };
        body.push_str(&serde_json::to_string(&line).map_err(|e| e.to_string())?);
        body.push('\n');
    }
    std::fs::write(out, body).map_err(|e| e.to_string())?;
    eprintln!("wrote {count} labeled records to {out}");
    Ok(())
}

fn read_corpus(path: &str) -> Result<Vec<CorpusLine>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad corpus line: {e}")))
        .collect()
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let corpus_path = flags.require("corpus")?;
    let out = flags.require("out")?;
    let records = read_corpus(corpus_path)?;
    if records.is_empty() {
        return Err("corpus is empty".into());
    }
    let first: Vec<TrainExample<BlockLabel>> = records
        .iter()
        .map(|r| TrainExample {
            text: r.text.clone(),
            labels: r.labels.clone(),
        })
        .collect();
    let second: Vec<TrainExample<RegistrantLabel>> = records
        .iter()
        .filter_map(|r| {
            Some(TrainExample {
                text: r.registrant_text.clone()?,
                labels: r.registrant_labels.clone()?,
            })
        })
        .collect();
    if second.is_empty() {
        return Err("corpus has no registrant blocks for the second level".into());
    }
    eprintln!(
        "training on {} records ({} registrant blocks)...",
        first.len(),
        second.len()
    );
    let parser = WhoisParser::train(&first, &second, &ParserConfig::default());
    std::fs::write(out, parser.to_json().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    eprintln!("model written to {out}");
    Ok(())
}

fn load_model(flags: &Flags) -> Result<WhoisParser, String> {
    let path = flags.require("model")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    WhoisParser::from_json(&json).map_err(|e| e.to_string())
}

fn read_record_text(flags: &Flags) -> Result<String, String> {
    match flags.get("input") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| e.to_string())?;
            Ok(buf)
        }
    }
}

fn cmd_parse(flags: &Flags) -> Result<(), String> {
    let parser = load_model(flags)?;
    let domain = flags.get("domain").unwrap_or("unknown.invalid");
    let text = read_record_text(flags)?;
    let parsed = parser.parse(&RawRecord::new(domain, text));
    println!(
        "{}",
        serde_json::to_string_pretty(&parsed).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// One raw record in the `parse-batch` JSONL input. Extra fields (e.g.
/// the labels in a `gen` corpus) are ignored.
#[derive(Deserialize)]
struct BatchLine {
    domain: String,
    text: String,
}

fn cmd_parse_batch(flags: &Flags) -> Result<(), String> {
    let parser = load_model(flags)?;
    let input = flags.require("input")?;
    let workers: usize = flags.get_or("workers", 0); // 0 = all cores
    let body = std::fs::read_to_string(input).map_err(|e| format!("{input}: {e}"))?;
    let records: Vec<RawRecord> = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str::<BatchLine>(l)
                .map(|r| RawRecord::new(r.domain, r.text))
                .map_err(|e| format!("bad input line: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err("input has no records".into());
    }

    let engine = ParseEngine::with_workers(parser, workers);
    let (parsed, stats) = engine.parse_batch_with_stats(&records);

    let mut out = String::new();
    for p in &parsed {
        out.push_str(&serde_json::to_string(p).map_err(|e| e.to_string())?);
        out.push('\n');
    }
    match flags.get("out") {
        Some(path) => std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{out}"),
    }
    eprintln!(
        "parsed {} records in {:.2}s with {} workers ({:.0} records/s); \
         {} lines labeled, {} registrant blocks",
        stats.records,
        stats.elapsed.as_secs_f64(),
        stats.workers,
        stats.records_per_sec(),
        stats.lines_labeled,
        stats.registrant_blocks
    );
    Ok(())
}

fn cmd_label(flags: &Flags) -> Result<(), String> {
    let parser = load_model(flags)?;
    let text = read_record_text(flags)?;
    let scored = parser.first_level().predict_with_confidence(&text);
    for (line, (label, confidence)) in whoisml::model::non_empty_lines(&text).iter().zip(&scored) {
        println!("{}\t{:.3}\t{}", label.name(), confidence, line);
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use whoisml::serve::{ModelRegistry, ModelWatcher, ParseService, ServeConfig, UpstreamConfig};

    let model_dir = flags.get("model-dir").map(std::path::PathBuf::from);
    // Initial model: --model wins; otherwise the newest file in --model-dir.
    let model_path = match (flags.get("model"), &model_dir) {
        (Some(path), _) => std::path::PathBuf::from(path),
        (None, Some(dir)) => whoisml::serve::newest_model_file(dir)
            .ok_or_else(|| format!("no *.json model in {}", dir.display()))?,
        (None, None) => return Err("--model or --model-dir is required".into()),
    };
    let json = std::fs::read_to_string(&model_path)
        .map_err(|e| format!("{}: {e}", model_path.display()))?;
    let parser = WhoisParser::from_json(&json).map_err(|e| e.to_string())?;
    let version = model_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "model".into());

    // --decode-tier picks the engine for records the result cache and
    // the store miss: the compiled fast tier (default; byte-identical,
    // low-margin records re-decode exactly) or the f64 exact engine,
    // which memoizes lines in the line cache below. The fast tier never
    // touches that cache, and an untouched cache holds no memory.
    let decode_tier = match flags.get("decode-tier") {
        None | Some("fast") => whoisml::parser::DecodeTier::Fast,
        Some("exact") => whoisml::parser::DecodeTier::Exact,
        Some(other) => {
            return Err(format!("bad --decode-tier {other} (expected fast|exact)"));
        }
    };
    let registry = std::sync::Arc::new(ModelRegistry::with_decode_tier(
        parser,
        version,
        1,
        std::sync::Arc::new(
            whoisml::parser::LineCache::with_default_capacity()
                .with_bypass_floor(whoisml::parser::DEFAULT_BYPASS_FLOOR),
        ),
        decode_tier,
    ));
    let watcher = model_dir.map(|dir| {
        let poll_ms: u64 = flags.get_or("poll-ms", 1000);
        ModelWatcher::start(
            registry.clone(),
            dir,
            std::time::Duration::from_millis(poll_ms.max(1)),
        )
    });

    // --timeout MS bounds both the per-connection read timeout and the
    // upstream WHOIS client (a wedged registrar must not pin a worker).
    let timeout = flags
        .get("timeout")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|e| format!("bad --timeout {v}: {e}"))
                .map(std::time::Duration::from_millis)
        })
        .transpose()?;
    let upstream = match flags.get("upstream") {
        Some(addr) => {
            let mut client = whoisml::net::WhoisClient::default();
            if let Some(t) = timeout {
                client.connect_timeout = t;
                client.read_timeout = t;
            }
            Some(UpstreamConfig {
                registry: addr
                    .parse()
                    .map_err(|e| format!("bad --upstream address {addr}: {e}"))?,
                resolver: std::collections::HashMap::new(),
                client,
            })
        }
        None => None,
    };
    let max_conns_per_ip = flags
        .get("conns-per-ip")
        .map(|v| {
            v.parse::<u32>()
                .map_err(|e| format!("bad --conns-per-ip {v}: {e}"))
        })
        .transpose()?;
    // --store enables the disk tier under the LRU: evictions spill down,
    // misses fill up, and a restart reopens the segments warm.
    let store = flags
        .get("store")
        .map(|dir| {
            let mut tier = whoisml::serve::StoreTierConfig::new(dir);
            if let Some(cap) = flags.get("store-cap") {
                tier.cap_bytes = cap
                    .parse::<u64>()
                    .map_err(|e| format!("bad --store-cap {cap}: {e}"))?;
            }
            Ok::<_, String>(tier)
        })
        .transpose()?;
    let store_enabled = store.is_some();
    // --retrain enables the closed continual-learning loop. The gate's
    // golden set and the labeler cross-check templates come from the
    // calibrated synthetic generator, so the loop runs without any
    // hand-labeled data.
    let retrain_dir = match flags.get("retrain") {
        Some("") => return Err("--retrain needs a queue/quarantine directory".into()),
        other => other,
    };
    let retrain = retrain_dir.map(|dir| {
        let mut rc = whoisml::serve::RetrainConfig::new(dir);
        rc.window = flags.get_or("retrain-window", rc.window);
        rc.low_confidence = flags.get_or("retrain-threshold", rc.low_confidence);
        let interval_ms: u64 = flags.get_or("retrain-interval-ms", rc.interval.as_millis() as u64);
        rc.interval = std::time::Duration::from_millis(interval_ms.max(1));
        let golden_count: usize = flags.get_or("retrain-golden", 200);
        let golden_seed: u64 = flags.get_or("retrain-seed", 0x90_1d);
        let mut templates = whoisml::templates::TemplateParser::new();
        for d in &generate_corpus(GenConfig::new(golden_seed, golden_count)) {
            let text = d.rendered.text();
            let labels = d.block_labels().labels();
            let lines = whoisml::model::non_empty_lines(&text);
            templates.add_example(d.registrar.name, &lines, &labels);
            rc.golden_first.push(TrainExample { text, labels });
        }
        rc.templates = templates;
        rc
    });
    let retrain_enabled = retrain.is_some();
    let mut cfg = ServeConfig {
        max_conns_per_ip,
        workers: flags.get_or("workers", 0),
        queue_capacity: flags.get_or("queue", 64),
        cache_capacity: flags.get_or("cache", 4096),
        upstream,
        store,
        retrain,
        ..Default::default()
    };
    if let Some(t) = timeout {
        cfg.read_timeout = t;
    }
    let port: u16 = flags.get_or("port", 0);
    let service = ParseService::start(registry.clone(), cfg, port).map_err(|e| e.to_string())?;
    // The bound address goes to stdout so scripts (and the walkthrough
    // example) can discover an ephemeral port.
    println!("listening on {}", service.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    eprintln!(
        "whois-serve: model {} | {} workers | cache {} | queue {} | decode-tier {} | kernel {} | store {} | retrain {}",
        registry.current().version,
        service.stats().workers,
        flags.get_or::<usize>("cache", 4096),
        flags.get_or::<usize>("queue", 64),
        registry.decode_tier().name(),
        registry.kernel_level().name(),
        if store_enabled { "on" } else { "off" },
        if retrain_enabled { "on" } else { "off" },
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
        // Keep the watcher alive for the lifetime of the daemon.
        let _ = &watcher;
    }
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    use whoisml::serve::ServeClient;

    let addr: std::net::SocketAddr = flags
        .require("addr")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let timeout = match flags.get("timeout") {
        Some(v) => std::time::Duration::from_millis(
            v.parse::<u64>()
                .map_err(|e| format!("bad --timeout {v}: {e}"))?,
        ),
        None => whoisml::serve::DEFAULT_TIMEOUT,
    };
    let mut client = ServeClient::connect_timeout(addr, timeout).map_err(|e| e.to_string())?;
    if flags.get("health").is_some() {
        let health = client.health().map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&health).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if flags.get("stats").is_some() {
        let stats = client.stats().map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if flags.get("retrain").is_some() {
        let status = client.retrain_status().map_err(|e| e.to_string())?;
        println!(
            "{}",
            serde_json::to_string_pretty(&status).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let domain = flags.require("domain")?;
    let reply = if flags.get("input").is_some() {
        let text = read_record_text(flags)?;
        client.parse(domain, &text)
    } else {
        client.fetch(domain)
    }
    .map_err(|e| e.to_string())?;
    let record = reply.record.ok_or("reply carried no record")?;
    eprintln!("model: {}", reply.model.as_deref().unwrap_or("?"));
    println!(
        "{}",
        serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// `whoisml store stat|verify|compact --dir store/ [--cap BYTES]`:
/// offline inspection and maintenance of a record-store directory.
///
/// `stat` and `verify` open the store strictly read-only — they never
/// truncate, sweep, or rewrite anything in the directory — so they are
/// safe to run against a live daemon. `compact` opens for writing
/// under the store's single-writer lock (without touching the
/// persistent generation) and fails fast if a daemon holds the lock.
fn cmd_store(args: &[String], flags: &Flags) -> Result<(), String> {
    let action = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or("store needs an action: stat|verify|compact")?;
    let dir = std::path::PathBuf::from(flags.require("dir")?);
    match action {
        "stat" => {
            let store = whoisml::store::RecordStore::open_readonly(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            println!(
                "{}",
                serde_json::to_string_pretty(&store.stats()).map_err(|e| e.to_string())?
            );
        }
        "verify" => {
            let store = whoisml::store::RecordStore::open_readonly(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            let report = store.verify();
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
            if !report.ok() {
                return Err("store verification failed".into());
            }
        }
        "compact" => {
            let cap: u64 = flags.get_or("cap", 0);
            let store = whoisml::store::RecordStore::open_existing(&dir, cap, true)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            let report = store.compact().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        }
        other => {
            return Err(format!(
                "bad store action {other} (expected stat|verify|compact)"
            ))
        }
    }
    Ok(())
}

/// `whoisml retrain status --addr 127.0.0.1:PORT [--timeout MS]`: ask a
/// running daemon for its drift-monitor and retrain-loop snapshot (the
/// `RETRAIN` verb). A loop-less server answers with `enabled: false`.
fn cmd_retrain(args: &[String], flags: &Flags) -> Result<(), String> {
    use whoisml::serve::ServeClient;

    let action = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or("retrain needs an action: status")?;
    if action != "status" {
        return Err(format!("bad retrain action {action} (expected status)"));
    }
    let addr: std::net::SocketAddr = flags
        .require("addr")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let timeout = match flags.get("timeout") {
        Some(v) => std::time::Duration::from_millis(
            v.parse::<u64>()
                .map_err(|e| format!("bad --timeout {v}: {e}"))?,
        ),
        None => whoisml::serve::DEFAULT_TIMEOUT,
    };
    let mut client = ServeClient::connect_timeout(addr, timeout).map_err(|e| e.to_string())?;
    let status = client.retrain_status().map_err(|e| e.to_string())?;
    println!(
        "{}",
        serde_json::to_string_pretty(&status).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let parser = load_model(flags)?;
    let topk: usize = flags.get_or("topk", 8);
    println!("== heaviest emission features per label (Table 1) ==");
    print!(
        "{}",
        inspect::render_emission_table(parser.first_level(), topk)
    );
    println!("\n== transition-detecting features (Figure 1) ==");
    print!(
        "{}",
        inspect::render_transition_graph(parser.first_level(), 3)
    );
    Ok(())
}
