//! The traced run: per-layer numbers, all taken from outside.
//!
//! Three sources, one command:
//!
//! 1. **The wire.** One-connection closed-loop probes (`HEALTH` for the
//!    cost of a round trip that does no work, then the workload's own
//!    requests) and one open-loop `ref` phase whose `STATS` deltas are the
//!    `daemon.*` metrics.
//! 2. **An in-process replay** of the head of that `ref` schedule through
//!    the same public calls, in the same order, that the daemon's
//!    `ServiceCtx::parse_reply` makes, against state built the way
//!    `whoisml serve` builds it. Every call is a span; the spans go to
//!    `e2e/results/trace_<workload>.jsonl`. The same loop with spans off
//!    gives the path time and the tracing overhead.
//! 3. **Isolated probes** of each layer's public function over the
//!    workload's records, so a layer that is not on this workload's path
//!    still has a number.

use crate::run::{daemon_delta, metric, Metric, Plan, Session, STREAM_REF};
use crate::stats::{percentile_sorted, summarize_ns};
use crate::workload::{Pools, Spec, MODEL_VERSION};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use whois_model::RawRecord;
use whois_parser::{
    DecodeCounters, DecodeTier, FastParser, LineCache, ParseEngine, ParseScratch, WhoisParser,
    DEFAULT_BYPASS_FLOOR, DEFAULT_LINE_CACHE_CAPACITY, DEFAULT_LINE_CACHE_SHARDS,
    DEFAULT_MARGIN_GUARD,
};
use whois_serve::{
    cache_key, ModelRegistry, Reply, Request, RetrainConfig, RetrainHub, ServeClient, ShardedCache,
};
use whois_store::RecordStore;

/// Records each isolated probe runs over.
const PROBE_RECORDS: usize = 300;

/// One traced call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Request index within the replay.
    pub req: u32,
    pub name: &'static str,
    /// Index of the enclosing span in the span list, -1 for a root.
    pub parent: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory; off, it only forwards the calls.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as a span named `name` under the span now open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            name,
            parent: self.stack.last().map_or(-1, |&p| p as i32),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// A span's own time: its duration minus what its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent >= 0 {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per span name: count, p50 duration and p50 self time (µs), and the
/// share of all root time spent in that name's self time.
pub struct SpanSummary {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
    pub self_share: f64,
}

pub fn summarize_spans(spans: &[Span]) -> Vec<SpanSummary> {
    let own = self_times_ns(spans);
    let root_total: u64 = spans
        .iter()
        .filter(|s| s.parent < 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let idx: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].name == name)
                .collect();
            let mut durs: Vec<u64> = idx
                .iter()
                .map(|&i| spans[i].end_ns - spans[i].start_ns)
                .collect();
            let mut selfs: Vec<u64> = idx.iter().map(|&i| own[i]).collect();
            durs.sort_unstable();
            selfs.sort_unstable();
            SpanSummary {
                name,
                count: idx.len(),
                p50_us: percentile_sorted(&durs, 0.5) as f64 / 1e3,
                self_p50_us: percentile_sorted(&selfs, 0.5) as f64 / 1e3,
                self_share: selfs.iter().sum::<u64>() as f64 / root_total.max(1) as f64,
            }
        })
        .collect()
}

/// The daemon's serving state, rebuilt in process the way `whoisml serve`
/// and `ParseService::start` build it.
struct Replica {
    registry: ModelRegistry,
    cache: ShardedCache,
    store: Option<RecordStore>,
    retrain: Option<RetrainHub>,
}

impl Replica {
    fn new(spec: &Spec, parser: WhoisParser, dir: &Path) -> Result<Replica, String> {
        let line_cache = Arc::new(
            LineCache::new(DEFAULT_LINE_CACHE_CAPACITY, DEFAULT_LINE_CACHE_SHARDS)
                .with_bypass_floor(DEFAULT_BYPASS_FLOOR),
        );
        let registry =
            ModelRegistry::with_decode_tier(parser, MODEL_VERSION, 1, line_cache, DecodeTier::Fast);
        registry.current().engine.warm(1);
        let store = match spec.store {
            false => None,
            true => Some(
                RecordStore::open_for_model(dir.join("store"), MODEL_VERSION, 0, false)
                    .map_err(|e| format!("replica store: {e}"))?,
            ),
        };
        let retrain = match spec.retrain {
            false => None,
            true => Some(
                RetrainHub::open(&RetrainConfig::new(dir.join("retrain")))
                    .map_err(|e| format!("replica retrain hub: {e}"))?,
            ),
        };
        Ok(Replica {
            registry,
            cache: ShardedCache::new(spec.cache, 8),
            store,
            retrain,
        })
    }

    fn promote(
        &self,
        t: &mut Tracer,
        key: u64,
        body_key: u64,
        generation: u64,
        line: &Arc<String>,
    ) {
        let evicted = t.span("cache.insert", |_| match &self.store {
            None => {
                self.cache.insert(key, line.clone());
                None
            }
            Some(_) => self
                .cache
                .insert_with_spill(key, body_key, generation, line.clone()),
        });
        if let (Some((spill, spill_gen, value)), Some(store)) = (evicted, &self.store) {
            if spill_gen == generation {
                t.span("store.put", |_| {
                    let _ = store.put_parsed(spill, &value);
                });
            }
        }
    }

    /// One request line to one reply line: `Request::decode`, then the
    /// calls of `ServiceCtx::parse_reply` in its order.
    fn serve(&self, t: &mut Tracer, line: &str) -> Arc<String> {
        t.span("request", |t| {
            let request = t.span("wire.decode", |_| Request::decode(line));
            let Ok(Request::Parse(req)) = request else {
                panic!("replay line is not a PARSE request");
            };
            let model = self.registry.current();
            let key = t.span("key.hash", |_| {
                cache_key(model.generation, &req.domain, &req.text)
            });
            if let Some(hit) = t.span("cache.get", |_| self.cache.get(key)) {
                return hit;
            }
            let body_key = t.span("key.hash", |_| cache_key(0, &req.domain, &req.text));
            if let Some(store) = &self.store {
                if let Some(found) = t.span("store.get", |_| store.get_parsed(body_key)) {
                    let found = Arc::new(found);
                    self.promote(t, key, body_key, model.generation, &found);
                    return found;
                }
            }
            let raw = RawRecord::new(req.domain.as_str(), req.text.as_str());
            let record = match &self.retrain {
                None => t.span("engine.parse_one", |_| model.engine.parse_one(&raw)),
                Some(hub) => {
                    let (record, confidence) = t.span("engine.parse_one_confident", |_| {
                        model.engine.parse_one_confident(&raw)
                    });
                    t.span("retrain.observe", |_| {
                        hub.observe_parse(&req.domain, &req.text, confidence)
                    });
                    record
                }
            };
            let reply = t.span("wire.encode_reply", |_| {
                Arc::new(Reply::record(&model.version, record).encode())
            });
            self.promote(t, key, body_key, model.generation, &reply);
            reply
        })
    }
}

/// What one replay of `lines` measured.
struct Replay {
    spans: Vec<Span>,
    per_request_ns: Vec<u64>,
    total_ns: u64,
}

/// Build a fresh replica, prime it like the daemon was primed, then serve
/// `lines` one by one, checking every reply against the oracle.
fn replay(
    spec: &Spec,
    parser: &WhoisParser,
    lines: &[(&str, &str)],
    primed: &[&str],
    dir: &Path,
    spans_on: bool,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let replica = Replica::new(spec, parser.clone(), dir)?;
    let mut quiet = Tracer::new(false);
    for line in primed {
        replica.serve(&mut quiet, line);
    }
    let mut tracer = Tracer::new(spans_on);
    let mut per_request_ns = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for (i, (line, expected)) in lines.iter().enumerate() {
        tracer.req = i as u32;
        let t = Instant::now();
        let reply = replica.serve(&mut tracer, line);
        per_request_ns.push(t.elapsed().as_nanos() as u64);
        if reply.as_str() != *expected {
            return Err(format!(
                "replay request {i}: in-process reply differs from the oracle"
            ));
        }
    }
    Ok(Replay {
        total_ns: started.elapsed().as_nanos() as u64,
        spans: tracer.spans,
        per_request_ns,
    })
}

/// p50 of `f` over `items`, µs per call, after one untimed pass.
fn probe_us<I, T>(items: &[I], mut f: impl FnMut(&I) -> T) -> f64 {
    for item in items {
        black_box(f(black_box(item)));
    }
    let mut ns: Vec<u64> = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            black_box(f(black_box(item)));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    percentile_sorted(&ns, 0.5) as f64 / 1e3
}

/// Every layer's public function, timed alone over the workload's first
/// [`PROBE_RECORDS`] records.
fn isolated_probes(
    spec: &Spec,
    pools: &Pools,
    parser: &WhoisParser,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let n = pools.records.len().min(PROBE_RECORDS);
    let records = &pools.records[..n];
    let expected = &pools.corpus.expected[..n];
    let lines: Vec<&str> = pools.corpus.requests[..n]
        .iter()
        .map(|r| request_str(r))
        .collect();
    let parsed: Vec<_> = records.iter().map(|r| parser.parse(r)).collect();
    let keys: Vec<u64> = records
        .iter()
        .map(|r| cache_key(1, &r.domain, &r.text))
        .collect();
    let values: Vec<Arc<String>> = expected.iter().map(|e| Arc::new(e.clone())).collect();
    let indices: Vec<usize> = (0..n).collect();

    let fast = FastParser::compile(parser)
        .ok_or("the model's feature options are outside the fast tier's envelope")?;
    let counters = DecodeCounters::new();
    let mut scratch = ParseScratch::new();
    let line_cache = LineCache::new(DEFAULT_LINE_CACHE_CAPACITY, DEFAULT_LINE_CACHE_SHARDS);
    let engine = |workers: usize| {
        let cache = Arc::new(
            LineCache::new(DEFAULT_LINE_CACHE_CAPACITY, DEFAULT_LINE_CACHE_SHARDS)
                .with_bypass_floor(DEFAULT_BYPASS_FLOOR),
        );
        ParseEngine::with_decode_tier(
            parser.clone(),
            workers,
            cache,
            DecodeTier::Fast,
            Arc::new(DecodeCounters::new()),
        )
    };
    let one = engine(1);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // Distinct records, and ten times as many as the other probes take: a
    // 20 ms batch is over before the scheduler has moved the second worker
    // thread off the core it was spawned on.
    let many = &pools.records[..pools.records.len().min(10 * PROBE_RECORDS)];
    // Best of three: about one multi-worker batch in three runs with both
    // threads on one core from start to finish and reads as one worker.
    let batch = |workers: usize| {
        (0..3)
            .map(|_| {
                engine(workers)
                    .parse_batch_with_stats(many)
                    .1
                    .records_per_sec()
            })
            .fold(0.0, f64::max)
    };

    let cache = ShardedCache::new(spec.cache.max(n), 8);
    let store_dir = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = RecordStore::open_for_model(&store_dir, MODEL_VERSION, 0, false)
        .map_err(|e| format!("probe store: {e}"))?;

    let mut out = vec![
        metric(
            "wire.decode_us",
            probe_us(&lines, |l| Request::decode(l)),
            "us",
        ),
        metric(
            "wire.encode_reply_us",
            probe_us(&parsed, |p| {
                Reply::record(MODEL_VERSION, p.clone()).encode()
            }),
            "us",
        ),
        metric(
            "client.decode_us",
            probe_us(expected, |e| Reply::decode(e)),
            "us",
        ),
        metric(
            "key.hash_us",
            probe_us(records, |r| cache_key(1, &r.domain, &r.text)),
            "us",
        ),
        metric(
            "cache.insert_us",
            probe_us(&indices, |&i| cache.insert(keys[i], values[i].clone())),
            "us",
        ),
        metric("cache.get_us", probe_us(&keys, |&k| cache.get(k)), "us"),
        metric(
            "store.put_us",
            probe_us(&indices, |&i| store.put_parsed(keys[i], &values[i])),
            "us",
        ),
        metric(
            "store.get_us",
            probe_us(&keys, |&k| store.get_parsed(k)),
            "us",
        ),
    ];
    let stored = store.stats();
    out.push(metric(
        "store.bytes_per_entry",
        stored.live_bytes as f64 / stored.parsed_entries.max(1) as f64,
        "B",
    ));
    out.extend([
        metric(
            "engine.parse_one_us",
            probe_us(records, |r| one.parse_one(r)),
            "us",
        ),
        metric(
            "engine.parse_confident_us",
            probe_us(records, |r| one.parse_one_confident(r)),
            "us",
        ),
        metric("engine.batch_rec_s", batch(1), "1/s"),
        metric("engine.batch_rec_s_wn", batch(cores), "1/s"),
        metric(
            "fast.parse_us",
            probe_us(records, |r| {
                parser.parse_fast(r, &mut scratch, &fast, DEFAULT_MARGIN_GUARD, &counters)
            }),
            "us",
        ),
        metric(
            "line_cache.parse_us",
            probe_us(records, |r| {
                parser.parse_cached(r, &mut scratch, &line_cache, 1)
            }),
            "us",
        ),
        metric(
            "exact.parse_us",
            probe_us(records, |r| parser.parse(r)),
            "us",
        ),
        metric(
            "tokenize.annotate_us",
            probe_us(records, |r| whois_tokenize::annotate_record(&r.text)),
            "us",
        ),
    ]);
    Ok(out)
}

/// A pre-encoded request without its newline.
fn request_str(request: &[u8]) -> &str {
    std::str::from_utf8(&request[..request.len() - 1]).expect("requests are JSON text")
}

/// One-connection closed-loop round trips through the repo's own
/// blocking client: `lines` in order, each reply checked by `check`.
/// Returns the p50 in µs.
fn round_trips<'a>(
    client: &mut ServeClient,
    lines: impl Iterator<Item = (&'a str, Option<&'a str>)>,
    what: &str,
) -> Result<f64, String> {
    let mut ns = Vec::new();
    for (line, expected) in lines {
        let t = Instant::now();
        let reply = client
            .request_line(line)
            .map_err(|e| format!("probe {what}: {e}"))?;
        ns.push(t.elapsed().as_nanos() as u64);
        let ok = match expected {
            Some(e) => reply == e,
            None => reply.starts_with("{\"ok\":true"),
        };
        if !ok {
            return Err(format!("probe {what}: wrong reply: {:.120}", reply));
        }
    }
    Ok(summarize_ns(&ns).p50)
}

/// What the traced run produced.
pub struct TraceReport {
    pub spec: Spec,
    pub daemon_command: String,
    /// Every per-layer metric, by name.
    pub per_layer: Vec<Metric>,
    pub spans: Vec<Span>,
    pub span_summary: Vec<SpanSummary>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl TraceReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

pub fn traced_run(spec: &Spec, plan: &Plan, seed: u64, bin: &Path) -> Result<TraceReport, String> {
    let mut s = Session::set_up(spec, plan, seed, bin)?;
    let warm = s.warm_up(plan.warm_s)?;

    // The wire, one connection, closed loop.
    let mut client =
        ServeClient::connect(s.daemon.addr).map_err(|e| format!("probe connect: {e}"))?;
    let rtt_null = round_trips(
        &mut client,
        (0..plan.probe_requests).map(|_| ("HEALTH", None)),
        "HEALTH",
    )?;
    let s0 = s.daemon.stats()?;
    let fresh0 = s.sampler.fresh_used();
    let mut probe_recs = Vec::with_capacity(plan.probe_requests);
    for _ in 0..plan.probe_requests {
        let rec = s.sampler.next();
        probe_recs.push(rec.map_err(|_| "probe: single-use records ran out")? as usize);
    }
    let rtt1 = round_trips(
        &mut client,
        probe_recs.iter().map(|&r| {
            (
                request_str(&s.pools.corpus.requests[r]),
                Some(s.pools.corpus.expected[r].as_str()),
            )
        }),
        "PARSE",
    )?;
    drop(client);

    // The wire, open loop at the ref rate, for the daemon's own counters.
    let schedule = s.schedule(STREAM_REF, spec.ref_rate, plan.ref_s)?;
    let s1 = s.daemon.stats()?;
    let reference = s.open_phase("ref", &schedule, spec.ref_rate, plan.ref_s)?;
    let s2 = s.daemon.stats()?;
    let sent = probe_recs.len() as u64 + reference.sent;
    let fresh = (s.sampler.fresh_used() - fresh0) as u64;
    let violations = spec.path_violations(&s0, &s2, sent, fresh);

    // The daemon is done; everything below runs in this process.
    let Session {
        daemon,
        gen,
        pools,
        parser,
        setup,
        prime,
        tmp,
        ..
    } = s;
    let daemon_command = daemon.command.clone();
    drop(gen);
    drop(daemon);

    // The same requests through the same calls, spans off then on.
    let corpus = &pools.corpus;
    let head = &schedule[..schedule.len().min(plan.replay_requests)];
    let lines: Vec<(&str, &str)> = head
        .iter()
        .map(|&(_, r)| {
            (
                request_str(&corpus.requests[r as usize]),
                corpus.expected[r as usize].as_str(),
            )
        })
        .collect();
    let primed: Vec<&str> = corpus.requests[..spec.primed()]
        .iter()
        .map(|r| request_str(r))
        .collect();
    let replica_dir = tmp.path().join("replica");
    let plain = replay(spec, &parser, &lines, &primed, &replica_dir, false)?;
    let traced = replay(spec, &parser, &lines, &primed, &replica_dir, true)?;
    let path_us = summarize_ns(&plain.per_request_ns).p50;

    let mut req_bytes: Vec<u64> = head
        .iter()
        .map(|&(_, r)| corpus.requests[r as usize].len() as u64)
        .collect();
    let mut reply_bytes: Vec<u64> = head
        .iter()
        .map(|&(_, r)| corpus.expected[r as usize].len() as u64 + 1)
        .collect();
    req_bytes.sort_unstable();
    reply_bytes.sort_unstable();
    let mut lag = reference.lag_ns.clone();
    lag.sort_unstable();

    let mut per_layer = isolated_probes(spec, &pools, &parser, tmp.path())?;
    per_layer.extend([
        metric(
            "wire.req_bytes_p50",
            percentile_sorted(&req_bytes, 0.5) as f64,
            "B",
        ),
        metric(
            "wire.req_bytes_p90",
            percentile_sorted(&req_bytes, 0.9) as f64,
            "B",
        ),
        metric(
            "wire.reply_bytes_p50",
            percentile_sorted(&reply_bytes, 0.5) as f64,
            "B",
        ),
        metric("net.rtt_null_us", rtt_null, "us"),
        metric("net.rtt1_us", rtt1, "us"),
    ]);
    per_layer.extend(daemon_delta(&s1, &s2));
    per_layer.extend([
        metric("model.train_s", setup.train_s, "s"),
        metric("model.bytes", setup.model_bytes as f64, "B"),
        metric("model.load_s", setup.load_s, "s"),
        metric("gen.corpus_s", setup.gen_corpus_s, "s"),
        metric("gen.sent", reference.sent as f64, "count"),
        metric("gen.ok", reference.ok as f64, "count"),
        metric("gen.failed", reference.failures.total() as f64, "count"),
        metric(
            "gen.lag_p99_us",
            percentile_sorted(&lag, 0.99) as f64 / 1e3,
            "us",
        ),
        metric("gen.late_share", reference.late_share(), "ratio"),
        metric("budget.path_us", path_us, "us"),
        metric("budget.unattributed_us", rtt1 - rtt_null - path_us, "us"),
        metric(
            "trace.overhead_share",
            traced.total_ns as f64 / plain.total_ns.max(1) as f64 - 1.0,
            "ratio",
        ),
    ]);

    Ok(TraceReport {
        spec: spec.clone(),
        daemon_command,
        span_summary: summarize_spans(&traced.spans),
        spans: traced.spans,
        per_layer,
        attempted: prime.sent + warm.sent + sent,
        failed: prime.failures.total() + warm.failures.total() + reference.failures.total(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: i32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 0,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // request 0..100 { decode 5..30, parse 40..90 { score 50..70 } }
        let spans = [
            span("request", -1, 0, 100),
            span("decode", 0, 5, 30),
            span("parse", 0, 40, 90),
            span("score", 2, 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), [25, 25, 30, 20]);
        // Self times of one request add back up to its root.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let summary = summarize_spans(&spans);
        let parse = summary.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!((parse.count, parse.self_share), (1, 0.30));
    }

    #[test]
    fn tracer_nests_spans_and_costs_nothing_when_off() {
        let mut t = Tracer::new(true);
        t.req = 7;
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!((t.spans[0].name, t.spans[0].parent), ("outer", -1));
        assert_eq!(
            (t.spans[1].name, t.spans[1].parent, t.spans[1].req),
            ("inner", 0, 7)
        );
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 1)), 1);
        assert!(off.spans.is_empty());
    }
}
