//! Result files (one shared header), the printed report, and `compare`.

use crate::load::PhaseResult;
use crate::run::{windowed_p99_us, Metric, Plan, TimedReport, LIMIT_P99_US, MAX_LATE_SHARE};
use crate::stats::{percentile_sorted, summarize_ns};
use crate::trace::{Span, TraceReport};
use crate::workload::{TRAIN_SEED, WORKLOADS};
use serde_json::Value;
use std::path::Path;

/// How far an end-to-end metric may move before `compare` calls it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the base value.
    Rel(f64),
    /// Absolute amount.
    Abs(f64),
    /// Any move at all.
    Any,
}

pub struct E2eSpec {
    pub name: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
    /// Whether `BENCHMARK.json` declares it: the contract admits only
    /// metrics that are never zero, with a relative bound of at most 0.25.
    pub in_contract: bool,
}

const fn e2e(
    name: &'static str,
    higher_is_better: bool,
    bound: Bound,
    in_contract: bool,
) -> E2eSpec {
    E2eSpec {
        name,
        higher_is_better,
        bound,
        in_contract,
    }
}

/// The issue's end-to-end table; `BENCHMARK.json` repeats the
/// `in_contract` rows with the same bounds.
pub const E2E: [E2eSpec; 10] = [
    e2e("setup_s", false, Bound::Rel(0.25), true),
    e2e("sat_req_s", true, Bound::Rel(0.12), true),
    e2e("lat_p50_us", false, Bound::Rel(0.10), true),
    e2e("lat_p99_us", false, Bound::Rel(0.25), true),
    e2e("max_rate_ok", true, Bound::Any, false),
    e2e("fail_share", false, Bound::Abs(0.001), false),
    e2e("line_err", false, Bound::Any, false),
    e2e("doc_err", false, Bound::Any, false),
    e2e("line_acc_pct", true, Bound::Rel(0.015), true),
    e2e("rss_peak_mb", false, Bound::Rel(0.25), true),
];

pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

pub fn text(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", num(m.value)), ("unit", text(m.unit))]),
                )
            })
            .collect(),
    )
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every file under `e2e/results/` starts with.
/// `daemon_commands` is `(workload, command line)` for each daemon run.
pub fn header(seed: u64, seconds: f64, plan: &Plan, daemon_commands: &[(String, String)]) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let spec = if plan.smoke { w.smoke() } else { w.clone() };
            let command = daemon_commands
                .iter()
                .find(|(name, _)| name == w.name)
                .map_or("(not run)", |(_, c)| c.as_str());
            (
                w.name.to_string(),
                obj(vec![
                    ("why", text(w.why)),
                    ("daemon_command", text(command)),
                    ("ref_rate", num(spec.ref_rate)),
                    ("hi_rate", num(spec.hi_rate)),
                    ("cache", int(spec.cache as u64)),
                    ("primed_records", int(spec.primed() as u64)),
                    ("fresh_share", num(spec.fresh_share())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("benchmark", text("e2e")),
        ("git_sha", text(&git_sha())),
        ("kernel", text(whois_bench::kernel_level_name())),
        ("nproc", int(nproc as u64)),
        ("connections", int(nproc.min(2) as u64)),
        ("seed", int(seed)),
        ("train_seed", int(TRAIN_SEED)),
        ("train_records", int(plan.train_records as u64)),
        ("seconds", num(seconds)),
        (
            "phase_seconds",
            obj(vec![
                ("warm", num(plan.warm_s)),
                ("sat", num(plan.sat_s)),
                ("ref", num(plan.ref_s)),
                ("hi", num(plan.hi_s)),
            ]),
        ),
        ("setups_per_run", int(plan.setups as u64)),
        ("limit_p99_us", num(LIMIT_P99_US)),
        ("smoke", Value::Bool(plan.smoke)),
        (
            "cut_for_time",
            Value::Array(
                [
                    "no `lo` phase: two open-loop rates, ref and hi",
                    "phases are sat S/4, ref S/2, hi S/4 of --seconds S, not 10 s each",
                    "model trained on 40 records, not 300 (load time is quadratic in model size)",
                    "warm-up 1 s, not 3 s, and not part of setup_s",
                ]
                .iter()
                .map(|s| text(s))
                .collect(),
            ),
        ),
        ("workloads", Value::Object(workloads)),
    ])
}

fn phase_value(p: &PhaseResult) -> Value {
    let lat = summarize_ns(&p.latencies_ns());
    let mut lag = p.lag_ns.clone();
    lag.sort_unstable();
    obj(vec![
        ("name", text(&p.name)),
        ("loop", text(if p.rate > 0.0 { "open" } else { "closed" })),
        ("offered_req_s", num(p.rate)),
        ("seconds", num(p.secs)),
        ("sent", int(p.sent)),
        ("ok", int(p.ok)),
        ("replies_per_s", num(p.replies_per_s())),
        (
            "failed",
            obj(vec![
                ("mismatch", int(p.failures.mismatch)),
                ("refused", int(p.failures.refused)),
                ("shed", int(p.failures.shed)),
                ("missing", int(p.failures.missing)),
            ]),
        ),
        (
            "latency_us",
            obj(vec![
                ("n", int(lat.n as u64)),
                ("p50", num(lat.p50)),
                ("p90", num(lat.p90)),
                ("p99", num(lat.p99)),
                ("p999", num(lat.p999)),
                ("max", num(lat.max)),
                ("windowed_p99", num(windowed_p99_us(p))),
            ]),
        ),
        (
            "gen_lag_p50_us",
            num(percentile_sorted(&lag, 0.5) as f64 / 1e3),
        ),
        (
            "gen_lag_p99_us",
            num(percentile_sorted(&lag, 0.99) as f64 / 1e3),
        ),
        ("gen_late_share", num(p.late_share())),
        ("unresolved", Value::Bool(p.late_share() > MAX_LATE_SHARE)),
        ("inflight_mid", int(p.inflight_mid as u64)),
        ("inflight_end", int(p.inflight_end as u64)),
    ])
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| text(s)).collect())
}

/// One workload's section of the result file.
pub fn workload_value(timed: &TimedReport, traced: Option<&TraceReport>) -> Value {
    let mut pairs = vec![
        ("daemon_threads_placed", strings(&timed.placement)),
        ("e2e", metrics_value(&timed.e2e)),
        ("unresolved", strings(&timed.unresolved)),
        ("path_violations", strings(&timed.violations)),
        ("attempted", int(timed.attempted)),
        ("failed", int(timed.failures.total())),
        (
            "setup",
            obj(vec![
                ("gen_corpus_s", num(timed.setup.gen_corpus_s)),
                ("train_s", num(timed.setup.train_s)),
                ("load_s", num(timed.setup.load_s)),
                ("prime_s", num(timed.setup.prime_s)),
                ("setup_s", num(timed.setup.setup_s)),
                ("model_bytes", int(timed.setup.model_bytes as u64)),
            ]),
        ),
        (
            "phases",
            Value::Array(timed.phases.iter().map(phase_value).collect()),
        ),
        ("daemon_ref", metrics_value(&timed.daemon_ref)),
    ];
    if let Some(t) = traced {
        pairs.push(("per_layer", metrics_value(&t.per_layer)));
        pairs.push((
            "spans",
            Value::Object(
                t.span_summary
                    .iter()
                    .map(|s| {
                        (
                            s.name.to_string(),
                            obj(vec![
                                ("count", int(s.count as u64)),
                                ("p50_us", num(s.p50_us)),
                                ("self_p50_us", num(s.self_p50_us)),
                                ("self_share", num(s.self_share)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        pairs.push(("trace_path_violations", strings(&t.violations)));
    }
    obj(pairs)
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let body = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The span file: the header on line one, then one span per line.
pub fn write_spans(path: &Path, header: &Value, spans: &[Span]) -> Result<(), String> {
    use std::fmt::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut body =
        serde_json::to_string(&obj(vec![("header", header.clone())])).map_err(|e| e.to_string())?;
    body.push('\n');
    for s in spans {
        let _ = writeln!(
            body,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.req, s.name, s.parent, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every metric by name with its unit, one per line.
pub fn print_metrics(prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{prefix}{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

pub fn print_timed(r: &TimedReport) {
    println!("== {} (seed {}) ==", r.spec.name, r.seed);
    println!("daemon: {}", r.daemon_command);
    println!(
        "placed: generator -> lowest cpu; {}",
        r.placement.join("; ")
    );
    for p in &r.phases {
        let lat = summarize_ns(&p.latencies_ns());
        println!(
            "phase {:<5} offered {:>6.0}/s sent {:>6} ok {:>6} failed {} | p50 {:>8.1} p90 {:>8.1} p99 {:>8.1} p999 {:>8.1} max {:>9.1} windowed-p99 {:>8.1} us | late {:.4} backlog {}->{}{}",
            p.name,
            p.rate,
            p.sent,
            p.ok,
            p.failures.total(),
            lat.p50,
            lat.p90,
            lat.p99,
            lat.p999,
            lat.max,
            windowed_p99_us(p),
            p.late_share(),
            p.inflight_mid,
            p.inflight_end,
            if p.late_share() > MAX_LATE_SHARE { " UNRESOLVED (generator late)" } else { "" },
        );
    }
    print_metrics("", &r.e2e);
    print_metrics("ref: ", &r.daemon_ref);
    for m in &r.unresolved {
        println!("unresolved: {m} (generator ran late in its phase)");
    }
    for v in &r.violations {
        println!("PATH ASSERTION FAILED: {v}");
    }
}

/// The contract's last line of standard output.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted.max(1))),
        ("failed", int(failed)),
        ("metrics", metrics_value(metrics)),
    ]))
    .expect("a value tree serializes")
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judge `b` against base `a` under `spec`'s bound.
pub fn judge(spec: &E2eSpec, a: f64, b: f64) -> Verdict {
    let worse_by = if spec.higher_is_better { a - b } else { b - a };
    let slack = match spec.bound {
        Bound::Rel(r) => r * a.abs(),
        Bound::Abs(x) => x,
        Bound::Any => 0.0,
    };
    if worse_by > slack {
        Verdict::Worse
    } else if worse_by < -slack {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn e2e_value(file: &Value, workload: &str, name: &str) -> Option<f64> {
    file["workloads"][workload]["e2e"][name]["value"].as_f64()
}

fn is_unresolved(file: &Value, workload: &str, name: &str) -> bool {
    file["workloads"][workload]["unresolved"]
        .as_array()
        .is_some_and(|u| u.iter().any(|m| m.as_str() == Some(name)))
}

/// One row per workload × end-to-end metric: both values, the ratio with
/// its base, the verdict. With `same_code` the two files are two sets of
/// runs of one build, so a difference beyond the bound is noise the
/// benchmark failed to resolve, not a change. Returns the rows and how
/// many were `worse`.
pub fn compare(a: &Value, b: &Value, same_code: bool) -> (Vec<String>, usize) {
    let mut rows = vec![format!(
        "{:<11} {:<13} {:>14} {:>14} {:>18}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)"
    )];
    let mut worse = 0;
    for w in &WORKLOADS {
        for spec in &E2E {
            let (Some(va), Some(vb)) = (
                e2e_value(a, w.name, spec.name),
                e2e_value(b, w.name, spec.name),
            ) else {
                continue;
            };
            let mut verdict = judge(spec, va, vb);
            let late = is_unresolved(a, w.name, spec.name) || is_unresolved(b, w.name, spec.name);
            if late || (same_code && verdict != Verdict::Unchanged) {
                verdict = Verdict::Unresolved;
            }
            worse += usize::from(verdict == Verdict::Worse);
            let ratio = if va == 0.0 {
                "n/a (base 0)".to_string()
            } else {
                format!("{:.4} (base {:.4})", vb / va, va)
            };
            rows.push(format!(
                "{:<11} {:<13} {:>14.4} {:>14.4} {:>18}  {}",
                w.name,
                spec.name,
                va,
                vb,
                ratio,
                format!("{verdict:?}").to_lowercase()
            ));
        }
    }
    (rows, worse)
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static E2eSpec {
        E2E.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // sat_req_s: higher is better, 12 % of the base.
        assert_eq!(judge(spec("sat_req_s"), 1000.0, 950.0), Verdict::Unchanged);
        assert_eq!(judge(spec("sat_req_s"), 1000.0, 870.0), Verdict::Worse);
        assert_eq!(judge(spec("sat_req_s"), 1000.0, 1200.0), Verdict::Better);
        // lat_p50_us: lower is better.
        assert_eq!(judge(spec("lat_p50_us"), 200.0, 230.0), Verdict::Worse);
        assert_eq!(judge(spec("lat_p50_us"), 200.0, 170.0), Verdict::Better);
        // Absolute and any-move bounds, including a zero base.
        assert_eq!(judge(spec("fail_share"), 0.0, 0.0005), Verdict::Unchanged);
        assert_eq!(judge(spec("fail_share"), 0.0, 0.002), Verdict::Worse);
        assert_eq!(judge(spec("max_rate_ok"), 7000.0, 5000.0), Verdict::Worse);
        assert_eq!(judge(spec("max_rate_ok"), 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(spec("doc_err"), 0.0, 0.001), Verdict::Worse);
    }

    fn file(sat: f64, unresolved: &[&str]) -> Value {
        let e2e = obj(vec![("sat_req_s", obj(vec![("value", num(sat))]))]);
        let w = obj(vec![
            ("e2e", e2e),
            (
                "unresolved",
                Value::Array(unresolved.iter().map(|s| text(s)).collect()),
            ),
        ]);
        obj(vec![("workloads", obj(vec![("hot_hits", w)]))])
    }

    #[test]
    fn compare_counts_worse_and_downgrades_noise_to_unresolved() {
        let (rows, worse) = compare(&file(1000.0, &[]), &file(800.0, &[]), false);
        assert_eq!(worse, 1);
        assert!(rows[1].contains("0.8000 (base 1000.0000)") && rows[1].ends_with("worse"));
        // Two sets of one build: the same gap is unresolved noise.
        let (rows, worse) = compare(&file(1000.0, &[]), &file(800.0, &[]), true);
        assert_eq!(worse, 0);
        assert!(rows[1].ends_with("unresolved"));
        // A late generator makes the metric unresolved whatever it reads.
        let (rows, _) = compare(&file(1000.0, &["sat_req_s"]), &file(1000.0, &[]), false);
        assert!(rows[1].ends_with("unresolved"));
    }
}
