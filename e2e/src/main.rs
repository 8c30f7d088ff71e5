//! `e2e`: the wire-level benchmark. Open-loop load against a separately
//! spawned `whoisml serve --workers 1`, four declared workloads, every
//! reply checked byte for byte against the exact f64 oracle, and a
//! per-layer budget traced from outside. See `e2e/README.md`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, for the driver
//! e2e all [--seed n] [--seconds s] [--sets 2] [--smoke] [--out file.json]
//! e2e trace <workload> [--seed n] [--seconds s]
//! e2e compare <a.json> <b.json>
//! ```
//!
//! Run from the repository root.

mod affinity;
mod daemon;
mod load;
mod report;
mod run;
mod sched;
mod stats;
mod trace;
mod workload;

use report::{compare, contract_line, header, print_metrics, print_timed, workload_value, E2E};
use run::{timed_run, Metric, Plan, TimedReport};
use std::path::{Path, PathBuf};
use trace::{traced_run, TraceReport};
use workload::WORKLOADS;

const RESULTS_DIR: &str = "e2e/results";
const DEFAULT_SECONDS: f64 = 12.0;
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].strip_prefix("--") {
                Some(key) => {
                    let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
                    i += 1 + usize::from(value.is_some());
                    flags
                        .pairs
                        .push((key.to_string(), value.cloned().unwrap_or_default()));
                }
                None => {
                    flags.positional.push(args[i].clone());
                    i += 1;
                }
            }
        }
        flags
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }
}

fn trace_path(workload: &str) -> PathBuf {
    Path::new(RESULTS_DIR).join(format!("trace_{workload}.jsonl"))
}

fn print_traced(t: &TraceReport) {
    println!("== {} (traced) ==", t.spec.name);
    println!("daemon: {}", t.daemon_command);
    print_metrics("", &t.per_layer);
    println!(
        "{:<28} {:>7} {:>10} {:>12} {:>10}",
        "span", "count", "p50 us", "self p50 us", "self share"
    );
    for s in &t.span_summary {
        println!(
            "{:<28} {:>7} {:>10.2} {:>12.2} {:>10.4}",
            s.name, s.count, s.p50_us, s.self_p50_us, s.self_share
        );
    }
    for v in &t.violations {
        println!("PATH ASSERTION FAILED: {v}");
    }
}

/// The driver's entry point: one workload, one run, one JSON line.
fn contract(flags: &Flags) -> Result<(), String> {
    let name: String = flags.get("workload", String::new())?;
    let spec = workload::find(&name)?;
    let seed: u64 = flags.get("seed", 1)?;
    let seconds: f64 = flags.get("seconds", DEFAULT_SECONDS)?;
    let traced: u8 = flags.get("trace", 0)?;
    let bin = daemon::build_whoisml()?;
    let line = if traced == 0 {
        let report = timed_run(&spec, &Plan::timed(seconds, false), seed, &bin)?;
        print_timed(&report);
        let declared = |m: &&Metric| E2E.iter().any(|s| s.in_contract && s.name == m.name);
        let metrics: Vec<Metric> = report.e2e.iter().filter(declared).cloned().collect();
        contract_line(
            report.correct(),
            report.attempted,
            report.failures.total(),
            &metrics,
        )
    } else {
        let report = trace_workload(&spec, seed, seconds, &bin)?;
        contract_line(
            report.correct(),
            report.attempted,
            report.failed,
            &report.per_layer,
        )
    };
    println!("{line}");
    Ok(())
}

/// Every workload, timed then traced, into one result file. Returns
/// whether every reply and every path assertion held.
fn run_set(seed: u64, seconds: f64, smoke: bool, out: Option<&Path>) -> Result<bool, String> {
    let bin = daemon::build_whoisml()?;
    let plan = Plan::timed(seconds, smoke);
    let mut reports: Vec<(TimedReport, Option<TraceReport>)> = Vec::new();
    for w in &WORKLOADS {
        let spec = if smoke { w.smoke() } else { w.clone() };
        let timed = timed_run(&spec, &plan, seed, &bin)?;
        print_timed(&timed);
        // The smoke pass is the correctness and validity hook; the
        // per-layer numbers are not part of it.
        let traced = match smoke {
            true => None,
            false => Some(trace_workload(&spec, seed, seconds, &bin)?),
        };
        reports.push((timed, traced));
    }
    let commands: Vec<(String, String)> = reports
        .iter()
        .map(|(t, _)| (t.spec.name.to_string(), t.daemon_command.clone()))
        .collect();
    let head = header(seed, seconds, &plan, &commands);
    let mut all_correct = true;
    let mut sections = Vec::new();
    for (timed, traced) in &reports {
        all_correct &= timed.correct();
        all_correct &= traced.as_ref().is_none_or(TraceReport::correct);
        sections.push((timed.spec.name, workload_value(timed, traced.as_ref())));
    }
    if let Some(path) = out {
        let file = report::obj(vec![("header", head), ("workloads", report::obj(sections))]);
        report::write_json(path, &file)?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

fn all(flags: &Flags) -> Result<(), String> {
    let seed: u64 = flags.get("seed", 1)?;
    let smoke = flags.has("smoke");
    let seconds: f64 = flags.get("seconds", if smoke { 2.0 } else { DEFAULT_SECONDS })?;
    let sets: usize = flags.get("sets", 1)?;
    let default_out = Path::new(RESULTS_DIR).join("BENCH_e2e.json");
    let out: PathBuf = flags.get("out", default_out)?;
    // A smoke pass only writes a file when asked to: it must not replace
    // the committed baseline with 1-s phases.
    let first_out = (!smoke || flags.has("out")).then_some(out.as_path());
    let mut correct = run_set(seed, seconds, smoke, first_out)?;
    if sets >= 2 {
        let second = out.with_extension("set2.json");
        correct &= run_set(seed, seconds, smoke, Some(&second))?;
        let (rows, _) = compare(
            &report::read_json(&out)?,
            &report::read_json(&second)?,
            true,
        );
        println!("== two sets of one build ==");
        for row in &rows {
            println!("{row}");
        }
    }
    match correct {
        true => Ok(()),
        false => Err("a reply or a path assertion failed (see above)".into()),
    }
}

/// One traced run: print every per-layer metric, write the span file.
fn trace_workload(
    spec: &workload::Spec,
    seed: u64,
    seconds: f64,
    bin: &Path,
) -> Result<TraceReport, String> {
    let plan = Plan::traced(seconds);
    let report = traced_run(spec, &plan, seed, bin)?;
    print_traced(&report);
    let commands = [(spec.name.to_string(), report.daemon_command.clone())];
    let path = trace_path(spec.name);
    report::write_spans(
        &path,
        &header(seed, seconds, &plan, &commands),
        &report.spans,
    )?;
    println!("wrote {} ({} spans)", path.display(), report.spans.len());
    Ok(report)
}

fn trace_one(flags: &Flags) -> Result<(), String> {
    let name = flags
        .positional
        .get(1)
        .ok_or("usage: e2e trace <workload> [--seed n] [--seconds s]")?;
    let report = trace_workload(
        &workload::find(name)?,
        flags.get("seed", 1)?,
        flags.get("seconds", DEFAULT_SECONDS)?,
        &daemon::build_whoisml()?,
    )?;
    match report.correct() {
        true => Ok(()),
        false => Err("a reply or a path assertion failed (see above)".into()),
    }
}

fn compare_files(flags: &Flags) -> Result<(), String> {
    let (Some(a), Some(b)) = (flags.positional.get(1), flags.positional.get(2)) else {
        return Err("usage: e2e compare <a.json> <b.json>".into());
    };
    let (rows, worse) = compare(
        &report::read_json(Path::new(a))?,
        &report::read_json(Path::new(b))?,
        false,
    );
    for row in &rows {
        println!("{row}");
    }
    match worse {
        0 => Ok(()),
        n => Err(format!("{n} metric(s) worse than {a} beyond the bound")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args);
    let result = match flags.positional.first().map(String::as_str) {
        None if flags.has("workload") => contract(&flags),
        Some("all") => all(&flags),
        Some("trace") => trace_one(&flags),
        Some("compare") => compare_files(&flags),
        _ => Err(
            "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                  e2e all [--seed n] [--seconds s] [--sets 2] [--smoke] [--out file.json]\n       \
                  e2e trace <workload> [--seed n] [--seconds s]\n       \
                  e2e compare <a.json> <b.json>"
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
