//! One workload against one daemon: set-up, the measured phases, the
//! path assertions and the end-to-end metrics.

use crate::daemon::{Daemon, TempDir};
use crate::load::{Failures, LoadGen, PhaseResult};
use crate::sched::{poisson_arrivals, FreshExhausted, Rng, Sampler};
use crate::stats::{median, summarize_ns, windowed_p99};
use crate::workload::{self, Pools, Spec, MODEL_VERSION};
use std::path::Path;
use std::time::{Duration, Instant};
use whois_parser::WhoisParser;
use whois_serve::StatsSnapshot;

/// `max_rate_ok`'s latency limit, on a phase's windowed p99: a single
/// 25 ms compactor stall puts the whole-phase p99 of a 6-s phase over any
/// limit worth setting, and would decide the verdict by its timing.
pub const LIMIT_P99_US: f64 = 2500.0;
/// A backlog is "growing" when more than this many extra requests are
/// outstanding at the end of a phase than at half time; two single
/// instants at ~3 outstanding each would otherwise flip the verdict.
pub const BACKLOG_SLACK: usize = 16;
/// A phase whose generator dispatched more than this share of sends over
/// 1 ms late measured the generator, not the daemon.
pub const MAX_LATE_SHARE: f64 = 0.01;
/// Independent random streams within one run (see [`Rng::fork`]).
pub const STREAM_REF: u64 = 1;
const STREAM_HI: u64 = 2;
const STREAM_POOL: u64 = 3;
const STREAM_MIX: u64 = 4;
const SPAWN_DEADLINE: Duration = Duration::from_secs(120);
/// `lat_p99_us` windows: at 3,200 requests/s a half-second window still
/// has 16 samples beyond its p99, and `ref` holds twice as many windows
/// to take the median over as with whole seconds.
const WINDOW_NS: u64 = 500_000_000;

/// Median over half-second windows of each window's p99, µs.
pub fn windowed_p99_us(p: &PhaseResult) -> f64 {
    windowed_p99(&p.samples, WINDOW_NS) / 1e3
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Phase lengths and sizes of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub warm_s: f64,
    pub sat_s: f64,
    pub ref_s: f64,
    pub hi_s: f64,
    /// Full set-ups performed; `setup_s` is their median.
    pub setups: usize,
    pub train_records: usize,
    /// One-connection wire probe length (traced run only).
    pub probe_requests: usize,
    /// Requests replayed in process (traced run only).
    pub replay_requests: usize,
    pub smoke: bool,
}

impl Plan {
    /// The timed run: `sat` for a quarter of `seconds`, `ref` for half,
    /// `hi` for a quarter. The issue's `lo` step and 10 s phases do not
    /// fit the contract's ~34 s per run.
    pub fn timed(seconds: f64, smoke: bool) -> Plan {
        Plan {
            warm_s: if smoke { 0.3 } else { 1.0 },
            sat_s: seconds / 4.0,
            ref_s: seconds / 2.0,
            hi_s: seconds / 4.0,
            setups: if smoke { 1 } else { 3 },
            train_records: if smoke {
                workload::TRAIN_RECORDS_SMOKE
            } else {
                workload::TRAIN_RECORDS
            },
            probe_requests: 0,
            replay_requests: 0,
            smoke,
        }
    }

    /// The traced run: one `ref` phase for the `STATS` deltas, the
    /// one-connection probes, then the in-process replay.
    pub fn traced(seconds: f64) -> Plan {
        Plan {
            sat_s: 0.0,
            ref_s: seconds / 2.0,
            hi_s: 0.0,
            setups: 1,
            probe_requests: 2000,
            replay_requests: 4000,
            ..Plan::timed(seconds, false)
        }
    }

    /// Records to generate: the popular pool plus enough single-use
    /// records for every phase at the workload's ceiling rate.
    fn records_needed(&self, spec: &Spec) -> usize {
        let requests = spec.sat_ceiling * (self.warm_s + self.sat_s)
            + spec.ref_rate * self.ref_s
            + spec.hi_rate * self.hi_s
            + self.probe_requests as f64;
        match spec.mix {
            crate::sched::Mix::Cycle { distinct } => distinct,
            crate::sched::Mix::Zipf {
                primed,
                fresh_share,
            } => primed + (fresh_share * requests * 1.1).ceil() as usize + 64,
        }
    }
}

/// What set-up cost, seconds unless noted.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// Record generation (once).
    pub gen_corpus_s: f64,
    /// Medians over the repeated set-ups.
    pub train_s: f64,
    pub load_s: f64,
    pub prime_s: f64,
    /// `gen_corpus_s` + median of (train + spawn-to-listening + prime).
    pub setup_s: f64,
    pub model_bytes: usize,
}

/// A primed daemon with its generator, records and request sampler.
pub struct Session {
    pub spec: Spec,
    pub daemon: Daemon,
    pub gen: LoadGen,
    pub pools: Pools,
    pub sampler: Sampler,
    pub parser: WhoisParser,
    pub setup: SetupTimes,
    pub prime: PhaseResult,
    pub rng: Rng,
    pub tmp: TempDir,
    /// CPUs this process may use, read before the generator pinned itself.
    cpus: Vec<usize>,
    /// `thread -> cpu` for every daemon thread given a CPU of its own.
    pub placement: Vec<String>,
}

fn conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

impl Session {
    /// Set-up: train, write the model, spawn `whoisml serve`, wait for
    /// `listening on`, prime — `plan.setups` times over, keeping the last
    /// daemon. Records and their expected replies are built once, off the
    /// set-up clock (generation time is added back in).
    pub fn set_up(spec: &Spec, plan: &Plan, seed: u64, bin: &Path) -> Result<Session, String> {
        let tmp = TempDir::new(spec.name)?;
        let cpus = crate::affinity::allowed_cpus();
        let model_path = tmp.path().join(format!("{MODEL_VERSION}.json"));
        let index = workload::WORKLOADS
            .iter()
            .position(|w| w.name == spec.name)
            .unwrap_or(0) as u64;
        let rng = Rng::new(seed).fork(index + 1);

        let mut first_json: Option<String> = None;
        let mut pools: Option<Pools> = None;
        let mut kept: Option<(Daemon, LoadGen, PhaseResult, WhoisParser)> = None;
        let (mut trains, mut loads, mut primes, mut totals) = (vec![], vec![], vec![], vec![]);
        for n in 0..plan.setups {
            drop(kept.take());
            let t = Instant::now();
            let parser = workload::train(plan.train_records);
            let json = parser
                .to_json()
                .map_err(|e| format!("model to_json: {e}"))?;
            std::fs::write(&model_path, &json)
                .map_err(|e| format!("{}: {e}", model_path.display()))?;
            let train_s = t.elapsed().as_secs_f64();
            match &first_json {
                None => first_json = Some(json),
                Some(first) if *first != json => {
                    return Err(
                        "training is not deterministic: two fits of one corpus differ".into(),
                    )
                }
                Some(_) => {}
            }
            let pools = pools.get_or_insert_with(|| {
                let pool_seed = rng.fork(STREAM_POOL).next_u64();
                workload::build_pools(&parser, pool_seed, plan.records_needed(spec), spec.primed())
            });

            let daemon = Daemon::spawn(
                bin,
                &spec.serve_args(tmp.path(), n),
                &tmp.path().join(format!("daemon-{n}.stderr")),
                SPAWN_DEADLINE,
            )?;
            let t = Instant::now();
            let mut gen = LoadGen::connect(daemon.addr, conns())?;
            let mut recs = 0..spec.primed() as u32;
            let prime = gen.closed(
                "prime",
                &pools.corpus,
                &mut || recs.next(),
                Duration::from_secs(120),
            )?;
            let prime_s = t.elapsed().as_secs_f64();
            trains.push(train_s);
            loads.push(daemon.load_s);
            primes.push(prime_s);
            totals.push(train_s + daemon.load_s + prime_s);
            kept = Some((daemon, gen, prime, parser));
        }
        let (daemon, gen, prime, parser) = kept.ok_or("plan.setups must be at least 1")?;
        let pools = pools.expect("built in the first set-up");
        let setup = SetupTimes {
            gen_corpus_s: pools.gen_s,
            train_s: median(&trains),
            load_s: median(&loads),
            prime_s: median(&primes),
            setup_s: pools.gen_s + median(&totals),
            model_bytes: first_json.map_or(0, |j| j.len()),
        };
        let sampler = Sampler::new(spec.mix, pools.records.len(), rng.fork(STREAM_MIX));
        Ok(Session {
            spec: spec.clone(),
            daemon,
            gen,
            pools,
            sampler,
            parser,
            setup,
            prime,
            rng,
            tmp,
            cpus,
            placement: Vec::new(),
        })
    }

    /// The single-use records ran out in `phase`.
    fn ran_out(&self, phase: &str) -> String {
        format!(
            "phase {phase}: single-use records ran out: the daemon beat {} req/s, the ceiling \
             {}'s pool is sized for (raise sat_ceiling in workload.rs)",
            self.spec.sat_ceiling, self.spec.name
        )
    }

    /// The discarded warm-up: closed loop, after which the daemon threads
    /// it kept busiest get a CPU each (see [`crate::affinity`]).
    pub fn warm_up(&mut self, secs: f64) -> Result<PhaseResult, String> {
        let before = self.daemon.thread_ticks()?;
        let warm = self.closed_phase("warm", secs)?;
        self.placement = self.daemon.place_busy_threads(&before, &self.cpus)?;
        Ok(warm)
    }

    /// Closed loop for `secs`, drawing from the workload's mix on the
    /// clock.
    pub fn closed_phase(&mut self, name: &str, secs: f64) -> Result<PhaseResult, String> {
        let mut exhausted = false;
        let sampler = &mut self.sampler;
        let mut source = || {
            let rec = sampler.next();
            exhausted |= rec.is_err();
            rec.ok()
        };
        let out = self.gen.closed(
            name,
            &self.pools.corpus,
            &mut source,
            Duration::from_secs_f64(secs),
        )?;
        match exhausted {
            true => Err(self.ran_out(name)),
            false => Ok(out),
        }
    }

    /// The `(due offset, record)` schedule of an open-loop phase: seeded
    /// Poisson arrivals, records from the workload's mix.
    pub fn schedule(&mut self, tag: u64, rate: f64, secs: f64) -> Result<Vec<(u64, u32)>, String> {
        poisson_arrivals(&mut self.rng.fork(tag), rate, secs)
            .into_iter()
            .map(|due| match self.sampler.next() {
                Ok(rec) => Ok((due, rec)),
                Err(FreshExhausted) => Err(self.ran_out("schedule")),
            })
            .collect()
    }

    pub fn open_phase(
        &mut self,
        name: &str,
        schedule: &[(u64, u32)],
        rate: f64,
        secs: f64,
    ) -> Result<PhaseResult, String> {
        self.gen
            .open(name, &self.pools.corpus, schedule, rate, secs)
    }
}

/// `after - before` of the daemon's own counters, as `daemon.*` metrics
/// (means and counts, as `STATS` exposes them).
pub fn daemon_delta(before: &StatsSnapshot, after: &StatsSnapshot) -> Vec<Metric> {
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mean_us = |b: &whois_serve::StageSnapshot, a: &whois_serve::StageSnapshot| {
        share(a.total_us - b.total_us, a.count - b.count)
    };
    let (b, a) = (before, after);
    let hits = a.cache_hits - b.cache_hits;
    let misses = a.cache_misses - b.cache_misses;
    let disk_hits = a.store.disk_hits - b.store.disk_hits;
    let disk_misses = a.store.disk_misses - b.store.disk_misses;
    let parses = a.parses - b.parses;
    let line_hits = (a.line_cache.l1_hits + a.line_cache.l2_hits)
        - (b.line_cache.l1_hits + b.line_cache.l2_hits);
    let line_misses = a.line_cache.misses - b.line_cache.misses;
    let fast = a.decode.fast_decodes - b.decode.fast_decodes;
    let fallbacks = a.decode.exact_fallbacks - b.decode.exact_fallbacks;
    vec![
        metric(
            "daemon.queue_wait_us",
            mean_us(&b.queue_wait, &a.queue_wait),
            "us",
        ),
        metric("daemon.sheds", (a.sheds - b.sheds) as f64, "count"),
        metric(
            "daemon.cache_hit_share",
            share(hits, hits + misses),
            "ratio",
        ),
        metric(
            "daemon.cache_lookup_us",
            mean_us(&b.cache_lookup, &a.cache_lookup),
            "us",
        ),
        metric(
            "daemon.disk_hit_share",
            share(disk_hits, disk_hits + disk_misses),
            "ratio",
        ),
        metric(
            "daemon.spills",
            (a.store.spills - b.store.spills) as f64,
            "count",
        ),
        metric(
            "daemon.compactions",
            (a.store.compactions - b.store.compactions) as f64,
            "count",
        ),
        metric("daemon.parse_us", mean_us(&b.parse, &a.parse), "us"),
        metric(
            "daemon.serialize_us",
            mean_us(&b.serialize, &a.serialize),
            "us",
        ),
        metric("daemon.parses", parses as f64, "count"),
        metric(
            "daemon.line_cache_hit_share",
            share(line_hits, line_hits + line_misses),
            "ratio",
        ),
        metric(
            "daemon.line_cache_bypass_share",
            share(
                a.line_cache.bypassed_records - b.line_cache.bypassed_records,
                parses,
            ),
            "ratio",
        ),
        metric(
            "daemon.fallback_share",
            share(fallbacks, fast + fallbacks),
            "ratio",
        ),
    ]
}

/// Everything one timed run produced.
pub struct TimedReport {
    pub spec: Spec,
    pub seed: u64,
    pub daemon_command: String,
    pub placement: Vec<String>,
    pub setup: SetupTimes,
    /// prime, warm, sat, ref, hi — in run order.
    pub phases: Vec<PhaseResult>,
    /// Every end-to-end metric of the issue's table, in its order.
    pub e2e: Vec<Metric>,
    /// `STATS` deltas over `ref`.
    pub daemon_ref: Vec<Metric>,
    /// End-to-end metrics measured in a phase whose generator ran late.
    pub unresolved: Vec<String>,
    /// Violated path assertions (empty when the workload ran as built).
    pub violations: Vec<String>,
    pub attempted: u64,
    pub failures: Failures,
}

impl TimedReport {
    pub fn correct(&self) -> bool {
        self.failures.total() == 0 && self.violations.is_empty()
    }
}

/// Whether an open-loop phase met the latency limit without failures or
/// a growing backlog.
fn phase_meets_limit(p: &PhaseResult) -> bool {
    p.failures.total() == 0
        && p.ok > 0
        && windowed_p99_us(p) <= LIMIT_P99_US
        && p.inflight_end <= p.inflight_mid + BACKLOG_SLACK
}

/// The timed run. Tracing is never on here.
pub fn timed_run(spec: &Spec, plan: &Plan, seed: u64, bin: &Path) -> Result<TimedReport, String> {
    let mut s = Session::set_up(spec, plan, seed, bin)?;
    let warm = s.warm_up(plan.warm_s)?;

    let s0 = s.daemon.stats()?;
    let fresh0 = s.sampler.fresh_used();
    let sat = s.closed_phase("sat", plan.sat_s)?;
    let ref_schedule = s.schedule(STREAM_REF, spec.ref_rate, plan.ref_s)?;
    let hi_schedule = s.schedule(STREAM_HI, spec.hi_rate, plan.hi_s)?;
    let s1 = s.daemon.stats()?;
    let reference = s.open_phase("ref", &ref_schedule, spec.ref_rate, plan.ref_s)?;
    let s2 = s.daemon.stats()?;
    let hi = s.open_phase("hi", &hi_schedule, spec.hi_rate, plan.hi_s)?;
    let s3 = s.daemon.stats()?;
    let rss_peak_mb = s.daemon.rss_peak_mb()?;

    let measured_sent = sat.sent + reference.sent + hi.sent;
    let fresh = (s.sampler.fresh_used() - fresh0) as u64;
    let violations = spec.path_violations(&s0, &s3, measured_sent, fresh);

    let ref_lat = summarize_ns(&reference.latencies_ns());
    let max_rate_ok = [&hi, &reference]
        .into_iter()
        .find(|p| phase_meets_limit(p))
        .map_or(0.0, |p| p.rate);

    let mut failures = Failures::default();
    let mut attempted = 0;
    let phases = vec![s.prime.clone(), warm, sat, reference, hi];
    for p in &phases {
        attempted += p.sent;
        failures.add(&p.failures);
    }
    let (sat, reference, hi) = (&phases[2], &phases[3], &phases[4]);

    let e2e = vec![
        metric("setup_s", s.setup.setup_s, "s"),
        metric("sat_req_s", sat.replies_per_s(), "1/s"),
        metric("lat_p50_us", ref_lat.p50, "us"),
        metric("lat_p99_us", windowed_p99_us(reference), "us"),
        metric("max_rate_ok", max_rate_ok, "1/s"),
        metric(
            "fail_share",
            failures.total() as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("line_err", s.pools.line_err, "ratio"),
        metric("doc_err", s.pools.doc_err, "ratio"),
        metric("line_acc_pct", 100.0 * (1.0 - s.pools.line_err), "%"),
        metric("rss_peak_mb", rss_peak_mb, "MB"),
    ];
    let mut unresolved = Vec::new();
    if reference.late_share() > MAX_LATE_SHARE {
        unresolved.extend(["lat_p50_us".to_string(), "lat_p99_us".to_string()]);
    }
    if reference.late_share() > MAX_LATE_SHARE || hi.late_share() > MAX_LATE_SHARE {
        unresolved.push("max_rate_ok".to_string());
    }
    Ok(TimedReport {
        spec: spec.clone(),
        seed,
        daemon_command: s.daemon.command.clone(),
        placement: s.placement.clone(),
        setup: s.setup.clone(),
        e2e,
        daemon_ref: daemon_delta(&s1, &s2),
        unresolved,
        violations,
        attempted,
        failures,
        phases,
    })
}
