//! Closed-loop continual learning: the paper's §5.3 maintenance story
//! ("add a handful of labels for the new format and retrain") run as a
//! production loop instead of a one-off experiment.
//!
//! The loop, end to end:
//!
//! ```text
//! serving path                       background RetrainLoop
//! ────────────────────────────       ─────────────────────────────────
//! parse_one_confident ─► conf        tick every interval:
//! DriftMonitor.observe(conf)           rollback check (probation)
//!   low?  ─► RetrainQueue.push        drifting && batch ready?
//!   window sustained-low? drift         label batch (rules ∧ templates,
//!                                         disagreements dropped)
//!                                       candidate = incumbent.retrain
//!                                       gate: golden-set eval vs
//!                                         incumbent — worse? reject +
//!                                         quarantine
//!                                       deploy via ModelRegistry hot
//!                                         swap; watch post-swap
//!                                         confidence, roll back on
//!                                         collapse
//! ```
//!
//! Key invariants:
//!
//! * **Serving never stops.** Retraining runs on its own thread; deploys
//!   go through [`ModelRegistry::install`]'s arc-swap (generation bump
//!   fences caches and the disk tier), so no request is dropped or
//!   served a half-installed model.
//! * **The gate is one-directional.** A candidate that scores worse than
//!   the incumbent on the retained golden set is never installed — it is
//!   quarantined on disk for post-mortem and the incumbent keeps
//!   serving. Self-healing must not be able to self-harm.
//! * **Rollback is automatic.** Every deploy remembers the incumbent it
//!   replaced; if windowed confidence collapses during the probation
//!   period after a swap, the previous model is reinstalled.
//! * **The queue is crash-safe.** Queued records are persisted with the
//!   [`whois_store::frame`] CRC discipline; a kill and reopen keeps
//!   exactly the acknowledged prefix acknowledged (acked entries never
//!   reappear, completely-written unacked entries never vanish, a torn
//!   tail is truncated).

use crate::registry::ModelRegistry;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use whois_model::{non_empty_lines, BlockLabel, RawRecord};
use whois_parser::{ParserConfig, TrainExample, WhoisParser};
use whois_rules::RuleBasedParser;
use whois_store::frame::{append_frame, decode_frame};
use whois_templates::TemplateParser;

/// One record shunted into the retrain queue: exactly what a future
/// labeling pass needs, nothing model-dependent.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedRecord {
    /// Domain the record describes.
    pub domain: String,
    /// Verbatim record body.
    pub text: String,
}

// ---------------------------------------------------------------------
// Crash-safe retrain queue.
// ---------------------------------------------------------------------

/// Queue log file name inside the retrain directory.
const QUEUE_LOG: &str = "retrain-queue.log";
/// Ack watermark file name.
const QUEUE_ACK: &str = "retrain-queue.ack";
/// Acked frames tolerated at the head of the log before the next ack
/// compacts it (rewrites pending entries under a fresh epoch).
const COMPACT_ACKED: u64 = 256;

/// Bounded, disk-backed queue of records waiting for the retrain loop.
///
/// Layout: an append-only log of CRC-framed JSON entries (first frame is
/// an 8-byte log *epoch*), plus an ack file holding a framed
/// `(epoch, acked)` pair, replaced atomically via temp-file rename. The
/// ack watermark counts entry frames from the head of the log it names;
/// an ack file from an older epoch means "nothing in this log is acked"
/// — which is exactly right, because compaction rewrites the log to
/// contain only unacked entries before publishing the new epoch.
///
/// Recovery truncates the log at the first incomplete/corrupt frame
/// (torn tail) and clamps the watermark to what survived. Appends are
/// plain `write(2)`s — durable across a process kill, which is the
/// failure model here; the entries are re-derivable serving traffic, so
/// fsync-per-push would buy little and cost the serving path.
pub struct RetrainQueue {
    inner: Mutex<QueueInner>,
    capacity: usize,
    dropped: AtomicU64,
    acked_total: AtomicU64,
}

struct QueueInner {
    dir: PathBuf,
    file: File,
    epoch: u64,
    /// Entry frames from the head of the current log that are acked
    /// (their records are no longer in `pending`).
    acked: u64,
    pending: VecDeque<QueuedRecord>,
}

impl RetrainQueue {
    /// Open (or create) the queue in `dir`, recovering whatever a
    /// previous process left behind.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> std::io::Result<RetrainQueue> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let log_path = dir.join(QUEUE_LOG);
        let bytes = std::fs::read(&log_path).unwrap_or_default();

        // Frame 0 is the epoch; entry frames follow. Anything that does
        // not decode (frame or JSON) is a torn tail: truncate there.
        let mut off = 0usize;
        let mut epoch = 0u64;
        let mut entries: Vec<QueuedRecord> = Vec::new();
        if let Some((payload, used)) = decode_frame(&bytes) {
            if payload.len() == 8 {
                epoch = u64::from_le_bytes(payload.try_into().unwrap());
                off = used;
                while let Some((payload, used)) = decode_frame(&bytes[off..]) {
                    match serde_json::from_slice::<QueuedRecord>(payload) {
                        Ok(rec) => {
                            entries.push(rec);
                            off += used;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
        if epoch == 0 {
            // Missing, empty, or headerless log: start a fresh epoch 1.
            epoch = 1;
            let mut buf = Vec::new();
            append_frame(&mut buf, &epoch.to_le_bytes());
            write_atomic(&dir, QUEUE_LOG, &buf)?;
        } else if off < bytes.len() {
            // Torn tail: drop the partial frame, keep everything whole.
            let f = OpenOptions::new().write(true).open(&log_path)?;
            f.set_len(off as u64)?;
        }

        let acked = match read_ack(&dir) {
            Some((e, a)) if e == epoch => a.min(entries.len() as u64),
            _ => 0, // older epoch (or no ack yet): nothing here is acked
        };
        let pending: VecDeque<QueuedRecord> = entries.drain(acked as usize..).collect();

        let file = OpenOptions::new().append(true).open(dir.join(QUEUE_LOG))?;
        Ok(RetrainQueue {
            inner: Mutex::new(QueueInner {
                dir,
                file,
                epoch,
                acked,
                pending,
            }),
            capacity,
            dropped: AtomicU64::new(0),
            acked_total: AtomicU64::new(0),
        })
    }

    /// Append one record; `false` (and a counted drop) when the queue is
    /// at capacity — drift floods must not grow the disk without bound.
    pub fn push(&self, domain: &str, text: &str) -> bool {
        let mut inner = self.inner.lock();
        if inner.pending.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let rec = QueuedRecord {
            domain: domain.to_string(),
            text: text.to_string(),
        };
        let payload = serde_json::to_string(&rec).expect("record serializes");
        let mut buf = Vec::with_capacity(payload.len() + 8);
        append_frame(&mut buf, payload.as_bytes());
        // A full/broken disk degrades crash-safety, not serving: the
        // entry still queues in memory even if the append fails.
        let _ = inner.file.write_all(&buf);
        inner.pending.push_back(rec);
        true
    }

    /// Clone up to `max` pending records *without* consuming them; call
    /// [`ack`](Self::ack) once the batch has been processed. A crash in
    /// between re-delivers the batch after reopen (at-least-once).
    pub fn take(&self, max: usize) -> Vec<QueuedRecord> {
        let inner = self.inner.lock();
        inner.pending.iter().take(max).cloned().collect()
    }

    /// Acknowledge the first `n` pending records: they leave the queue
    /// and — once the watermark write lands — never come back, even
    /// across a kill.
    pub fn ack(&self, n: usize) {
        let mut inner = self.inner.lock();
        let n = n.min(inner.pending.len());
        if n == 0 {
            return;
        }
        inner.pending.drain(..n);
        inner.acked += n as u64;
        self.acked_total.fetch_add(n as u64, Ordering::Relaxed);
        if inner.acked >= COMPACT_ACKED || (inner.pending.is_empty() && inner.acked > 0) {
            // Compaction: write a pending-only log under epoch+1, rename
            // it over the old one, then publish (epoch+1, 0). A crash
            // after the log rename but before the ack write leaves an
            // old-epoch ack file, which recovery treats as "0 acked" —
            // correct, because the new log holds only unacked entries.
            let _ = inner.compact();
        } else {
            let _ = write_ack(&inner.dir, inner.epoch, inner.acked);
        }
    }

    /// Pending (unacked) records.
    pub fn len(&self) -> usize {
        self.inner.lock().pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records refused because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records acknowledged over this process's lifetime.
    pub fn acked_total(&self) -> u64 {
        self.acked_total.load(Ordering::Relaxed)
    }
}

impl QueueInner {
    fn compact(&mut self) -> std::io::Result<()> {
        let epoch = self.epoch + 1;
        let mut buf = Vec::new();
        append_frame(&mut buf, &epoch.to_le_bytes());
        for rec in &self.pending {
            let payload = serde_json::to_string(rec).expect("record serializes");
            append_frame(&mut buf, payload.as_bytes());
        }
        write_atomic(&self.dir, QUEUE_LOG, &buf)?;
        write_ack(&self.dir, epoch, 0)?;
        // The rename orphaned the old inode; reopen the append handle.
        self.file = OpenOptions::new()
            .append(true)
            .open(self.dir.join(QUEUE_LOG))?;
        self.epoch = epoch;
        self.acked = 0;
        Ok(())
    }
}

fn read_ack(dir: &Path) -> Option<(u64, u64)> {
    let bytes = std::fs::read(dir.join(QUEUE_ACK)).ok()?;
    let (payload, _) = decode_frame(&bytes)?;
    if payload.len() != 16 {
        return None;
    }
    Some((
        u64::from_le_bytes(payload[..8].try_into().unwrap()),
        u64::from_le_bytes(payload[8..].try_into().unwrap()),
    ))
}

fn write_ack(dir: &Path, epoch: u64, acked: u64) -> std::io::Result<()> {
    let mut payload = [0u8; 16];
    payload[..8].copy_from_slice(&epoch.to_le_bytes());
    payload[8..].copy_from_slice(&acked.to_le_bytes());
    let mut buf = Vec::new();
    append_frame(&mut buf, &payload);
    write_atomic(dir, QUEUE_ACK, &buf)
}

/// Write-temp-then-rename so readers (and recovery) never see a partial
/// file.
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(name))
}

// ---------------------------------------------------------------------
// Drift monitor.
// ---------------------------------------------------------------------

/// Sliding-window confidence tracker. Each served parse reports its
/// per-record confidence (forward–backward marginal mean on the exact
/// tier, normalized Viterbi margin on the fast tier — both near 1 on
/// schemas the model knows, sagging under drift); the monitor keeps the
/// last `window` values and declares *drift* when the window is full
/// and at least `drift_fraction` of it sits below `low_confidence`.
pub struct DriftMonitor {
    window: usize,
    low_confidence: f64,
    drift_fraction: f64,
    inner: Mutex<MonitorWindow>,
    records_seen: AtomicU64,
    low_total: AtomicU64,
}

#[derive(Default)]
struct MonitorWindow {
    recent: VecDeque<f64>,
    low: usize,
    sum: f64,
}

impl DriftMonitor {
    /// A monitor over the last `window` records.
    pub fn new(window: usize, low_confidence: f64, drift_fraction: f64) -> Self {
        DriftMonitor {
            window: window.max(1),
            low_confidence,
            drift_fraction,
            inner: Mutex::new(MonitorWindow::default()),
            records_seen: AtomicU64::new(0),
            low_total: AtomicU64::new(0),
        }
    }

    /// Fold one record's confidence in; returns whether this record is
    /// individually low-confidence (the caller's cue to queue it).
    pub fn observe(&self, confidence: f64) -> bool {
        let low = confidence < self.low_confidence;
        self.records_seen.fetch_add(1, Ordering::Relaxed);
        if low {
            self.low_total.fetch_add(1, Ordering::Relaxed);
        }
        let mut w = self.inner.lock();
        if w.recent.len() == self.window {
            if let Some(old) = w.recent.pop_front() {
                w.sum -= old;
                if old < self.low_confidence {
                    w.low -= 1;
                }
            }
        }
        w.recent.push_back(confidence);
        w.sum += confidence;
        if low {
            w.low += 1;
        }
        low
    }

    /// Sustained low-confidence regime: full window, and the low-record
    /// fraction at or above the configured trigger.
    pub fn drifting(&self) -> bool {
        let w = self.inner.lock();
        w.recent.len() == self.window && w.low as f64 >= self.drift_fraction * self.window as f64
    }

    /// Mean confidence over the current window (1.0 when empty, so an
    /// idle service never looks like it is collapsing).
    pub fn window_mean(&self) -> f64 {
        let w = self.inner.lock();
        if w.recent.is_empty() {
            1.0
        } else {
            w.sum / w.recent.len() as f64
        }
    }

    /// Whether the window has filled since the last reset.
    pub fn window_full(&self) -> bool {
        self.inner.lock().recent.len() == self.window
    }

    /// Observations in the current window.
    pub fn window_len(&self) -> usize {
        self.inner.lock().recent.len()
    }

    /// Records observed over the monitor's lifetime.
    pub fn records_seen(&self) -> u64 {
        self.records_seen.load(Ordering::Relaxed)
    }

    /// Low-confidence records over the monitor's lifetime.
    pub fn low_total(&self) -> u64 {
        self.low_total.load(Ordering::Relaxed)
    }

    /// Clear the window — after a swap or rollback, pre-change
    /// confidences must not pollute the verdict on the new model.
    pub fn reset(&self) {
        *self.inner.lock() = MonitorWindow::default();
    }
}

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Everything the loop needs. Carried in
/// [`ServeConfig::retrain`](crate::service::ServeConfig) (absent → the
/// loop is off and serving behaves exactly as before).
#[derive(Clone, Debug)]
pub struct RetrainConfig {
    /// Directory for the crash-safe queue and quarantined candidates.
    pub dir: PathBuf,
    /// Sliding-window size for the drift monitor.
    pub window: usize,
    /// Per-record confidence below which a record is queued for
    /// relabeling (and counts toward the drift fraction).
    pub low_confidence: f64,
    /// Fraction of the window that must be low-confidence to declare a
    /// sustained drift regime.
    pub drift_fraction: f64,
    /// Post-swap rollback trigger: windowed mean confidence below this
    /// during probation reinstalls the previous model.
    pub rollback_mean: f64,
    /// Probation length after a deploy, in observed records; the
    /// previous model is kept restorable until it elapses.
    pub probation: u64,
    /// Queue capacity (pending records beyond it are dropped, counted).
    pub queue_capacity: usize,
    /// Don't attempt a retrain with fewer agreed-upon queued records.
    pub min_batch: usize,
    /// Cap on records consumed per retrain attempt.
    pub max_batch: usize,
    /// Loop poll interval.
    pub interval: Duration,
    /// The deployment gate. `false` is for tests that need to push a bad
    /// candidate through to exercise rollback; leave it on in
    /// production — it is the loop's self-harm interlock.
    pub gate: bool,
    /// The retained golden set: labeled first-level examples the gate
    /// evaluates candidates against, also mixed into every refit as
    /// ballast so a candidate cannot forget the known schemas.
    pub golden_first: Vec<TrainExample<BlockLabel>>,
    /// Per-registrar templates (§2.3 baseline) used to cross-check the
    /// rule labeler; records the two disagree on are dropped.
    pub templates: TemplateParser,
    /// Training configuration for refits — defaults to the bounded
    /// warm-start `whois_crf::TrainConfig::incremental` schedule.
    pub train: ParserConfig,
}

impl RetrainConfig {
    /// Defaults for `dir`: window 48, low-confidence 0.8, drift at half
    /// the window, rollback below 0.4 mean, 96-record probation, queue
    /// of 512, batches of 8..256, 250 ms polls, gate on, empty golden
    /// set (callers supply one), incremental training.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RetrainConfig {
            dir: dir.into(),
            window: 48,
            low_confidence: 0.8,
            drift_fraction: 0.5,
            rollback_mean: 0.4,
            probation: 96,
            queue_capacity: 512,
            min_batch: 8,
            max_batch: 256,
            interval: Duration::from_millis(250),
            gate: true,
            golden_first: Vec::new(),
            templates: TemplateParser::new(),
            train: ParserConfig {
                train: whois_parser::TrainConfig::incremental(),
                ..ParserConfig::default()
            },
        }
    }
}

// ---------------------------------------------------------------------
// Shared hub: what the serving path and the loop both touch.
// ---------------------------------------------------------------------

/// Monitor + queue + counters, shared between parse workers (which
/// observe and enqueue), the stats path (which snapshots), and the
/// retrain loop (which drains and retrains).
pub struct RetrainHub {
    monitor: DriftMonitor,
    queue: RetrainQueue,
    attempts: AtomicU64,
    deployed: AtomicU64,
    rejected: AtomicU64,
    rollbacks: AtomicU64,
    labeled: AtomicU64,
    label_dropped: AtomicU64,
    probation_active: AtomicBool,
    /// f64 bit patterns of the last gate evaluation.
    incumbent_acc: AtomicU64,
    candidate_acc: AtomicU64,
    last_outcome: Mutex<String>,
}

impl RetrainHub {
    /// Open the hub (queue recovery happens here).
    pub fn open(cfg: &RetrainConfig) -> std::io::Result<RetrainHub> {
        Ok(RetrainHub {
            monitor: DriftMonitor::new(cfg.window, cfg.low_confidence, cfg.drift_fraction),
            queue: RetrainQueue::open(&cfg.dir, cfg.queue_capacity)?,
            attempts: AtomicU64::new(0),
            deployed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            labeled: AtomicU64::new(0),
            label_dropped: AtomicU64::new(0),
            probation_active: AtomicBool::new(false),
            incumbent_acc: AtomicU64::new(0),
            candidate_acc: AtomicU64::new(0),
            last_outcome: Mutex::new(String::new()),
        })
    }

    /// The serving path's single entry point: fold in one parse's
    /// confidence; low-confidence records are queued for the loop.
    pub fn observe_parse(&self, domain: &str, text: &str, confidence: f64) {
        if self.monitor.observe(confidence) {
            self.queue.push(domain, text);
        }
    }

    /// The drift monitor.
    pub fn monitor(&self) -> &DriftMonitor {
        &self.monitor
    }

    /// The retrain queue.
    pub fn queue(&self) -> &RetrainQueue {
        &self.queue
    }

    /// Point-in-time view for `STATS`/`HEALTH`/`RETRAIN`.
    pub fn snapshot(&self) -> RetrainSnapshot {
        RetrainSnapshot {
            enabled: true,
            records_seen: self.monitor.records_seen(),
            low_confidence: self.monitor.low_total(),
            window_len: self.monitor.window_len() as u64,
            window_mean: self.monitor.window_mean(),
            drifting: self.monitor.drifting(),
            queue_len: self.queue.len() as u64,
            queue_dropped: self.queue.dropped(),
            queue_acked: self.queue.acked_total(),
            attempts: self.attempts.load(Ordering::Relaxed),
            deployed: self.deployed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            labeled: self.labeled.load(Ordering::Relaxed),
            label_dropped: self.label_dropped.load(Ordering::Relaxed),
            probation: self.probation_active.load(Ordering::Relaxed),
            incumbent_accuracy: f64::from_bits(self.incumbent_acc.load(Ordering::Relaxed)),
            candidate_accuracy: f64::from_bits(self.candidate_acc.load(Ordering::Relaxed)),
            last_outcome: self.last_outcome.lock().clone(),
        }
    }

    fn set_outcome(&self, outcome: impl Into<String>) {
        *self.last_outcome.lock() = outcome.into();
    }
}

/// The retrain/drift section of `STATS`/`HEALTH` and the `RETRAIN`
/// verb's payload. All-default (`enabled: false`) when the loop is off
/// or the reply came from an older daemon.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RetrainSnapshot {
    /// Whether the loop is configured.
    pub enabled: bool,
    /// Records whose confidence the monitor has seen.
    pub records_seen: u64,
    /// Lifetime low-confidence records.
    pub low_confidence: u64,
    /// Observations currently in the window.
    pub window_len: u64,
    /// Mean confidence over the window (1.0 when empty).
    pub window_mean: f64,
    /// Sustained low-confidence regime detected right now.
    pub drifting: bool,
    /// Pending records in the retrain queue.
    pub queue_len: u64,
    /// Records dropped because the queue was full.
    pub queue_dropped: u64,
    /// Records acknowledged (consumed by retrain attempts).
    pub queue_acked: u64,
    /// Retrain attempts started.
    pub attempts: u64,
    /// Candidates deployed through the hot-swap path.
    pub deployed: u64,
    /// Candidates rejected by the golden-set gate (quarantined).
    pub rejected: u64,
    /// Automatic post-swap rollbacks.
    pub rollbacks: u64,
    /// Queued records the labelers agreed on (became training examples).
    pub labeled: u64,
    /// Queued records dropped by labeler disagreement or misalignment.
    pub label_dropped: u64,
    /// Whether a deploy is currently under post-swap probation.
    pub probation: bool,
    /// Incumbent golden-set line accuracy at the last gate evaluation.
    pub incumbent_accuracy: f64,
    /// Candidate golden-set line accuracy at the last gate evaluation.
    pub candidate_accuracy: f64,
    /// Human-readable outcome of the last loop action.
    pub last_outcome: String,
}

// ---------------------------------------------------------------------
// The retrainer.
// ---------------------------------------------------------------------

/// What one loop action decided.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetrainOutcome {
    /// Nothing to do (no drift, batch too small, or no agreed labels).
    Skipped,
    /// Candidate deployed at this generation.
    Deployed(u64),
    /// Candidate scored worse than the incumbent and was quarantined.
    Rejected,
    /// Post-swap confidence collapse: previous model reinstalled.
    RolledBack,
}

struct PreviousModel {
    parser: WhoisParser,
    version: String,
}

/// The decision core of the loop: labeling, refit, gate, deploy,
/// rollback. [`tick`](Self::tick) is re-entrant-safe but intended to be
/// driven by one [`RetrainLoop`] thread (or directly by tests, which is
/// what makes the gate and rollback provable without sleeps).
pub struct Retrainer {
    registry: Arc<ModelRegistry>,
    hub: Arc<RetrainHub>,
    cfg: RetrainConfig,
    rules: RuleBasedParser,
    previous: Mutex<Option<PreviousModel>>,
    records_at_deploy: AtomicU64,
    deploy_seq: AtomicU64,
}

impl Retrainer {
    /// Build the loop core over a registry and its hub.
    pub fn new(registry: Arc<ModelRegistry>, hub: Arc<RetrainHub>, cfg: RetrainConfig) -> Self {
        Retrainer {
            registry,
            hub,
            cfg,
            rules: RuleBasedParser::full(),
            previous: Mutex::new(None),
            records_at_deploy: AtomicU64::new(0),
            deploy_seq: AtomicU64::new(0),
        }
    }

    /// One loop iteration: rollback check first (a collapsing deploy
    /// must be undone before anything else), then a retrain attempt if a
    /// sustained drift regime holds and enough records are queued.
    pub fn tick(&self) -> RetrainOutcome {
        if self.check_rollback() {
            return RetrainOutcome::RolledBack;
        }
        if !self.hub.monitor.drifting() || self.hub.queue.len() < self.cfg.min_batch {
            return RetrainOutcome::Skipped;
        }
        self.attempt()
    }

    /// One full detect→label→refit→gate cycle over the queued batch.
    /// The batch is acknowledged whatever the outcome — reprocessing the
    /// same records cannot change a gate verdict, so leaving them queued
    /// would only wedge the loop. (A crash mid-attempt re-delivers the
    /// batch: acks land after the verdict.)
    pub fn attempt(&self) -> RetrainOutcome {
        self.hub.attempts.fetch_add(1, Ordering::Relaxed);
        let batch = self.hub.queue.take(self.cfg.max_batch);
        if batch.is_empty() {
            return RetrainOutcome::Skipped;
        }
        let (examples, dropped) = self.label(&batch);
        self.hub
            .labeled
            .fetch_add(examples.len() as u64, Ordering::Relaxed);
        self.hub.label_dropped.fetch_add(dropped, Ordering::Relaxed);
        if examples.is_empty() {
            self.hub.queue.ack(batch.len());
            self.hub
                .set_outcome("skipped: labelers agreed on no queued record");
            return RetrainOutcome::Skipped;
        }

        // Refit from the incumbent: golden ballast + the agreed drifted
        // examples. `retrain_first_level` warm-starts from the current
        // weights when the dictionary is unchanged and rebuilds+refits
        // when the drifted schema introduced new vocabulary (§5.3).
        let incumbent = self.registry.current().engine.parser().clone();
        let mut candidate = incumbent;
        let mut training = self.cfg.golden_first.clone();
        training.extend(examples);
        candidate.retrain_first_level(&training, &self.cfg.train);

        let outcome = self.consider(candidate);
        self.hub.queue.ack(batch.len());
        outcome
    }

    /// Gate and (maybe) deploy a candidate. Exposed so tests can prove
    /// the gate with a hand-poisoned candidate instead of hoping the
    /// labelers misfire.
    pub fn consider(&self, candidate: WhoisParser) -> RetrainOutcome {
        let active = self.registry.current();
        let incumbent_acc = 1.0
            - active
                .engine
                .parser()
                .evaluate_first_level(&self.cfg.golden_first)
                .line_error_rate();
        let candidate_acc = 1.0
            - candidate
                .evaluate_first_level(&self.cfg.golden_first)
                .line_error_rate();
        self.hub
            .incumbent_acc
            .store(incumbent_acc.to_bits(), Ordering::Relaxed);
        self.hub
            .candidate_acc
            .store(candidate_acc.to_bits(), Ordering::Relaxed);

        if self.cfg.gate && candidate_acc + 1e-9 < incumbent_acc {
            self.hub.rejected.fetch_add(1, Ordering::Relaxed);
            self.quarantine(&candidate);
            self.hub.set_outcome(format!(
                "rejected: candidate golden accuracy {candidate_acc:.4} \
                 < incumbent {incumbent_acc:.4}"
            ));
            return RetrainOutcome::Rejected;
        }

        let n = self.deploy_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let version = format!("{}+retrain-{n:04}", active.version);
        *self.previous.lock() = Some(PreviousModel {
            parser: active.engine.parser().clone(),
            version: active.version.clone(),
        });
        let generation = self.registry.install(candidate, version.clone());
        self.hub.monitor.reset();
        self.records_at_deploy
            .store(self.hub.monitor.records_seen(), Ordering::Relaxed);
        self.hub.probation_active.store(true, Ordering::Relaxed);
        self.hub.deployed.fetch_add(1, Ordering::Relaxed);
        self.hub.set_outcome(format!(
            "deployed {version} (generation {generation}, candidate \
             {candidate_acc:.4} vs incumbent {incumbent_acc:.4} on golden set)"
        ));
        RetrainOutcome::Deployed(generation)
    }

    /// Post-swap watchdog: while a deploy is on probation, a full window
    /// whose mean confidence sits below the rollback threshold
    /// reinstalls the model the deploy replaced.
    fn check_rollback(&self) -> bool {
        let mut prev = self.previous.lock();
        if prev.is_none() {
            self.hub.probation_active.store(false, Ordering::Relaxed);
            return false;
        }
        if self.hub.monitor.window_full() && self.hub.monitor.window_mean() < self.cfg.rollback_mean
        {
            let restored = prev.take().expect("checked above");
            let mean = self.hub.monitor.window_mean();
            let rb = self.hub.rollbacks.fetch_add(1, Ordering::Relaxed) + 1;
            let version = format!("{}+rb{rb}", restored.version);
            self.registry.install(restored.parser, version.clone());
            self.hub.monitor.reset();
            self.hub.probation_active.store(false, Ordering::Relaxed);
            self.hub.set_outcome(format!(
                "rolled back to {version}: post-swap window mean {mean:.4} \
                 below {:.4}",
                self.cfg.rollback_mean
            ));
            return true;
        }
        let seen = self.hub.monitor.records_seen();
        let at_deploy = self.records_at_deploy.load(Ordering::Relaxed);
        if seen.saturating_sub(at_deploy) >= self.cfg.probation {
            *prev = None; // probation survived; the deploy sticks
            self.hub.probation_active.store(false, Ordering::Relaxed);
        }
        false
    }

    /// Auto-label one queued batch with the two baselines. A record
    /// becomes a training example only when the rule labeler's output
    /// aligns with the record's lines AND any applicable per-registrar
    /// template agrees line-for-line; everything else is dropped —
    /// wrong labels are worse than no labels.
    fn label(&self, batch: &[QueuedRecord]) -> (Vec<TrainExample<BlockLabel>>, u64) {
        let mut out = Vec::new();
        let mut dropped = 0u64;
        for rec in batch {
            let lines = non_empty_lines(&rec.text);
            if lines.is_empty() {
                dropped += 1;
                continue;
            }
            let labels = self.rules.label_blocks(&rec.text);
            if labels.len() != lines.len() {
                dropped += 1;
                continue;
            }
            let registrar = self
                .rules
                .parse(&RawRecord::new(&rec.domain, &rec.text))
                .registrar;
            if let Some(reg) = registrar {
                if let Some(template_labels) = self.cfg.templates.label_blocks(&reg, &lines) {
                    if template_labels != labels {
                        dropped += 1;
                        continue;
                    }
                }
            }
            out.push(TrainExample {
                text: rec.text.clone(),
                labels,
            });
        }
        (out, dropped)
    }

    /// Persist a rejected candidate for post-mortem (best-effort — a
    /// full disk must not take the loop down).
    fn quarantine(&self, candidate: &WhoisParser) {
        let n = self.hub.rejected.load(Ordering::Relaxed);
        let dir = self.cfg.dir.join("quarantine");
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        if let Ok(json) = candidate.to_json() {
            let _ = std::fs::write(dir.join(format!("candidate-{n:04}.json")), json);
        }
    }

    /// The shared hub (for harnesses that drive ticks directly).
    pub fn hub(&self) -> &Arc<RetrainHub> {
        &self.hub
    }
}

// ---------------------------------------------------------------------
// The background loop thread.
// ---------------------------------------------------------------------

/// Owns the thread that ticks a [`Retrainer`] at its configured
/// interval. Dropping (or [`stop`](Self::stop)) joins it; a tick in
/// flight finishes first, so no half-installed model can be left
/// behind.
pub struct RetrainLoop {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RetrainLoop {
    /// Spawn the loop.
    pub fn start(retrainer: Arc<Retrainer>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("whois-serve-retrain".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::SeqCst) {
                    retrainer.tick();
                    // Sleep in small steps so stop() is prompt.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop_flag.load(Ordering::SeqCst) {
                        let step = remaining.min(Duration::from_millis(10));
                        std::thread::sleep(step);
                        remaining = remaining.saturating_sub(step);
                    }
                }
            })
            .expect("spawn retrain loop");
        RetrainLoop {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop the loop and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RetrainLoop {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "whois-retrain-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn queue_roundtrips_and_acks() {
        let dir = tmp_dir("roundtrip");
        let q = RetrainQueue::open(&dir, 16).unwrap();
        assert!(q.is_empty());
        assert!(q.push("a.com", "Domain Name: A.COM\n"));
        assert!(q.push("b.com", "Domain Name: B.COM\n"));
        assert_eq!(q.len(), 2);
        let batch = q.take(10);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].domain, "a.com");
        // take() does not consume.
        assert_eq!(q.len(), 2);
        q.ack(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.take(10)[0].domain, "b.com");
        assert_eq!(q.acked_total(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_reopen_keeps_exactly_the_acked_prefix() {
        let dir = tmp_dir("reopen");
        {
            let q = RetrainQueue::open(&dir, 16).unwrap();
            for i in 0..5 {
                q.push(&format!("d{i}.com"), &format!("Domain Name: D{i}.COM\n"));
            }
            q.ack(2);
        } // "kill"
        let q = RetrainQueue::open(&dir, 16).unwrap();
        let pending: Vec<String> = q.take(10).into_iter().map(|r| r.domain).collect();
        assert_eq!(pending, vec!["d2.com", "d3.com", "d4.com"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_truncates_torn_tail_on_reopen() {
        let dir = tmp_dir("torn");
        {
            let q = RetrainQueue::open(&dir, 16).unwrap();
            q.push("whole.com", "Domain Name: WHOLE.COM\n");
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let log = dir.join(QUEUE_LOG);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0xAA]);
        std::fs::write(&log, &bytes).unwrap();

        let q = RetrainQueue::open(&dir, 16).unwrap();
        let pending = q.take(10);
        assert_eq!(pending.len(), 1, "whole frames survive, torn tail dropped");
        assert_eq!(pending[0].domain, "whole.com");
        // And the truncation healed the log: push + reopen still works.
        q.push("after.com", "Domain Name: AFTER.COM\n");
        drop(q);
        let q = RetrainQueue::open(&dir, 16).unwrap();
        assert_eq!(q.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_capacity_drops_and_counts() {
        let dir = tmp_dir("cap");
        let q = RetrainQueue::open(&dir, 2).unwrap();
        assert!(q.push("a.com", "x"));
        assert!(q.push("b.com", "x"));
        assert!(!q.push("c.com", "x"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_full_drain_compacts_the_log() {
        let dir = tmp_dir("compact");
        let q = RetrainQueue::open(&dir, 16).unwrap();
        for i in 0..4 {
            q.push(&format!("d{i}.com"), "Domain Name: X\n");
        }
        q.ack(4);
        assert!(q.is_empty());
        let log_len = std::fs::metadata(dir.join(QUEUE_LOG)).unwrap().len();
        // Epoch frame only: 8-byte header + 8-byte payload.
        assert_eq!(log_len, 16, "drained log compacts to the epoch frame");
        // Entries pushed after compaction survive a reopen.
        q.push("fresh.com", "Domain Name: FRESH.COM\n");
        drop(q);
        let q = RetrainQueue::open(&dir, 16).unwrap();
        assert_eq!(q.take(10)[0].domain, "fresh.com");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitor_detects_sustained_low_confidence_and_resets() {
        let m = DriftMonitor::new(4, 0.8, 0.5);
        assert!(!m.drifting(), "empty window is not drift");
        m.observe(0.95);
        m.observe(0.97);
        m.observe(0.96);
        m.observe(0.94);
        assert!(!m.drifting(), "healthy window is not drift");
        assert!(m.observe(0.3), "low record is flagged");
        assert!(!m.drifting(), "one low record of four is not sustained");
        m.observe(0.2);
        assert!(m.drifting(), "half the window low is sustained");
        assert!(m.window_mean() < 0.8);
        m.reset();
        assert!(!m.drifting());
        assert_eq!(m.window_len(), 0);
        assert!(m.records_seen() >= 6, "lifetime counters survive reset");
    }

    #[test]
    fn snapshot_roundtrips_and_defaults_disabled() {
        let snap = RetrainSnapshot::default();
        assert!(!snap.enabled);
        let json = serde_json::to_string(&snap).unwrap();
        let back: RetrainSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
