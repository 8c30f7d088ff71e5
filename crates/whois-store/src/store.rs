//! The record store: a single-writer, log-structured collection of
//! CRC-framed segments under one directory, with an in-memory FNV
//! index, crash-safe recovery, and background compaction.
//!
//! ## Directory layout
//!
//! ```text
//! MANIFEST        JSON: generation, model version, segment list
//! seg-NNNNNNNN.wss  CRC-framed entry runs (see segment.rs)
//! ```
//!
//! ## Invariants
//!
//! - One writer at a time: every writable open takes an exclusive
//!   advisory lock on a `LOCK` file for the store's lifetime, so a
//!   daemon and an offline `whoisml store compact` can never interleave
//!   appends, sweeps, or truncations. Read-only opens
//!   ([`RecordStore::open_readonly`]) take no lock and never mutate the
//!   directory — not even recovery — so they are safe against a live
//!   writer.
//! - The manifest is the source of truth: segment files it does not
//!   list are compaction leftovers and are deleted on (writable) open.
//! - Sealed segments are immutable and memory-mapped; at most one
//!   *active* segment (created lazily, re-created after each seal)
//!   accepts appends. The store keeps no copy of it: a read of a
//!   just-written entry is one positioned read of the file at the
//!   indexed location. That is sound because appends and reads both
//!   run under the store lock and the index only ever points at a
//!   frame whose `write_all` has returned, so a read never sees a
//!   frame mid-write. The active segment is sealed and mapped once it
//!   reaches a size threshold, which keeps any one file mappable in a
//!   piece and lets compaction treat everything but the tail as
//!   immutable.
//! - A crash mid-append tears at most the final frame of the active
//!   segment; open truncates back to the last whole frame, so every
//!   acknowledged (`put_*` returned `Ok`) entry survives.
//! - Compaction rewrites live entries into a fresh segment, fsyncs it,
//!   then atomically swaps the manifest (temp file + rename + dir
//!   sync). A crash at any point leaves either the old or the new
//!   manifest — never a mix — and stray files from the losing side are
//!   swept on the next open.
//! - The store keeps its own persistent model generation (the serve
//!   registry's resets every restart): parsed entries are keyed under
//!   it, [`RecordStore::bump_generation`] advances it on model swaps
//!   (old parses become dead weight for the compactor), and raw
//!   records are generation-free and survive every swap.

use crate::frame::{FRAME_HEADER, MAX_FRAME};
use crate::key::parsed_key;
use crate::key::raw_key;
use crate::segment::{self, EntryKind, Segment, MAGIC};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_FORMAT: &str = "wss-manifest-v1";
/// Single-writer advisory lock file (exclusively locked, never read).
const LOCK_FILE: &str = "LOCK";
/// Fixed per-entry overhead: frame header + kind + generation + key +
/// two length fields.
const ENTRY_OVERHEAD: u64 = (FRAME_HEADER + 1 + 8 + 8 + 4 + 4) as u64;
/// Compact when at least this many dead bytes have accumulated...
const COMPACT_DEAD_FLOOR: u64 = 256 << 10;
/// ...and they are at least this fraction of the store (1/2).
const COMPACT_DEAD_RATIO: u64 = 2;
/// Seal the active segment (fsync, map read-only) once it reaches this
/// size.
const DEFAULT_SEAL_BYTES: u64 = 16 << 20;

/// On-disk manifest (JSON, swapped atomically).
#[derive(Serialize, Deserialize, Clone)]
struct Manifest {
    format: String,
    generation: u64,
    model_version: String,
    segments: Vec<u64>,
    next_segment: u64,
    compactions: u64,
}

impl Manifest {
    fn fresh(model_version: &str) -> Self {
        Manifest {
            format: MANIFEST_FORMAT.to_string(),
            generation: 1,
            model_version: model_version.to_string(),
            segments: Vec::new(),
            next_segment: 0,
            compactions: 0,
        }
    }
}

/// Where one live entry's frame starts.
#[derive(Clone, Copy)]
struct Loc {
    seg: u64,
    off: u64,
    frame_len: u64,
}

/// The active (append-only) segment of this process run.
struct Active {
    id: u64,
    /// Opened for append and read: appends go to the end whatever was
    /// read in between.
    file: File,
    /// Bytes written so far (magic + whole frames): the next frame's
    /// offset.
    len: u64,
}

struct Inner {
    manifest: Manifest,
    sealed: Vec<Arc<Segment>>,
    active: Option<Active>,
    /// parsed_key(generation, body_key) -> live parsed entry.
    parsed: HashMap<u64, Loc>,
    /// raw_key(domain) -> live raw entry.
    raw: HashMap<u64, Loc>,
    /// Sum of all segment file sizes (magic + frames, live and dead).
    total_bytes: u64,
    /// Sum of the framed sizes of currently indexed entries.
    live_bytes: u64,
    /// Bytes dropped by torn-tail truncation at the last open.
    last_recovery_truncated: u64,
}

impl Inner {
    /// Reclaimable bytes: everything that is neither a live frame nor
    /// per-segment magic.
    fn dead_bytes(&self) -> u64 {
        let overhead = (self.manifest.segments.len() * MAGIC.len()) as u64;
        self.total_bytes.saturating_sub(self.live_bytes + overhead)
    }

    /// The bytes of segment `id` from `off`, `len` of them (`None` =
    /// to the end): borrowed from the mapping of a sealed segment, read
    /// from the file of the active one.
    fn segment_bytes(&self, id: u64, off: u64, len: Option<u64>) -> Option<Cow<'_, [u8]>> {
        let start = usize::try_from(off).ok()?;
        match &self.active {
            Some(active) if active.id == id => {
                let len = len.unwrap_or(active.len.checked_sub(off)?);
                let mut buf = vec![0; usize::try_from(len).ok()?];
                read_exact_at(&active.file, &mut buf, off).ok()?;
                Some(Cow::Owned(buf))
            }
            _ => {
                let bytes = self.sealed.iter().find(|s| s.id == id)?.bytes();
                let end = match len {
                    Some(len) => start.checked_add(usize::try_from(len).ok()?)?,
                    None => bytes.len(),
                };
                bytes.get(start..end).map(Cow::Borrowed)
            }
        }
    }

    /// Decode the entry at `loc` and hand it to `f`; `None` if the
    /// frame is unreadable or fails its CRC.
    fn with_entry<R>(&self, loc: Loc, f: impl FnOnce(segment::EntryRef<'_>) -> R) -> Option<R> {
        let frame = self.segment_bytes(loc.seg, loc.off, Some(loc.frame_len))?;
        let (payload, _) = crate::frame::decode_frame(&frame)?;
        segment::decode_entry(payload).map(f)
    }
}

/// Point-in-time store statistics (serialized by `whoisml store stat`
/// and embedded in the serve STATS snapshot).
#[derive(Serialize, Deserialize, Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    pub segments: u64,
    pub total_bytes: u64,
    pub live_bytes: u64,
    pub dead_bytes: u64,
    pub parsed_entries: u64,
    pub raw_entries: u64,
    pub generation: u64,
    pub compactions: u64,
    pub last_recovery_truncated: u64,
}

/// What one compaction pass did.
#[derive(Serialize, Clone, Debug)]
pub struct CompactionReport {
    pub segments_before: u64,
    pub segments_after: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
    pub evicted_parsed: u64,
    pub evicted_raw: u64,
}

/// Full-scan verification result (`whoisml store verify`).
#[derive(Serialize, Clone, Debug)]
pub struct VerifyReport {
    pub segments: u64,
    pub entries: u64,
    pub bytes_scanned: u64,
    pub torn_bytes: u64,
    pub index_parsed: u64,
    pub index_raw: u64,
    /// Indexed entries whose frame failed to decode or whose key
    /// disagrees with the stored entry — always 0 for a healthy store.
    pub index_mismatches: u64,
}

impl VerifyReport {
    pub fn ok(&self) -> bool {
        self.index_mismatches == 0
    }
}

/// The disk tier. Single writer (interior mutex), any number of
/// reading threads; all methods take `&self`.
pub struct RecordStore {
    dir: PathBuf,
    cap_bytes: u64,
    sync: bool,
    /// Inspection-only open: every mutating method fails, and opening
    /// never touched the directory.
    readonly: bool,
    /// Seal the active segment once its file reaches this many bytes.
    seal_bytes: u64,
    /// Exclusive advisory lock on `LOCK`, held for the store's
    /// lifetime by writable opens; the OS releases it on drop or
    /// process death. `None` for read-only opens.
    _lock: Option<File>,
    /// Serializes compaction passes; `get_*`/`put_*` proceed under
    /// `inner` while one runs.
    compact_lock: Mutex<()>,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for RecordStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordStore")
            .field("dir", &self.dir)
            .field("readonly", &self.readonly)
            .finish_non_exhaustive()
    }
}

impl RecordStore {
    /// Open (creating if missing) the store in `dir`, keyed for
    /// `model_version`. If the directory was last written under a
    /// different model version, the persistent generation is bumped so
    /// stale parsed entries can never surface; raw records carry over
    /// regardless. `cap_bytes` bounds the post-compaction disk
    /// footprint (0 = unbounded). `sync` controls per-append fsync.
    pub fn open_for_model(
        dir: impl AsRef<Path>,
        model_version: &str,
        cap_bytes: u64,
        sync: bool,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // Single-writer fence, taken before recovery mutates anything:
        // a second writable open (this process or another) fails fast
        // instead of truncating segments a live writer is appending to.
        let lock = acquire_write_lock(&dir)?;

        let manifest_path = dir.join(MANIFEST);
        let mut manifest = if manifest_path.exists() {
            let bytes = fs::read(&manifest_path)?;
            serde_json::from_slice::<Manifest>(&bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        } else {
            let m = Manifest::fresh(model_version);
            persist_manifest(&dir, &m, sync)?;
            m
        };

        check_format(&manifest)?;

        let mut dirty = false;
        if manifest.model_version != model_version {
            manifest.generation += 1;
            manifest.model_version = model_version.to_string();
            dirty = true;
        }

        // Sweep compaction leftovers: the manifest temp file and any
        // segment file the manifest does not list.
        let _ = fs::remove_file(dir.join(MANIFEST_TMP));
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") && name.ends_with(".wss") {
                let listed = manifest
                    .segments
                    .iter()
                    .any(|&id| segment::file_name(id) == *name);
                if !listed {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        // Recover each listed segment: truncate torn tails back to the
        // last whole frame, then map read-only.
        let mut truncated = 0u64;
        let mut sealed = Vec::with_capacity(manifest.segments.len());
        for &id in &manifest.segments {
            truncated += recover_segment(&dir, id)?;
            sealed.push(Arc::new(Segment::open(&dir, id)?));
        }

        if dirty {
            persist_manifest(&dir, &manifest, sync)?;
        }

        let (parsed, raw, total_bytes, live_bytes) = build_index(&sealed, manifest.generation);

        Ok(RecordStore {
            dir,
            cap_bytes,
            sync,
            readonly: false,
            seal_bytes: DEFAULT_SEAL_BYTES,
            _lock: Some(lock),
            compact_lock: Mutex::new(()),
            inner: Mutex::new(Inner {
                manifest,
                sealed,
                active: None,
                parsed,
                raw,
                total_bytes,
                live_bytes,
                last_recovery_truncated: truncated,
            }),
        })
    }

    /// Open the store for inspection only. The directory is **never
    /// mutated** — no write lock, no torn-tail truncation, no
    /// stray-file sweep, no manifest rewrite — so `whoisml store
    /// stat|verify` can safely run against a live daemon's directory.
    /// Listed segments that are missing or unreadable (a concurrent
    /// compaction swapped them away mid-open) are skipped, and a torn
    /// tail simply ends that segment's scan. Every mutating method
    /// fails with [`io::ErrorKind::PermissionDenied`]. Fails if `dir`
    /// holds no manifest.
    pub fn open_readonly(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let bytes = fs::read(dir.join(MANIFEST))?;
        let manifest = serde_json::from_slice::<Manifest>(&bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        check_format(&manifest)?;
        let mut sealed = Vec::with_capacity(manifest.segments.len());
        for &id in &manifest.segments {
            if let Ok(seg) = Segment::open(&dir, id) {
                sealed.push(Arc::new(seg));
            }
        }
        let (parsed, raw, total_bytes, live_bytes) = build_index(&sealed, manifest.generation);
        Ok(RecordStore {
            dir,
            cap_bytes: 0,
            sync: false,
            readonly: true,
            seal_bytes: DEFAULT_SEAL_BYTES,
            _lock: None,
            compact_lock: Mutex::new(()),
            inner: Mutex::new(Inner {
                manifest,
                sealed,
                active: None,
                parsed,
                raw,
                total_bytes,
                live_bytes,
                last_recovery_truncated: 0,
            }),
        })
    }

    /// Open an existing store for writing under the manifest's own
    /// recorded model version — the persistent generation is left
    /// untouched. Offline maintenance (`whoisml store compact`) uses
    /// this; it takes the single-writer lock like any writable open,
    /// so it fails fast against a running daemon instead of corrupting
    /// its segments. Fails if `dir` holds no manifest.
    pub fn open_existing(dir: impl AsRef<Path>, cap_bytes: u64, sync: bool) -> io::Result<Self> {
        let dir = dir.as_ref();
        let bytes = fs::read(dir.join(MANIFEST))?;
        let version = serde_json::from_slice::<Manifest>(&bytes)
            .map(|m| m.model_version)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Self::open_for_model(dir, &version, cap_bytes, sync)
    }

    /// Replace the size at which the active segment is sealed and
    /// remapped read-only (tests use tiny thresholds to exercise
    /// multi-segment stores cheaply).
    pub fn with_seal_bytes(mut self, seal_bytes: u64) -> Self {
        self.seal_bytes = seal_bytes;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The persistent model generation parsed entries are keyed under.
    pub fn generation(&self) -> u64 {
        self.inner.lock().manifest.generation
    }

    /// Store a parsed reply under its generation-free body key
    /// (`cache_key(0, domain, body)`). Returns `Ok(false)` if an entry
    /// for this key and the current generation is already on disk.
    pub fn put_parsed(&self, body_key: u64, value: &str) -> io::Result<bool> {
        self.require_writable()?;
        let mut inner = self.inner.lock();
        let generation = inner.manifest.generation;
        let key = parsed_key(generation, body_key);
        if inner.parsed.contains_key(&key) {
            return Ok(false);
        }
        let loc = self.append_entry(
            &mut inner,
            EntryKind::Parsed,
            generation,
            body_key,
            "",
            value,
        )?;
        inner.live_bytes += loc.frame_len;
        inner.parsed.insert(key, loc);
        Ok(true)
    }

    /// Store a raw record body for `domain`, replacing any previous
    /// one. Returns `Ok(false)` if the identical body is already
    /// stored (no bytes written).
    pub fn put_raw(&self, domain: &str, body: &str) -> io::Result<bool> {
        self.require_writable()?;
        let lower = domain.to_lowercase();
        let key = raw_key(&lower);
        let mut inner = self.inner.lock();
        if let Some(&loc) = inner.raw.get(&key) {
            let same = inner.with_entry(loc, |e| e.domain == lower && e.value == body);
            if same == Some(true) {
                return Ok(false);
            }
        }
        let loc = self.append_entry(&mut inner, EntryKind::Raw, 0, key, &lower, body)?;
        inner.live_bytes += loc.frame_len;
        if let Some(old) = inner.raw.insert(key, loc) {
            inner.live_bytes -= old.frame_len;
        }
        Ok(true)
    }

    /// Fetch the stored reply for a generation-free body key, if one
    /// exists under the current generation.
    pub fn get_parsed(&self, body_key: u64) -> Option<String> {
        let inner = self.inner.lock();
        let key = parsed_key(inner.manifest.generation, body_key);
        let loc = *inner.parsed.get(&key)?;
        inner.with_entry(loc, |e| e.value.to_string())
    }

    /// Fetch the stored raw record body for `domain`, verifying the
    /// stored domain byte-for-byte (a hash collision reads as a miss).
    pub fn get_raw(&self, domain: &str) -> Option<String> {
        let lower = domain.to_lowercase();
        let inner = self.inner.lock();
        let loc = *inner.raw.get(&raw_key(&lower))?;
        inner
            .with_entry(loc, |e| (e.domain == lower).then(|| e.value.to_string()))
            .flatten()
    }

    /// Advance the persistent generation (a model swap): every stored
    /// parse becomes unreachable dead weight, raw records are
    /// untouched. Persisted before returning so a crash immediately
    /// after a swap can never resurrect old-model parses.
    pub fn bump_generation(&self, model_version: &str) -> io::Result<u64> {
        self.require_writable()?;
        let mut inner = self.inner.lock();
        inner.manifest.generation += 1;
        inner.manifest.model_version = model_version.to_string();
        let dead: u64 = inner.parsed.values().map(|l| l.frame_len).sum();
        inner.live_bytes -= dead;
        inner.parsed.clear();
        persist_manifest(&self.dir, &inner.manifest, self.sync)?;
        Ok(inner.manifest.generation)
    }

    /// Fsync the active segment (graceful-shutdown barrier for stores
    /// opened with `sync == false`).
    pub fn sync(&self) -> io::Result<()> {
        let inner = self.inner.lock();
        if let Some(active) = &inner.active {
            active.file.sync_data()?;
        }
        Ok(())
    }

    /// Whether enough dead bytes (or cap overrun) have accumulated to
    /// make a compaction pass worthwhile.
    pub fn needs_compaction(&self) -> bool {
        let inner = self.inner.lock();
        let dead = inner.dead_bytes();
        (dead >= COMPACT_DEAD_FLOOR && dead * COMPACT_DEAD_RATIO >= inner.total_bytes)
            || (self.cap_bytes > 0 && inner.total_bytes > self.cap_bytes)
    }

    /// Rewrite live entries into one fresh segment and atomically swap
    /// the manifest. If a byte cap is set and live data exceeds it,
    /// the oldest parsed entries are evicted first (they can always be
    /// re-derived), then the oldest raw records.
    ///
    /// The expensive work — scanning every segment, rewriting and
    /// fsyncing the replacement — runs with **no store lock held**: the
    /// pass seals the active segment, snapshots the (now immutable)
    /// segments and index, writes the new segment unlocked, then
    /// re-validates under the lock. An entry overwritten mid-pass keeps
    /// pointing at its newer copy (the rewritten duplicate becomes dead
    /// weight for the next pass), so serving is blocked only for the
    /// brief swap, never for the rewrite.
    pub fn compact(&self) -> io::Result<CompactionReport> {
        self.require_writable()?;
        // One pass at a time; a concurrent caller queues behind it.
        let _pass = self.compact_lock.lock();

        // Phase 1 (locked): seal the active segment so every snapshot
        // segment is immutable, snapshot segments + index, and reserve
        // the output id — an append during the pass must not collide
        // with it. (If we crash, the reserved file is unlisted and the
        // next open sweeps it.)
        let (snap_segments, snap_ids, snap_parsed, snap_raw, new_id, segments_before, bytes_before);
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            segments_before = inner.sealed.len() as u64 + u64::from(inner.active.is_some());
            bytes_before = inner.total_bytes;
            self.seal_active(inner)?;
            snap_segments = inner.sealed.clone();
            snap_ids = inner.manifest.segments.clone();
            snap_parsed = inner.parsed.clone();
            snap_raw = inner.raw.clone();
            new_id = inner.manifest.next_segment;
            inner.manifest.next_segment += 1;
        }
        let snap_set: HashSet<u64> = snap_ids.iter().copied().collect();

        // Phase 2 (unlocked): collect live entries oldest-first
        // (borrowing straight from the snapshot maps — nothing is
        // copied to the heap beyond the write buffer), enforce the
        // cap, and write + fsync the replacement segment, fully
        // durable before the manifest ever mentions it.
        struct Live<'a> {
            kind: EntryKind,
            generation: u64,
            key: u64,
            index_key: u64,
            domain: &'a str,
            value: &'a str,
            frame_len: u64,
        }
        let mut live: Vec<Live<'_>> = Vec::with_capacity(snap_parsed.len() + snap_raw.len());
        for &id in &snap_ids {
            let Some(seg) = snap_segments.iter().find(|s| s.id == id) else {
                continue;
            };
            let (entries, _) = seg.scan();
            for (off, entry) in entries {
                let index_key = match entry.kind {
                    EntryKind::Parsed => parsed_key(entry.generation, entry.key),
                    EntryKind::Raw => entry.key,
                };
                let map = match entry.kind {
                    EntryKind::Parsed => &snap_parsed,
                    EntryKind::Raw => &snap_raw,
                };
                let is_live = map
                    .get(&index_key)
                    .is_some_and(|l| l.seg == id && l.off == off);
                if is_live {
                    live.push(Live {
                        kind: entry.kind,
                        generation: entry.generation,
                        key: entry.key,
                        index_key,
                        domain: entry.domain,
                        value: entry.value,
                        frame_len: ENTRY_OVERHEAD
                            + entry.domain.len() as u64
                            + entry.value.len() as u64,
                    });
                }
            }
        }

        // Cap enforcement: evict oldest-first, parsed before raw.
        let mut evicted: Vec<(EntryKind, u64)> = Vec::new();
        let mut evicted_parsed = 0u64;
        let mut evicted_raw = 0u64;
        if self.cap_bytes > 0 {
            let mut total: u64 = MAGIC.len() as u64 + live.iter().map(|l| l.frame_len).sum::<u64>();
            for pass in [EntryKind::Parsed, EntryKind::Raw] {
                live.retain(|l| {
                    if total > self.cap_bytes && l.kind == pass {
                        total -= l.frame_len;
                        evicted.push((l.kind, l.index_key));
                        match pass {
                            EntryKind::Parsed => evicted_parsed += 1,
                            EntryKind::Raw => evicted_raw += 1,
                        }
                        false
                    } else {
                        true
                    }
                });
            }
        }

        let new_path = self.dir.join(segment::file_name(new_id));
        let mut offsets = Vec::with_capacity(live.len());
        {
            let mut w = io::BufWriter::new(File::create(&new_path)?);
            w.write_all(MAGIC)?;
            let mut off = MAGIC.len() as u64;
            for l in &live {
                let framed = segment::frame_entry(l.kind, l.generation, l.key, l.domain, l.value);
                offsets.push(off);
                w.write_all(&framed)?;
                off += framed.len() as u64;
            }
            let f = w.into_inner().map_err(|e| e.into_error())?;
            f.sync_data()?;
        }
        let new_seg = Arc::new(Segment::open(&self.dir, new_id)?);

        // Phase 3 (locked): re-point index entries still served from a
        // snapshot segment at their rewritten copies, drop cap
        // evictions the same guarded way, and commit the manifest.
        // Entries appended or overwritten during phase 2 live in
        // post-seal segments — their index locations are left alone.
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        for (l, &off) in live.iter().zip(&offsets) {
            let map = match l.kind {
                EntryKind::Parsed => &mut inner.parsed,
                EntryKind::Raw => &mut inner.raw,
            };
            if let Some(cur) = map.get_mut(&l.index_key) {
                if snap_set.contains(&cur.seg) {
                    *cur = Loc {
                        seg: new_id,
                        off,
                        frame_len: l.frame_len,
                    };
                }
            }
        }
        for (kind, index_key) in &evicted {
            let map = match kind {
                EntryKind::Parsed => &mut inner.parsed,
                EntryKind::Raw => &mut inner.raw,
            };
            if map
                .get(index_key)
                .is_some_and(|cur| snap_set.contains(&cur.seg))
            {
                map.remove(index_key);
            }
        }

        // The new segment precedes every post-seal segment in the list
        // (manifest order is age order — the rebuild-on-open scan
        // relies on last-write-wins).
        let mut manifest = inner.manifest.clone();
        let survivors: Vec<u64> = manifest
            .segments
            .iter()
            .copied()
            .filter(|id| !snap_set.contains(id))
            .collect();
        manifest.segments = std::iter::once(new_id).chain(survivors).collect();
        manifest.next_segment = manifest.next_segment.max(new_id + 1);
        manifest.compactions += 1;
        persist_manifest(&self.dir, &manifest, self.sync)?;

        // The swap is committed; the snapshot segments are garbage.
        for &id in &snap_ids {
            let _ = fs::remove_file(self.dir.join(segment::file_name(id)));
        }

        inner.manifest = manifest;
        inner.sealed.retain(|s| !snap_set.contains(&s.id));
        inner.sealed.insert(0, new_seg);
        inner.total_bytes = inner.sealed.iter().map(|s| s.len()).sum::<u64>()
            + inner.active.as_ref().map_or(0, |a| a.len);
        inner.live_bytes = inner.parsed.values().map(|l| l.frame_len).sum::<u64>()
            + inner.raw.values().map(|l| l.frame_len).sum::<u64>();

        Ok(CompactionReport {
            segments_before,
            segments_after: inner.manifest.segments.len() as u64,
            bytes_before,
            bytes_after: inner.total_bytes,
            evicted_parsed,
            evicted_raw,
        })
    }

    /// Full scan of every segment: CRC-check all frames and cross-check
    /// the index against what is actually on disk.
    pub fn verify(&self) -> VerifyReport {
        let inner = self.inner.lock();
        let mut entries = 0u64;
        let mut bytes_scanned = 0u64;
        let mut torn_bytes = 0u64;
        for &id in &inner.manifest.segments {
            if let Some(bytes) = inner.segment_bytes(id, 0, None) {
                bytes_scanned += bytes.len() as u64;
                let (found, torn) = segment::scan_bytes(&bytes);
                entries += found.len() as u64;
                torn_bytes += torn;
            }
        }
        let mut index_mismatches = 0u64;
        for (&key, &loc) in &inner.parsed {
            let ok = inner.with_entry(loc, |e| {
                e.kind == EntryKind::Parsed && parsed_key(e.generation, e.key) == key
            });
            if ok != Some(true) {
                index_mismatches += 1;
            }
        }
        for (&key, &loc) in &inner.raw {
            let ok = inner.with_entry(loc, |e| e.kind == EntryKind::Raw && e.key == key);
            if ok != Some(true) {
                index_mismatches += 1;
            }
        }
        VerifyReport {
            segments: inner.manifest.segments.len() as u64,
            entries,
            bytes_scanned,
            torn_bytes,
            index_parsed: inner.parsed.len() as u64,
            index_raw: inner.raw.len() as u64,
            index_mismatches,
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            segments: inner.manifest.segments.len() as u64,
            total_bytes: inner.total_bytes,
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes(),
            parsed_entries: inner.parsed.len() as u64,
            raw_entries: inner.raw.len() as u64,
            generation: inner.manifest.generation,
            compactions: inner.manifest.compactions,
            last_recovery_truncated: inner.last_recovery_truncated,
        }
    }

    /// Fail every mutating call on an inspection-only store.
    fn require_writable(&self) -> io::Result<()> {
        if self.readonly {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("{}: store opened read-only", self.dir.display()),
            ));
        }
        Ok(())
    }

    /// Seal the active segment: fsync it and map it read-only alongside
    /// the other sealed segments. The next append starts a fresh active
    /// segment.
    fn seal_active(&self, inner: &mut Inner) -> io::Result<()> {
        match &inner.active {
            Some(active) => active.file.sync_data()?,
            None => return Ok(()),
        }
        let active = inner.active.take().expect("checked above");
        let id = active.id;
        drop(active);
        inner.sealed.push(Arc::new(Segment::open(&self.dir, id)?));
        Ok(())
    }

    /// Append one framed entry to the active segment (creating it — and
    /// registering it in the manifest — on first use since open or the
    /// last seal), sealing the segment afterwards if it has reached the
    /// size threshold.
    fn append_entry(
        &self,
        inner: &mut Inner,
        kind: EntryKind,
        generation: u64,
        key: u64,
        domain: &str,
        value: &str,
    ) -> io::Result<Loc> {
        // Refuse what `decode_frame` would reject on reopen: an
        // oversized frame acknowledged here would read as a torn tail
        // and silently truncate every entry acknowledged after it.
        let payload_len = 1 + 8 + 8 + 4 + domain.len() + 4 + value.len();
        if payload_len > MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "entry for {domain:?} is {payload_len} payload bytes, \
                     over the {MAX_FRAME}-byte frame cap"
                ),
            ));
        }
        if inner.active.is_none() {
            let id = inner.manifest.next_segment;
            let path = self.dir.join(segment::file_name(id));
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(&path)?;
            file.write_all(MAGIC)?;
            if self.sync {
                file.sync_data()?;
            }
            // The manifest must list the segment before any entry is
            // acknowledged, or recovery would sweep it as a stray.
            let mut manifest = inner.manifest.clone();
            manifest.segments.push(id);
            manifest.next_segment = id + 1;
            persist_manifest(&self.dir, &manifest, self.sync)?;
            inner.manifest = manifest;
            inner.total_bytes += MAGIC.len() as u64;
            inner.active = Some(Active {
                id,
                file,
                len: MAGIC.len() as u64,
            });
        }
        let sync = self.sync;
        let active = inner.active.as_mut().unwrap();
        let framed = segment::frame_entry(kind, generation, key, domain, value);
        if let Err(e) = active.file.write_all(&framed) {
            // Cut a partial frame back off so the file stays exactly
            // `len` bytes of whole frames: later frames' offsets, and
            // the next open's scan, depend on it.
            let _ = active.file.set_len(active.len);
            return Err(e);
        }
        active.file.flush()?;
        if sync {
            active.file.sync_data()?;
        }
        // Only a frame that is wholly in the file gets a location, so
        // the index never points at bytes a read could find half-written.
        let loc = Loc {
            seg: active.id,
            off: active.len,
            frame_len: framed.len() as u64,
        };
        active.len += loc.frame_len;
        let full = active.len >= self.seal_bytes;
        inner.total_bytes += framed.len() as u64;
        if full {
            self.seal_active(inner)?;
        }
        Ok(loc)
    }
}

/// Take the single-writer lock: an exclusive advisory lock on `LOCK`
/// in the store directory, held until the returned handle drops. Both
/// locks on one open file description, so a second writable open in
/// the *same* process conflicts too.
fn acquire_write_lock(dir: &Path) -> io::Result<File> {
    let lock = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(TryLockError::WouldBlock) => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "store is locked by another writer (a daemon or an offline \
             `whoisml store compact`)",
        )),
        Err(TryLockError::Error(e)) => Err(e),
    }
}

/// Fill `buf` from `file` at `off` without moving the file's cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut off: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, off)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                off += n as u64;
            }
        }
    }
    Ok(())
}

fn check_format(manifest: &Manifest) -> io::Result<()> {
    if manifest.format != MANIFEST_FORMAT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported store manifest format {:?}", manifest.format),
        ));
    }
    Ok(())
}

/// Rebuild the index from sealed segments, last write wins (segments
/// in manifest order, offsets in append order). Parsed entries from
/// other generations are dead weight until compaction. Returns
/// `(parsed, raw, total_bytes, live_bytes)`.
#[allow(clippy::type_complexity)]
fn build_index(
    sealed: &[Arc<Segment>],
    generation: u64,
) -> (HashMap<u64, Loc>, HashMap<u64, Loc>, u64, u64) {
    let mut parsed = HashMap::new();
    let mut raw = HashMap::new();
    let mut total_bytes = 0u64;
    let mut live_bytes = 0u64;
    for seg in sealed {
        total_bytes += seg.len();
        let (entries, _) = seg.scan();
        for (off, entry) in entries {
            let frame_len = ENTRY_OVERHEAD + entry.domain.len() as u64 + entry.value.len() as u64;
            let loc = Loc {
                seg: seg.id,
                off,
                frame_len,
            };
            let slot = match entry.kind {
                EntryKind::Parsed => {
                    if entry.generation != generation {
                        continue;
                    }
                    parsed.insert(parsed_key(entry.generation, entry.key), loc)
                }
                EntryKind::Raw => raw.insert(entry.key, loc),
            };
            live_bytes += frame_len;
            if let Some(old) = slot {
                live_bytes -= old.frame_len;
            }
        }
    }
    (parsed, raw, total_bytes, live_bytes)
}

/// Truncate a listed segment back to its last whole frame (or recreate
/// it empty if even the magic is torn). Returns the bytes dropped.
fn recover_segment(dir: &Path, id: u64) -> io::Result<u64> {
    let path = dir.join(segment::file_name(id));
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        // Listed but missing: the crash hit between manifest persist
        // and the first append ever reaching disk. Recreate empty.
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let valid_end = if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Torn inside the magic itself — nothing to salvage.
        fs::write(&path, MAGIC)?;
        return Ok(bytes.len() as u64);
    } else {
        let (_, torn) = segment::scan_bytes(&bytes);
        bytes.len() as u64 - torn
    };
    let dropped = bytes.len() as u64 - valid_end;
    if dropped > 0 {
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(valid_end)?;
        file.sync_data()?;
    }
    Ok(dropped)
}

/// Write the manifest durably: temp file, fsync, rename over the old
/// one, fsync the directory. Readers see the old or the new manifest,
/// never a partial one.
fn persist_manifest(dir: &Path, manifest: &Manifest, sync: bool) -> io::Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    let json = serde_json::to_string_pretty(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        .into_bytes();
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&json)?;
        if sync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, dir.join(MANIFEST))?;
    if sync {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Background compaction driver: polls [`RecordStore::needs_compaction`]
/// on an interval and compacts when it fires.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the compaction thread.
    pub fn start(store: Arc<RecordStore>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("whois-store-compactor".to_string())
            .spawn(move || {
                // Poll in short slices so stop() returns promptly even
                // with multi-second intervals.
                let slice = Duration::from_millis(25);
                let mut elapsed = Duration::ZERO;
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed < interval {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    if store.needs_compaction() {
                        let _ = store.compact();
                    }
                }
            })
            .expect("spawn compactor thread");
        Compactor {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::cache_key;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("whois-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_within_one_run() {
        let dir = tmp_dir("roundtrip");
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        let k = cache_key(0, "a.com", "Domain Name: A\n");
        assert!(store.put_parsed(k, "PARSED a.com\n").unwrap());
        assert!(!store.put_parsed(k, "PARSED a.com\n").unwrap(), "dedup");
        assert_eq!(store.get_parsed(k).as_deref(), Some("PARSED a.com\n"));
        assert!(store.put_raw("A.com", "Domain Name: A\n").unwrap());
        assert_eq!(store.get_raw("a.COM").as_deref(), Some("Domain Name: A\n"));
        assert!(store.get_parsed(k ^ 1).is_none());
        assert!(store.get_raw("b.com").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_everything() {
        let dir = tmp_dir("reopen");
        let k = cache_key(0, "a.com", "body\n");
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
            store.put_parsed(k, "reply-a\n").unwrap();
            store.put_raw("b.com", "raw-b\n").unwrap();
            store.sync().unwrap();
        }
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert_eq!(store.get_parsed(k).as_deref(), Some("reply-a\n"));
        assert_eq!(store.get_raw("b.com").as_deref(), Some("raw-b\n"));
        let stats = store.stats();
        assert_eq!(stats.parsed_entries, 1);
        assert_eq!(stats.raw_entries, 1);
        assert_eq!(stats.last_recovery_truncated, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_swap_keeps_raw_drops_parsed() {
        let dir = tmp_dir("swap");
        let k = cache_key(0, "a.com", "body\n");
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
            store.put_parsed(k, "old-model-reply\n").unwrap();
            store.put_raw("a.com", "body\n").unwrap();
            store.sync().unwrap();
        }
        // Same store, different model: generation bumps at open.
        let store = RecordStore::open_for_model(&dir, "m2", 0, false).unwrap();
        assert!(store.get_parsed(k).is_none(), "old parse fenced off");
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        // In-process swap does the same.
        store.put_parsed(k, "m2-reply\n").unwrap();
        assert_eq!(store.get_parsed(k).as_deref(), Some("m2-reply\n"));
        let g = store.bump_generation("m3").unwrap();
        assert!(g >= 3);
        assert!(store.get_parsed(k).is_none());
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_whole_frame() {
        let dir = tmp_dir("torn");
        let keys: Vec<u64> = (0..4)
            .map(|i| cache_key(0, "d.com", &format!("b{i}")))
            .collect();
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
            for (i, &k) in keys.iter().enumerate() {
                store.put_parsed(k, &format!("reply-{i}\n")).unwrap();
            }
            store.sync().unwrap();
        }
        // Tear the active segment mid-final-frame.
        let seg = dir.join(segment::file_name(0));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        let stats = store.stats();
        assert!(stats.last_recovery_truncated > 0);
        assert_eq!(stats.parsed_entries, 3, "only the torn entry is lost");
        for (i, &k) in keys.iter().enumerate().take(3) {
            assert_eq!(
                store.get_parsed(k).as_deref(),
                Some(&*format!("reply-{i}\n"))
            );
        }
        assert!(store.get_parsed(keys[3]).is_none());
        // The store stays appendable after recovery.
        assert!(store.put_parsed(keys[3], "reply-3 again\n").unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_dead_weight_and_preserves_live() {
        let dir = tmp_dir("compact");
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        let k = cache_key(0, "a.com", "body\n");
        store.put_parsed(k, "reply\n").unwrap();
        for i in 0..50 {
            store
                .put_raw("churn.com", &format!("version {i}\n"))
                .unwrap();
        }
        store.put_raw("keep.com", "kept body\n").unwrap();
        let before = store.stats();
        assert!(before.dead_bytes > 0);
        let report = store.compact().unwrap();
        assert!(report.bytes_after < report.bytes_before);
        let after = store.stats();
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.segments, 1);
        assert_eq!(store.get_parsed(k).as_deref(), Some("reply\n"));
        assert_eq!(store.get_raw("churn.com").as_deref(), Some("version 49\n"));
        assert_eq!(store.get_raw("keep.com").as_deref(), Some("kept body\n"));
        // Still writable and reopenable after compaction.
        store.put_raw("post.com", "post-compaction\n").unwrap();
        store.sync().unwrap();
        drop(store);
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert_eq!(
            store.get_raw("post.com").as_deref(),
            Some("post-compaction\n")
        );
        assert_eq!(store.get_parsed(k).as_deref(), Some("reply\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cap_evicts_parsed_before_raw_oldest_first() {
        let dir = tmp_dir("cap");
        let store = RecordStore::open_for_model(&dir, "m1", 600, false).unwrap();
        let filler = "x".repeat(80);
        let keys: Vec<u64> = (0..6)
            .map(|i| cache_key(0, "d.com", &format!("p{i}")))
            .collect();
        for &k in &keys {
            store.put_parsed(k, &filler).unwrap();
        }
        store.put_raw("raw.com", &filler).unwrap();
        assert!(store.needs_compaction(), "over cap");
        let report = store.compact().unwrap();
        assert!(report.evicted_parsed > 0);
        assert_eq!(report.evicted_raw, 0, "raw outlives parsed under cap");
        assert!(store.stats().total_bytes <= 600);
        assert_eq!(store.get_raw("raw.com").as_deref(), Some(filler.as_str()));
        // The survivors are the *newest* parsed entries.
        assert!(store.get_parsed(keys[0]).is_none());
        assert!(store.get_parsed(*keys.last().unwrap()).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_segments_are_swept_on_open() {
        let dir = tmp_dir("stray");
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
            store.put_raw("a.com", "body\n").unwrap();
            store.sync().unwrap();
        }
        // Simulate a compaction that crashed after writing its output
        // but before the manifest swap.
        let stray = dir.join(segment::file_name(99));
        fs::write(&stray, MAGIC).unwrap();
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert!(!stray.exists(), "stray segment swept");
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_reports_clean_store() {
        let dir = tmp_dir("verify");
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        store.put_raw("a.com", "body\n").unwrap();
        store
            .put_parsed(cache_key(0, "a.com", "body\n"), "reply\n")
            .unwrap();
        let report = store.verify();
        assert!(report.ok());
        assert_eq!(report.entries, 2);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.index_parsed, 1);
        assert_eq!(report.index_raw, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_entry_is_rejected_not_acknowledged() {
        let dir = tmp_dir("oversized");
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        store.put_raw("ok.com", "fits\n").unwrap();
        // Release builds must refuse this too: an acked over-cap frame
        // would decode as a torn tail on reopen, silently truncating
        // it and everything acknowledged after it.
        let huge = "x".repeat(crate::frame::MAX_FRAME as usize + 1);
        let err = store.put_raw("big.com", &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = store
            .put_parsed(cache_key(0, "big.com", "b"), &huge)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        store.put_raw("after.com", "still fine\n").unwrap();
        drop(store);
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert_eq!(store.stats().last_recovery_truncated, 0);
        assert_eq!(store.get_raw("ok.com").as_deref(), Some("fits\n"));
        assert_eq!(store.get_raw("after.com").as_deref(), Some("still fine\n"));
        assert!(store.get_raw("big.com").is_none());
        assert!(store.verify().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn active_segment_seals_at_threshold() {
        let dir = tmp_dir("seal");
        let body = "b".repeat(512);
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false)
                .unwrap()
                .with_seal_bytes(4 << 10);
            for i in 0..40 {
                store.put_raw(&format!("d{i}.com"), &body).unwrap();
            }
            let stats = store.stats();
            assert!(
                stats.segments > 1,
                "the size threshold must seal mid-run: {stats:?}"
            );
            for i in 0..40 {
                assert_eq!(
                    store.get_raw(&format!("d{i}.com")).as_deref(),
                    Some(body.as_str()),
                    "entry d{i} must survive its segment sealing"
                );
            }
            assert!(store.verify().ok());
        }
        // A store sealed mid-run reopens like any other, and
        // compaction folds the segments back into one.
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert_eq!(store.stats().raw_entries, 40);
        let report = store.compact().unwrap();
        assert!(report.segments_before > 1);
        assert_eq!(store.stats().segments, 1);
        assert_eq!(store.get_raw("d0.com").as_deref(), Some(body.as_str()));
        assert_eq!(store.get_raw("d39.com").as_deref(), Some(body.as_str()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn just_written_entries_read_back_across_seals_and_a_reopen() {
        let dir = tmp_dir("interleave");
        // Sizes that put frames on both sides of every seal, with
        // multibyte text so a misplaced offset cannot decode.
        let raw = |i: usize| {
            format!(
                "Domain Name: d{i}.com\nRegistrant: Zoë №{i}\n{}",
                "r".repeat(i * 37 % 900)
            )
        };
        let reply = |i: usize| {
            format!(
                "{{\"ok\":true,\"n\":{i},\"pad\":\"{}\"}}",
                "p".repeat(i * 53 % 700)
            )
        };
        let key = |i: usize| cache_key(0, &format!("d{i}.com"), &raw(i));
        let check = |store: &RecordStore, upto: usize| {
            for j in 0..upto {
                assert_eq!(
                    store.get_raw(&format!("D{j}.com")),
                    Some(raw(j)),
                    "raw {j} of {upto}"
                );
                assert_eq!(
                    store.get_parsed(key(j)),
                    Some(reply(j)),
                    "parsed {j} of {upto}"
                );
            }
        };
        let open = || {
            RecordStore::open_for_model(&dir, "m1", 0, false)
                .unwrap()
                .with_seal_bytes(8 << 10)
        };
        let store = open();
        for i in 0..60 {
            assert!(store.put_raw(&format!("d{i}.com"), &raw(i)).unwrap());
            assert_eq!(store.get_raw(&format!("d{i}.com")), Some(raw(i)));
            assert!(store.put_parsed(key(i), &reply(i)).unwrap());
            assert_eq!(store.get_parsed(key(i)), Some(reply(i)));
            // The identical body is recognised from the active segment too.
            assert!(!store.put_raw(&format!("d{i}.com"), &raw(i)).unwrap());
            if i % 10 == 9 {
                check(&store, i + 1);
            }
        }
        let stats = store.stats();
        assert!(stats.segments > 2, "seals must have happened: {stats:?}");
        assert!(store.verify().ok());
        store.sync().unwrap();
        drop(store);

        let store = open();
        assert_eq!(store.stats().last_recovery_truncated, 0);
        check(&store, 60);
        // Appends after the reopen land in a fresh active segment and
        // read back beside everything recovered from the sealed ones.
        for i in 60..90 {
            assert!(store.put_raw(&format!("d{i}.com"), &raw(i)).unwrap());
            assert!(store.put_parsed(key(i), &reply(i)).unwrap());
            assert_eq!(store.get_parsed(key(i)), Some(reply(i)));
        }
        check(&store, 90);
        assert!(store.verify().ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readonly_open_never_mutates_and_rejects_writes() {
        let dir = tmp_dir("readonly");
        let k = cache_key(0, "a.com", "body\n");
        {
            let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
            store.put_raw("a.com", "body\n").unwrap();
            store.put_parsed(k, "reply\n").unwrap();
            store.sync().unwrap();
        }
        // Plant everything a *writable* open would clean up: a stray
        // segment, a manifest temp file, and a torn tail.
        let stray = dir.join(segment::file_name(77));
        fs::write(&stray, MAGIC).unwrap();
        fs::write(dir.join(MANIFEST_TMP), b"half-written").unwrap();
        let seg0 = dir.join(segment::file_name(0));
        let clean_len = fs::read(&seg0).unwrap().len();
        let mut torn = fs::read(&seg0).unwrap();
        torn.extend_from_slice(&[0xAB; 5]);
        fs::write(&seg0, &torn).unwrap();

        let store = RecordStore::open_readonly(&dir).unwrap();
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        assert_eq!(store.get_parsed(k).as_deref(), Some("reply\n"));
        assert!(store.verify().ok());
        for err in [
            store.put_raw("b.com", "x").unwrap_err(),
            store.put_parsed(1, "x").unwrap_err(),
            store.bump_generation("m2").unwrap_err(),
            store.compact().unwrap_err(),
        ] {
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        }
        drop(store);
        assert!(stray.exists(), "read-only open must not sweep strays");
        assert!(
            dir.join(MANIFEST_TMP).exists(),
            "read-only open must not delete the manifest temp"
        );
        assert_eq!(
            fs::read(&seg0).unwrap().len(),
            torn.len(),
            "read-only open must not truncate torn tails"
        );

        // A writable open still recovers and sweeps all of it.
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert!(!stray.exists());
        assert!(!dir.join(MANIFEST_TMP).exists());
        assert_eq!(fs::read(&seg0).unwrap().len(), clean_len);
        assert!(store.stats().last_recovery_truncated > 0);
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_writer_is_locked_out_while_readers_are_not() {
        let dir = tmp_dir("lock");
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        store.put_raw("a.com", "body\n").unwrap();
        let err = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        let err = RecordStore::open_existing(&dir, 0, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // Inspection needs no lock and sees the live writer's data.
        let ro = RecordStore::open_readonly(&dir).unwrap();
        assert_eq!(ro.get_raw("a.com").as_deref(), Some("body\n"));
        drop(ro);
        drop(store);
        // The lock dies with the writer: maintenance can take over.
        let store = RecordStore::open_existing(&dir, 0, false).unwrap();
        store.compact().unwrap();
        assert_eq!(store.get_raw("a.com").as_deref(), Some("body\n"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn puts_racing_a_compaction_survive() {
        let dir = tmp_dir("race");
        let store = Arc::new(RecordStore::open_for_model(&dir, "m1", 0, false).unwrap());
        // Build a store with dead weight (every key overwritten once).
        for round in 0..2 {
            for i in 0..200 {
                store
                    .put_raw(&format!("d{i}.com"), &format!("r{round}-{i}"))
                    .unwrap();
            }
        }
        // Overwrite half the keys and add new ones while a compaction
        // pass runs: whatever the interleaving, last write must win
        // and nothing may be lost.
        let compactor = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.compact().unwrap())
        };
        for i in 0..100 {
            store
                .put_raw(&format!("d{i}.com"), &format!("mid-{i}"))
                .unwrap();
        }
        for i in 200..300 {
            store
                .put_raw(&format!("d{i}.com"), &format!("new-{i}"))
                .unwrap();
        }
        compactor.join().unwrap();
        for i in 0..100 {
            assert_eq!(
                store.get_raw(&format!("d{i}.com")).as_deref(),
                Some(format!("mid-{i}").as_str())
            );
        }
        for i in 100..200 {
            assert_eq!(
                store.get_raw(&format!("d{i}.com")).as_deref(),
                Some(format!("r1-{i}").as_str())
            );
        }
        for i in 200..300 {
            assert_eq!(
                store.get_raw(&format!("d{i}.com")).as_deref(),
                Some(format!("new-{i}").as_str())
            );
        }
        assert!(store.verify().ok());
        store.sync().unwrap();
        drop(store);
        // Everything above survives a reopen (the manifest kept the
        // compacted segment *and* the mid-pass active segment, oldest
        // first).
        let store = RecordStore::open_for_model(&dir, "m1", 0, false).unwrap();
        assert_eq!(store.stats().raw_entries, 300);
        assert_eq!(store.get_raw("d0.com").as_deref(), Some("mid-0"));
        assert_eq!(store.get_raw("d150.com").as_deref(), Some("r1-150"));
        assert_eq!(store.get_raw("d250.com").as_deref(), Some("new-250"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compactor_thread_compacts_and_stops() {
        let dir = tmp_dir("compactor");
        let store = Arc::new(RecordStore::open_for_model(&dir, "m1", 0, false).unwrap());
        // Manufacture > 256 KiB of dead bytes.
        let big = "y".repeat(64 << 10);
        for i in 0..8 {
            store.put_raw("same.com", &format!("{big}{i}")).unwrap();
        }
        assert!(store.needs_compaction());
        let compactor = Compactor::start(Arc::clone(&store), Duration::from_millis(50));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while store.stats().compactions == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        compactor.stop();
        assert!(store.stats().compactions >= 1, "compactor never fired");
        assert!(store.get_raw("same.com").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
