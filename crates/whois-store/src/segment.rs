//! Segment files: CRC-framed runs of store entries.
//!
//! A segment is `"WSS1"` followed by [`frame`]-encoded
//! entries. Each entry payload is:
//!
//! ```text
//! kind:        u8      0 = raw record, 1 = parsed result
//! generation:  u64 LE  store model generation (0 for raw entries)
//! key:         u64 LE  generation-free body key (parsed) / domain key (raw)
//! domain_len:  u32 LE
//! domain:      bytes   the queried domain, lower-cased
//! value_len:   u32 LE
//! value:       bytes   record body (raw) / serialized reply (parsed)
//! ```
//!
//! The generation and the generation-free key travel *inside* the entry
//! so the index can be rebuilt from a bare scan: parsed entries from an
//! older generation are simply skipped (dead weight until compaction),
//! raw entries never expire. A torn tail — short write or CRC mismatch
//! mid-frame — ends the scan at the last whole entry.

use crate::frame::{self, FRAME_HEADER};
use crate::mmap::MappedFile;
use std::io;
use std::path::{Path, PathBuf};

/// Segment file magic.
pub const MAGIC: &[u8; 4] = b"WSS1";

/// What an entry holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// A fetched WHOIS record body.
    Raw,
    /// A serialized parse reply for one (generation, domain, body).
    Parsed,
}

/// One decoded entry, borrowing from the segment's bytes.
pub struct EntryRef<'a> {
    pub kind: EntryKind,
    pub generation: u64,
    pub key: u64,
    pub domain: &'a str,
    pub value: &'a str,
}

/// Encode one entry payload (the bytes that go inside a frame).
pub fn encode_entry(
    kind: EntryKind,
    generation: u64,
    key: u64,
    domain: &str,
    value: &str,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 8 + 4 + domain.len() + 4 + value.len());
    out.push(match kind {
        EntryKind::Raw => 0,
        EntryKind::Parsed => 1,
    });
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(domain.len() as u32).to_le_bytes());
    out.extend_from_slice(domain.as_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(value.as_bytes());
    out
}

/// Decode one entry payload; `None` on any structural mismatch (which a
/// CRC-valid frame should never produce — treated as corruption).
pub fn decode_entry(payload: &[u8]) -> Option<EntryRef<'_>> {
    let kind = match *payload.first()? {
        0 => EntryKind::Raw,
        1 => EntryKind::Parsed,
        _ => return None,
    };
    let generation = u64::from_le_bytes(payload.get(1..9)?.try_into().ok()?);
    let key = u64::from_le_bytes(payload.get(9..17)?.try_into().ok()?);
    let domain_len = u32::from_le_bytes(payload.get(17..21)?.try_into().ok()?) as usize;
    let domain_end = 21usize.checked_add(domain_len)?;
    let domain = std::str::from_utf8(payload.get(21..domain_end)?).ok()?;
    let value_len =
        u32::from_le_bytes(payload.get(domain_end..domain_end + 4)?.try_into().ok()?) as usize;
    let value_start = domain_end + 4;
    let value_end = value_start.checked_add(value_len)?;
    if value_end != payload.len() {
        return None;
    }
    let value = std::str::from_utf8(payload.get(value_start..value_end)?).ok()?;
    Some(EntryRef {
        kind,
        generation,
        key,
        domain,
        value,
    })
}

/// The canonical file name for segment `id`.
pub fn file_name(id: u64) -> String {
    format!("seg-{id:08}.wss")
}

/// A sealed (read-only, memory-mapped) segment.
pub struct Segment {
    pub id: u64,
    pub path: PathBuf,
    map: MappedFile,
}

impl Segment {
    /// Open the segment file, verifying its magic.
    pub fn open(dir: &Path, id: u64) -> io::Result<Self> {
        let path = dir.join(file_name(id));
        let map = MappedFile::open(&path)?;
        if map.len() < MAGIC.len() || &map[..MAGIC.len()] != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a store segment (bad magic)", path.display()),
            ));
        }
        Ok(Segment { id, path, map })
    }

    /// Total bytes in the file (including magic and framing).
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// The segment's full image (magic + frames).
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// True when the segment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.len() <= MAGIC.len()
    }

    /// Decode the entry whose *frame* starts at `offset`.
    pub fn entry_at(&self, offset: u64) -> Option<EntryRef<'_>> {
        let (payload, _) = frame::decode_frame(self.map.get(offset as usize..)?)?;
        decode_entry(payload)
    }

    /// Scan every whole entry: `(frame_offset, entry)` pairs in file
    /// order, plus the number of torn-tail bytes past the last whole
    /// frame (0 for a clean segment).
    pub fn scan(&self) -> (Vec<(u64, EntryRef<'_>)>, u64) {
        scan_bytes(&self.map)
    }
}

/// Scan a segment image (magic + frames) for whole entries; shared by
/// [`Segment::scan`] and the writer's pre-seal self-check.
pub fn scan_bytes(bytes: &[u8]) -> (Vec<(u64, EntryRef<'_>)>, u64) {
    let mut entries = Vec::new();
    let mut pos = MAGIC.len();
    while pos < bytes.len() {
        match frame::decode_frame(&bytes[pos..]) {
            Some((payload, consumed)) => match decode_entry(payload) {
                Some(entry) => {
                    entries.push((pos as u64, entry));
                    pos += consumed;
                }
                None => break,
            },
            None => break,
        }
    }
    (entries, (bytes.len() - pos) as u64)
}

/// Frame an entry for appending to a segment: returns the framed bytes
/// and the payload they carry.
pub fn frame_entry(
    kind: EntryKind,
    generation: u64,
    key: u64,
    domain: &str,
    value: &str,
) -> Vec<u8> {
    let payload = encode_entry(kind, generation, key, domain, value);
    let mut framed = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame::append_frame(&mut framed, &payload);
    framed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip() {
        let payload = encode_entry(
            EntryKind::Parsed,
            7,
            0xDEAD_BEEF,
            "example.com",
            "PARSED example.com 1 field\n",
        );
        let e = decode_entry(&payload).unwrap();
        assert_eq!(e.kind, EntryKind::Parsed);
        assert_eq!(e.generation, 7);
        assert_eq!(e.key, 0xDEAD_BEEF);
        assert_eq!(e.domain, "example.com");
        assert_eq!(e.value, "PARSED example.com 1 field\n");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_entry(EntryKind::Raw, 0, 1, "a.com", "body");
        payload.push(0x00);
        assert!(decode_entry(&payload).is_none());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut payload = encode_entry(EntryKind::Raw, 0, 1, "a.com", "body");
        payload[0] = 9;
        assert!(decode_entry(&payload).is_none());
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame_entry(EntryKind::Raw, 0, 1, "a.com", "A"));
        bytes.extend_from_slice(&frame_entry(EntryKind::Raw, 0, 2, "b.com", "B"));
        let clean_len = bytes.len();
        bytes.extend_from_slice(&frame_entry(EntryKind::Raw, 0, 3, "c.com", "C")[..5]);
        let (entries, torn) = scan_bytes(&bytes);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].1.domain, "b.com");
        assert_eq!(torn, (bytes.len() - clean_len) as u64);
    }
}
