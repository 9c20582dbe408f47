//! Durable brick storage: the paper's `store(var)` primitive as a real
//! append-only log on disk.
//!
//! A brick's protocol state — per-stripe `ord-ts` and version logs — must
//! survive crashes (§2's crash-recovery model assumes persistent storage
//! with atomic `store`). The simulator models that implicitly; this crate
//! provides it physically for the threaded runtime:
//!
//! * **[`BrickStore`]** — one append-only file per brick. Every replica
//!   mutation ([`PersistEvent`]) is appended as a length-prefixed,
//!   CRC-checked record and synced; on open, the file is replayed to
//!   rebuild the in-memory state, stopping (and truncating) at the first
//!   torn or corrupt record — the standard write-ahead-log discipline.
//! * **Compaction** — version logs are GC'd in memory as §5.1 directs, but
//!   the file grows with history; [`BrickStore::compact`] rewrites it as a
//!   snapshot of live state (atomic rename), bounding disk usage.
//!
//! The record format is a tiny hand-rolled binary framing (the workspace
//! deliberately has no serialization-format dependency):
//!
//! ```text
//! record  := len: u32le | crc32(body) | body
//! body    := stripe: u64le | kind: u8 | ts.ticks: u64le | ts.pid: u32le | payload
//! kind    := 0 OrdTs | 1 ⊥ entry | 2 nil entry | 3 data entry | 4 GC | 5 batch
//! payload := (kind 3 only) data_len: u32le | bytes
//! ```
//!
//! A **batch** record (kind 5) carries several logical records under one
//! record-level CRC: its stripe field holds the sub-record count, its
//! timestamp is zero, and its payload is a sequence of
//! `sub_len: u32le | sub_body` entries, each `sub_body` in the single-record
//! body format above (nesting is rejected). Because the whole batch lives
//! under one CRC, a torn write makes the *entire* batch invisible on
//! replay — group commit is all-or-nothing, never a prefix.
//!
//! [`BrickStore::append_batch`] writes a batch with one `write_all` + one
//! `sync_data`; the brick host commits once per turn of its event loop
//! (see [`commit`]), so requests that queued during one sync share the
//! next.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use bytes::Bytes;
use fab_core::{BlockValue, Log, PersistEvent, StripeId};
use fab_timestamp::{ProcessId, Timestamp};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub mod commit;
mod crc32;
pub use commit::{CommitStats, CommitStatsHandle, CommitStore};
pub use crc32::crc32;

/// Errors from the brick store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "brick store I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The recovered persistent state of one stripe register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeState {
    /// The persistent `ord-ts`.
    pub ord_ts: Timestamp,
    /// The persistent version log.
    pub log: Log,
}

impl Default for StripeState {
    fn default() -> Self {
        StripeState {
            ord_ts: Timestamp::LOW,
            log: Log::new(),
        }
    }
}

const KIND_ORD: u8 = 0;
const KIND_BOTTOM: u8 = 1;
const KIND_NIL: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_GC: u8 = 4;
const KIND_BATCH: u8 = 5;

/// Smallest valid body: stripe + kind + ticks + pid.
const MIN_BODY: usize = 8 + 1 + 8 + 4;

/// Appends one single-record *body* (no `len|crc` framing) to `out`.
fn encode_body_into(out: &mut Vec<u8>, stripe: StripeId, event: &PersistEvent) {
    out.extend_from_slice(&stripe.0.to_le_bytes());
    let (kind, ts, payload): (u8, Timestamp, Option<&Bytes>) = match event {
        PersistEvent::OrdTs(ts) => (KIND_ORD, *ts, None),
        PersistEvent::Entry(ts, BlockValue::Bottom) => (KIND_BOTTOM, *ts, None),
        PersistEvent::Entry(ts, BlockValue::Nil) => (KIND_NIL, *ts, None),
        PersistEvent::Entry(ts, BlockValue::Data(b)) => (KIND_DATA, *ts, Some(b)),
        PersistEvent::Gc(ts) => (KIND_GC, *ts, None),
    };
    out.push(kind);
    out.extend_from_slice(&ts.ticks().to_le_bytes());
    out.extend_from_slice(&ts.pid().value().to_le_bytes());
    if let Some(data) = payload {
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
    }
}

/// Patches the 8-byte `len | crc` prefix reserved at `frame_at`, covering
/// the body bytes written at `frame_at + 8 ..` (which must be the current
/// tail of `out`).
fn finish_record(out: &mut [u8], frame_at: usize) {
    let body_len = (out.len() - frame_at - 8) as u32;
    let crc = crc32(&out[frame_at + 8..]);
    out[frame_at..frame_at + 4].copy_from_slice(&body_len.to_le_bytes());
    out[frame_at + 4..frame_at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends one framed record (`len | crc | body`) to `out`.
fn encode_record_into(out: &mut Vec<u8>, stripe: StripeId, event: &PersistEvent) {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    encode_body_into(out, stripe, event);
    finish_record(out, frame_at);
}

/// Appends one framed *batch* record covering all of `records` under a
/// single CRC, so replay sees the whole batch or none of it.
fn encode_batch_into(out: &mut Vec<u8>, records: &[(StripeId, PersistEvent)]) {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    // The batch header reuses the body layout: the stripe field carries
    // the sub-record count and the timestamp field must be zero.
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.push(KIND_BATCH);
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    for (stripe, event) in records {
        let len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        encode_body_into(out, *stripe, event);
        let sub_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&sub_len.to_le_bytes());
    }
    finish_record(out, frame_at);
}

/// A decoded record body: either one logical record or a whole batch.
enum DecodedBody {
    One(StripeId, PersistEvent),
    Batch(Vec<(StripeId, PersistEvent)>),
}

/// Decodes a record body that may be a batch (kind 5) or a single record.
/// Returns `None` on structural corruption; a batch with any malformed
/// sub-record is rejected whole.
fn decode_record_body(body: &[u8]) -> Option<DecodedBody> {
    if body.len() < MIN_BODY {
        return None;
    }
    if body[8] != KIND_BATCH {
        return decode_body(body).map(|(s, e)| DecodedBody::One(s, e));
    }
    let count = u64::from_le_bytes(body[0..8].try_into().ok()?);
    let ticks = u64::from_le_bytes(body[9..17].try_into().ok()?);
    let pid = u32::from_le_bytes(body[17..21].try_into().ok()?);
    if ticks != 0 || pid != 0 {
        return None;
    }
    let mut rest = &body[21..];
    // Every sub-record costs at least a length prefix plus a minimal body,
    // so the declared count is bounded by the bytes actually present.
    if count > (rest.len() / (4 + MIN_BODY)) as u64 {
        return None;
    }
    let mut records = Vec::with_capacity(count as usize);
    for _ in 0..count {
        if rest.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().ok()?) as usize;
        if rest.len() - 4 < len {
            return None;
        }
        // `decode_body` rejects kind 5, so batches cannot nest.
        let (stripe, event) = decode_body(&rest[4..4 + len])?;
        records.push((stripe, event));
        rest = &rest[4 + len..];
    }
    if !rest.is_empty() {
        return None;
    }
    Some(DecodedBody::Batch(records))
}

/// Decodes one single-record body; returns `None` on structural corruption.
fn decode_body(body: &[u8]) -> Option<(StripeId, PersistEvent)> {
    if body.len() < MIN_BODY {
        return None;
    }
    let stripe = StripeId(u64::from_le_bytes(body[0..8].try_into().ok()?));
    let kind = body[8];
    let ticks = u64::from_le_bytes(body[9..17].try_into().ok()?);
    let pid = u32::from_le_bytes(body[17..21].try_into().ok()?);
    let ts = if ticks == 0 && pid == 0 {
        Timestamp::LOW
    } else {
        Timestamp::from_parts(ticks, ProcessId::new(pid))
    };
    let event = match kind {
        KIND_ORD => PersistEvent::OrdTs(ts),
        KIND_BOTTOM => PersistEvent::Entry(ts, BlockValue::Bottom),
        KIND_NIL => PersistEvent::Entry(ts, BlockValue::Nil),
        KIND_DATA => {
            if body.len() < 25 {
                return None;
            }
            let len = u32::from_le_bytes(body[21..25].try_into().ok()?) as usize;
            if body.len() != 25 + len {
                return None;
            }
            PersistEvent::Entry(ts, BlockValue::Data(Bytes::copy_from_slice(&body[25..])))
        }
        KIND_GC => PersistEvent::Gc(ts),
        _ => return None,
    };
    Some((stripe, event))
}

/// One brick's durable state: an append-only record log plus the in-memory
/// image it materializes.
///
/// # Examples
///
/// ```
/// use fab_core::{BlockValue, PersistEvent, StripeId};
/// use fab_store::BrickStore;
/// use fab_timestamp::{ProcessId, Timestamp};
/// use bytes::Bytes;
///
/// let dir = std::env::temp_dir().join(format!("fab-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("brick0.log");
/// let ts = Timestamp::from_parts(7, ProcessId::new(1));
/// {
///     let mut store = BrickStore::open(&path)?;
///     store.append_batch(&[(StripeId(0), PersistEvent::OrdTs(ts))])?;
///     store.append_batch(&[(
///         StripeId(0),
///         PersistEvent::Entry(ts, BlockValue::Data(Bytes::from_static(b"block"))),
///     )])?;
/// }
/// // Reopen: the state is recovered from disk.
/// let store = BrickStore::open(&path)?;
/// let state = store.stripe(StripeId(0)).expect("recovered");
/// assert_eq!(state.ord_ts, ts);
/// assert_eq!(state.log.max_ts(), ts);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), fab_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct BrickStore {
    path: PathBuf,
    file: File,
    state: HashMap<StripeId, StripeState>,
    /// Records appended since the last compaction.
    appended: u64,
    /// Live entries at the last compaction (compaction heuristic input).
    live_at_compaction: u64,
    /// Reused encode buffer: the steady-state append path allocates nothing.
    scratch: Vec<u8>,
}

impl BrickStore {
    /// Opens (creating if absent) a brick log and replays it.
    ///
    /// Replay stops at the first torn or corrupt record, truncating the
    /// file there: a crash mid-append loses at most the unacknowledged
    /// tail record, never previously-synced state.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on filesystem failure.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let mut state: HashMap<StripeId, StripeState> = HashMap::new();
        let mut pos = 0usize;
        let mut valid = 0usize;
        let mut appended = 0u64;
        while raw.len() - pos >= 8 {
            let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if raw.len() - pos - 8 < len {
                break; // torn tail
            }
            let body = &raw[pos + 8..pos + 8 + len];
            if crc32(body) != crc {
                break; // corrupt record: stop replay here
            }
            let Some(decoded) = decode_record_body(body) else {
                break;
            };
            match decoded {
                DecodedBody::One(stripe, event) => {
                    apply(&mut state, stripe, &event);
                    appended += 1;
                }
                DecodedBody::Batch(records) => {
                    appended += records.len() as u64;
                    for (stripe, event) in records {
                        apply(&mut state, stripe, &event);
                    }
                }
            }
            pos += 8 + len;
            valid = pos;
        }
        if valid < raw.len() {
            // Drop the torn/corrupt tail so future appends are clean.
            file.set_len(valid as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(BrickStore {
            path,
            file,
            state,
            appended,
            live_at_compaction: 0,
            scratch: Vec::new(),
        })
    }

    /// Appends a group of persistence events with **one** `write_all` and
    /// **one** `sync_data`, making them durable all-or-nothing.
    ///
    /// A single-element batch is written as a plain record; larger batches
    /// become one kind-5 batch record whose CRC covers every sub-record, so
    /// a torn write during the batch leaves *none* of it visible on replay
    /// (never a prefix). This is the group-commit primitive the brick host
    /// builds on (see [`commit`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on filesystem failure; on error none of the
    /// batch is applied to the in-memory image.
    pub fn append_batch(
        &mut self,
        records: &[(StripeId, PersistEvent)],
    ) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        self.scratch.clear();
        if let [(stripe, event)] = records {
            encode_record_into(&mut self.scratch, *stripe, event);
        } else {
            encode_batch_into(&mut self.scratch, records);
        }
        self.file.write_all(&self.scratch)?;
        self.file.sync_data()?;
        for (stripe, event) in records {
            apply(&mut self.state, *stripe, event);
        }
        self.appended += records.len() as u64;
        Ok(())
    }

    /// The recovered/live state of one stripe, if it has any records.
    pub fn stripe(&self, stripe: StripeId) -> Option<&StripeState> {
        self.state.get(&stripe)
    }

    /// Iterates over all stripes with state.
    pub fn stripes(&self) -> impl Iterator<Item = (StripeId, &StripeState)> {
        self.state.iter().map(|(s, st)| (*s, st))
    }

    /// Number of records appended since open/compaction (the write
    /// amplification compaction bounds).
    pub fn appended_records(&self) -> u64 {
        self.appended
    }

    /// The log file's current size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on filesystem failure.
    pub fn file_size(&self) -> Result<u64, StoreError> {
        Ok(self.file.metadata()?.len())
    }

    /// Rewrites the log as a snapshot of live state (atomic
    /// write-to-temp + rename + parent-directory fsync), dropping
    /// superseded history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on filesystem failure.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let tmp_path = self.path.with_extension("compact");
        {
            let mut out = std::io::BufWriter::new(File::create(&tmp_path)?);
            let mut rec = Vec::with_capacity(64);
            let mut live = 0u64;
            for (stripe, st) in &self.state {
                rec.clear();
                encode_record_into(&mut rec, *stripe, &PersistEvent::OrdTs(st.ord_ts));
                out.write_all(&rec)?;
                live += 1;
                for (ts, value) in st.log.iter() {
                    if ts == Timestamp::LOW {
                        continue; // the sentinel is implicit in a fresh Log
                    }
                    rec.clear();
                    encode_record_into(&mut rec, *stripe, &PersistEvent::Entry(ts, value.clone()));
                    out.write_all(&rec)?;
                    live += 1;
                }
            }
            out.flush()?;
            out.get_ref().sync_all()?;
            self.live_at_compaction = live;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        // Persist the rename itself: without the directory fsync, a crash
        // here can resurrect the old (pre-compaction) inode, and any record
        // appended after the rename would then be lost with it.
        sync_parent_dir(&self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.appended = 0;
        Ok(())
    }

    /// Compacts when the appended-record count since the last compaction
    /// exceeds `threshold` (a simple write-amplification bound the runtime
    /// calls periodically).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on filesystem failure.
    pub fn maybe_compact(&mut self, threshold: u64) -> Result<bool, StoreError> {
        if self.appended > threshold.max(self.live_at_compaction * 2) {
            self.compact()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// Fsyncs the directory containing `path` so a just-renamed file survives
/// a crash before the directory entry is otherwise forced out.
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(()); // bare filename: the cwd is not ours to sync
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// Applies an event to the in-memory image (used by both replay and
/// append).
fn apply(state: &mut HashMap<StripeId, StripeState>, stripe: StripeId, event: &PersistEvent) {
    let st = state.entry(stripe).or_default();
    match event {
        PersistEvent::OrdTs(ts) => {
            if *ts > st.ord_ts {
                st.ord_ts = *ts;
            }
        }
        PersistEvent::Entry(ts, value) => {
            st.log.insert(*ts, value.clone());
        }
        PersistEvent::Gc(ts) => {
            st.log.gc(*ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fab-store-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(1))
    }

    fn data(tag: u8) -> BlockValue {
        BlockValue::Data(Bytes::from(vec![tag; 16]))
    }

    #[test]
    fn append_and_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::OrdTs(ts(5)))])
                .unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(5), data(1)))])
                .unwrap();
            s.append_batch(&[(StripeId(3), PersistEvent::Entry(ts(7), BlockValue::Bottom))])
                .unwrap();
            s.append_batch(&[(StripeId(3), PersistEvent::Entry(ts(9), BlockValue::Nil))])
                .unwrap();
        }
        let s = BrickStore::open(&path).unwrap();
        let st0 = s.stripe(StripeId(0)).unwrap();
        assert_eq!(st0.ord_ts, ts(5));
        assert_eq!(st0.log.entry_at(ts(5)), Some(&data(1)));
        let st3 = s.stripe(StripeId(3)).unwrap();
        assert_eq!(st3.log.entry_at(ts(7)), Some(&BlockValue::Bottom));
        assert_eq!(st3.log.entry_at(ts(9)), Some(&BlockValue::Nil));
        assert_eq!(s.stripes().count(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(5), data(1)))])
                .unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(6), data(2)))])
                .unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 7).unwrap();
        drop(f);

        let s = BrickStore::open(&path).unwrap();
        let st = s.stripe(StripeId(0)).unwrap();
        assert_eq!(st.log.entry_at(ts(5)), Some(&data(1)), "synced record kept");
        assert_eq!(st.log.entry_at(ts(6)), None, "torn record dropped");
        // The file was truncated to the valid prefix; appending works.
        let mut s = s;
        s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(8), data(3)))])
            .unwrap();
        drop(s);
        let s = BrickStore::open(&path).unwrap();
        assert_eq!(
            s.stripe(StripeId(0)).unwrap().log.entry_at(ts(8)),
            Some(&data(3))
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmpdir("corrupt");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(5), data(1)))])
                .unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(6), data(2)))])
                .unwrap();
        }
        // Flip a byte inside the second record's body.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 3;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let s = BrickStore::open(&path).unwrap();
        let st = s.stripe(StripeId(0)).unwrap();
        assert_eq!(st.log.entry_at(ts(5)), Some(&data(1)));
        assert_eq!(st.log.entry_at(ts(6)), None, "corrupt record rejected");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn gc_events_replay() {
        let dir = tmpdir("gc");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            for t in [2u64, 4, 6] {
                s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(t), data(t as u8)))])
                    .unwrap();
            }
            s.append_batch(&[(StripeId(0), PersistEvent::Gc(ts(6)))])
                .unwrap();
        }
        let s = BrickStore::open(&path).unwrap();
        let st = s.stripe(StripeId(0)).unwrap();
        assert_eq!(st.log.entry_at(ts(2)), None);
        assert_eq!(st.log.entry_at(ts(6)), Some(&data(6)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_shrinks_the_file_and_preserves_state() {
        let dir = tmpdir("compact");
        let path = dir.join("brick.log");
        let mut s = BrickStore::open(&path).unwrap();
        for t in 1..=200u64 {
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(t), data(t as u8)))])
                .unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Gc(ts(t)))])
                .unwrap();
        }
        let before = s.file_size().unwrap();
        s.compact().unwrap();
        let after = s.file_size().unwrap();
        assert!(
            after * 10 < before,
            "compaction should drop history: {after} vs {before}"
        );
        // State preserved across compaction and reopen.
        let expect = s.stripe(StripeId(0)).unwrap().clone();
        drop(s);
        let s = BrickStore::open(&path).unwrap();
        assert_eq!(s.stripe(StripeId(0)), Some(&expect));
        assert_eq!(expect.log.entry_at(ts(200)), Some(&data(200)));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn maybe_compact_thresholds() {
        let dir = tmpdir("maybe");
        let path = dir.join("brick.log");
        let mut s = BrickStore::open(&path).unwrap();
        for t in 1..=10u64 {
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(t), data(1)))])
                .unwrap();
        }
        assert!(!s.maybe_compact(100).unwrap(), "below threshold");
        assert!(s.maybe_compact(5).unwrap(), "above threshold");
        assert_eq!(s.appended_records(), 0, "counter reset");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn append_batch_round_trips_and_counts_records() {
        let dir = tmpdir("batch");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[]).unwrap();
            s.append_batch(&[(StripeId(1), PersistEvent::OrdTs(ts(3)))])
                .unwrap();
            s.append_batch(&[
                (StripeId(1), PersistEvent::Entry(ts(3), data(1))),
                (StripeId(2), PersistEvent::OrdTs(ts(4))),
                (StripeId(2), PersistEvent::Entry(ts(4), BlockValue::Nil)),
            ])
            .unwrap();
            assert_eq!(s.appended_records(), 4, "logical records, not writes");
        }
        let s = BrickStore::open(&path).unwrap();
        assert_eq!(s.appended_records(), 4, "replay counts logical records");
        assert_eq!(s.stripe(StripeId(1)).unwrap().ord_ts, ts(3));
        assert_eq!(s.stripe(StripeId(1)).unwrap().log.entry_at(ts(3)), Some(&data(1)));
        assert_eq!(s.stripe(StripeId(2)).unwrap().ord_ts, ts(4));
        assert_eq!(
            s.stripe(StripeId(2)).unwrap().log.entry_at(ts(4)),
            Some(&BlockValue::Nil)
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_batch_is_all_or_nothing() {
        let dir = tmpdir("tornbatch");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[(StripeId(0), PersistEvent::Entry(ts(1), data(9)))])
                .unwrap();
            s.append_batch(&[
                (StripeId(0), PersistEvent::Entry(ts(2), data(2))),
                (StripeId(0), PersistEvent::Entry(ts(3), data(3))),
                (StripeId(0), PersistEvent::Entry(ts(4), data(4))),
            ])
            .unwrap();
        }
        let full = std::fs::metadata(&path).unwrap().len();
        // Tear the batch record anywhere — even one byte short — and the
        // whole batch must vanish, never a prefix of it.
        for cut in [1u64, 10, 25, 40] {
            let dst = dir.join(format!("cut{cut}.log"));
            std::fs::copy(&path, &dst).unwrap();
            let f = OpenOptions::new().write(true).open(&dst).unwrap();
            f.set_len(full - cut).unwrap();
            drop(f);
            let s = BrickStore::open(&dst).unwrap();
            let st = s.stripe(StripeId(0)).unwrap();
            assert_eq!(st.log.entry_at(ts(1)), Some(&data(9)), "pre-batch kept");
            for t in [2u64, 3, 4] {
                assert_eq!(
                    st.log.entry_at(ts(t)),
                    None,
                    "cut={cut}: batched record ts={t} must not survive a torn batch"
                );
            }
        }
        // Untouched file: the whole batch is visible.
        let s = BrickStore::open(&path).unwrap();
        let st = s.stripe(StripeId(0)).unwrap();
        for t in [2u64, 3, 4] {
            assert!(st.log.entry_at(ts(t)).is_some(), "intact batch replays");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_batch_interior_rejects_whole_batch() {
        let dir = tmpdir("corruptbatch");
        let path = dir.join("brick.log");
        {
            let mut s = BrickStore::open(&path).unwrap();
            s.append_batch(&[
                (StripeId(0), PersistEvent::Entry(ts(2), data(2))),
                (StripeId(0), PersistEvent::Entry(ts(3), data(3))),
            ])
            .unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a byte inside the FIRST sub-record: with per-record framing
        // the second record would survive; with a batch CRC nothing does.
        let mid = 8 + 21 + 8;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let s = BrickStore::open(&path).unwrap();
        assert!(s.stripe(StripeId(0)).is_none(), "whole batch rejected");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn commits_are_on_disk_and_counted_in_the_callers_registry() {
        let dir = tmpdir("commit");
        let path = dir.join("brick.log");
        let registry = fab_obs::Registry::new();
        let stats = CommitStatsHandle::registered(&registry);
        let mut s = BrickStore::open(&path).unwrap();
        for i in 1..=3u8 {
            // Two records per commit: each is one batch, one sync.
            let records = [
                (StripeId(0), PersistEvent::OrdTs(ts(u64::from(i)))),
                (StripeId(0), PersistEvent::Entry(ts(u64::from(i)), data(0xA0 + i))),
            ];
            stats.commit(&mut s, &records).unwrap();
            // `commit` has returned: the payload is already in the file.
            let raw = std::fs::read(&path).unwrap();
            assert!(raw.windows(16).any(|w| w == [0xA0 + i; 16]), "commit {i} not on disk");
        }
        let seen = stats.stats();
        assert_eq!((seen.submitted, seen.committed, seen.failed), (6, 6, 0));
        assert_eq!((seen.syncs, seen.max_batch), (3, 2));
        let snap = registry.export();
        assert_eq!(snap.counter("store_committed"), Some(6));
        assert_eq!(snap.counter("store_syncs"), Some(3));
        for name in ["store_fsync_micros", "store_batch_records"] {
            let h = snap.histograms.iter().find(|(n, _)| *n == name);
            assert_eq!(h.map(|(_, h)| h.count), Some(3), "{name}: one sample per sync");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn failed_commit_leaves_the_image_untouched() {
        let dir = tmpdir("failed");
        let path = dir.join("brick.log");
        let stats = CommitStatsHandle::registered(&fab_obs::Registry::new());
        let mut s = BrickStore::open(&path).unwrap();
        stats
            .commit(&mut s, &[(StripeId(0), PersistEvent::Entry(ts(1), data(1)))])
            .unwrap();
        // A handle that cannot be written to: the next `write_all` fails.
        s.file = File::open(&path).unwrap();
        let lost = [
            (StripeId(0), PersistEvent::Entry(ts(2), data(2))),
            (StripeId(7), PersistEvent::OrdTs(ts(2))),
        ];
        assert!(stats.commit(&mut s, &lost).is_err());
        assert_eq!(s.appended_records(), 1);
        assert_eq!(s.stripe(StripeId(0)).unwrap().log.entry_at(ts(2)), None);
        assert!(s.stripe(StripeId(7)).is_none());
        let seen = stats.stats();
        assert_eq!((seen.committed, seen.failed, seen.syncs), (1, 2, 1));
        // And what a restart replays is what the image still shows.
        let reopened = BrickStore::open(&path).unwrap();
        assert_eq!(reopened.appended_records(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_store_opens_clean() {
        let dir = tmpdir("empty");
        let s = BrickStore::open(dir.join("brick.log")).unwrap();
        assert_eq!(s.stripes().count(), 0);
        assert!(s.stripe(StripeId(0)).is_none());
        std::fs::remove_dir_all(dir).ok();
    }
}
