//! The durable repair cursor: a tiny append-only checkpoint file that
//! lets a crashed/restarted driver resume from its last fsynced
//! watermark instead of rescanning the whole plan.
//!
//! ## On-disk format
//!
//! Fixed 24-byte records, appended and fsynced (`sync_data`) on every
//! checkpoint, using the same CRC discipline as the brick store:
//!
//! ```text
//! record := magic:   u32le  = 0x4652_4331  ("FRC1")
//!           plan:    u64le    fingerprint of the plan inputs
//!           mark:    u64le    contiguous-prefix watermark (plan index)
//!           crc:     u32le  = fab_store::crc32(first 20 bytes)
//! ```
//!
//! Recovery scans the file front to back and keeps the **last** record
//! whose magic and CRC check out and whose plan fingerprint matches the
//! current plan; a torn or corrupt tail (crash mid-append) is ignored.
//! A file checkpointed under a different plan fingerprint is discarded
//! entirely — resuming an old plan's watermark into a new plan would
//! silently skip stripes.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use fab_store::crc32;

/// Record magic: "FRC1".
const MAGIC: u32 = 0x4652_4331;
/// Bytes per checkpoint record.
const RECORD_BYTES: usize = 24;
/// Records kept before the file is compacted down to one on open.
const COMPACT_THRESHOLD: u64 = 4096;

/// A durable watermark for one repair plan.
#[derive(Debug)]
pub struct RepairCursor {
    file: File,
    plan_hash: u64,
    watermark: u64,
}

/// Parses one 24-byte record; `None` if torn or corrupt.
fn parse_record(rec: &[u8]) -> Option<(u64, u64)> {
    let magic = u32::from_le_bytes(rec.get(0..4)?.try_into().ok()?);
    if magic != MAGIC {
        return None;
    }
    let body = rec.get(0..20)?;
    let crc = u32::from_le_bytes(rec.get(20..24)?.try_into().ok()?);
    if crc32(body) != crc {
        return None;
    }
    let plan = u64::from_le_bytes(rec.get(4..12)?.try_into().ok()?);
    let mark = u64::from_le_bytes(rec.get(12..20)?.try_into().ok()?);
    Some((plan, mark))
}

fn encode_record(plan_hash: u64, watermark: u64) -> [u8; RECORD_BYTES] {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    rec[4..12].copy_from_slice(&plan_hash.to_le_bytes());
    rec[12..20].copy_from_slice(&watermark.to_le_bytes());
    let crc = crc32(&rec[0..20]);
    rec[20..24].copy_from_slice(&crc.to_le_bytes());
    rec
}

impl RepairCursor {
    /// Opens (creating if absent) the cursor file at `path` for the plan
    /// identified by `plan_hash`, recovering the last durable watermark.
    pub fn open(path: &Path, plan_hash: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        // Last valid record wins; torn/corrupt tails and foreign-plan
        // records are skipped.
        let mut watermark = 0u64;
        let mut records = 0u64;
        let mut foreign = false;
        for rec in contents.chunks_exact(RECORD_BYTES) {
            match parse_record(rec) {
                Some((plan, mark)) if plan == plan_hash => {
                    watermark = mark;
                    records += 1;
                }
                Some(_) => foreign = true,
                None => {}
            }
        }
        let mut cursor = RepairCursor {
            file,
            plan_hash,
            watermark,
        };
        // A file full of another plan's checkpoints, or one grown past
        // the compaction threshold, is rewritten as a single record.
        if foreign || records > COMPACT_THRESHOLD {
            cursor.rewrite()?;
        }
        Ok(cursor)
    }

    fn rewrite(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        let rec = encode_record(self.plan_hash, self.watermark);
        write_at_end(&mut self.file, &rec)?;
        self.file.sync_data()
    }

    /// The last durably recorded watermark: the number of leading plan
    /// entries known repaired (or skipped) before any crash.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Durably records `watermark`: append one record, then
    /// `sync_data`. Returns only after the record is on disk.
    pub fn checkpoint(&mut self, watermark: u64) -> io::Result<()> {
        if watermark == self.watermark {
            return Ok(());
        }
        let rec = encode_record(self.plan_hash, watermark);
        write_at_end(&mut self.file, &rec)?;
        self.file.sync_data()?;
        self.watermark = watermark;
        Ok(())
    }

    /// Retires the cursor after its plan finished complete: the file is
    /// emptied and the truncation synced. A later run of the *same* plan
    /// — the same brick replaced again — then starts from zero instead of
    /// resuming at the plan's end and rebuilding nothing.
    pub fn retire(self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_all()
    }
}

/// Appends `rec` at the current end of file (the file is opened
/// read+write, so the offset is wherever the recovery scan left it —
/// seek explicitly).
fn write_at_end(file: &mut File, rec: &[u8]) -> io::Result<()> {
    use std::io::Seek;
    file.seek(io::SeekFrom::End(0))?;
    file.write_all(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fab-repair-cursor-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    #[test]
    fn fresh_cursor_starts_at_zero_and_persists() {
        let path = tmp("fresh");
        {
            let mut c = RepairCursor::open(&path, 7).unwrap();
            assert_eq!(c.watermark(), 0);
            c.checkpoint(5).unwrap();
            c.checkpoint(12).unwrap();
        }
        let c = RepairCursor::open(&path, 7).unwrap();
        assert_eq!(c.watermark(), 12, "last fsynced watermark survives reopen");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn retired_cursor_restarts_the_same_plan_from_zero() {
        let path = tmp("retire");
        let mut c = RepairCursor::open(&path, 7).unwrap();
        c.checkpoint(40).unwrap();
        c.retire().unwrap();
        let c = RepairCursor::open(&path, 7).unwrap();
        assert_eq!(c.watermark(), 0, "a finished plan must not resume at its end");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp("torn");
        {
            let mut c = RepairCursor::open(&path, 7).unwrap();
            c.checkpoint(9).unwrap();
        }
        // Crash mid-append: a partial record at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            let rec = encode_record(7, 99);
            f.write_all(&rec[0..10]).unwrap();
        }
        let c = RepairCursor::open(&path, 7).unwrap();
        assert_eq!(c.watermark(), 9, "torn tail must not surface watermark 99");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_is_skipped() {
        let path = tmp("corrupt");
        {
            let mut c = RepairCursor::open(&path, 7).unwrap();
            c.checkpoint(3).unwrap();
            c.checkpoint(8).unwrap();
        }
        // Flip a byte in the last record's watermark field.
        {
            let mut contents = std::fs::read(&path).unwrap();
            let off = contents.len() - RECORD_BYTES + 12;
            contents[off] ^= 0xFF;
            std::fs::write(&path, &contents).unwrap();
        }
        let c = RepairCursor::open(&path, 7).unwrap();
        assert_eq!(c.watermark(), 3, "corrupt last record falls back to prior");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_plan_cursor_is_discarded() {
        let path = tmp("foreign");
        {
            let mut c = RepairCursor::open(&path, 7).unwrap();
            c.checkpoint(42).unwrap();
        }
        // Same file, different plan fingerprint: watermark must reset.
        let c = RepairCursor::open(&path, 8).unwrap();
        assert_eq!(c.watermark(), 0, "stale plan's watermark must not leak");
        drop(c);
        // And the stale records are gone: reopening under the old plan
        // no longer sees 42 either.
        let c = RepairCursor::open(&path, 7).unwrap();
        assert_eq!(c.watermark(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_is_idempotent_for_same_watermark() {
        let path = tmp("idem");
        let mut c = RepairCursor::open(&path, 7).unwrap();
        c.checkpoint(4).unwrap();
        let len_before = std::fs::metadata(&path).unwrap().len();
        c.checkpoint(4).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        std::fs::remove_file(&path).unwrap();
    }
}
