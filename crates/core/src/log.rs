//! The per-process persistent log of `⟨timestamp, block⟩` pairs (§4.2).
//!
//! Each process keeps a log of past write requests so that a read can
//! recover an older complete version when the newest write is partial
//! (§4.1.1). The log supports the three functions the pseudocode uses:
//!
//! * `max-ts(log)` — highest timestamp in the log,
//! * `max-block(log)` — the non-`⊥` value with the highest timestamp,
//! * `max-below(log, ts)` — the non-`⊥` value with the highest timestamp
//!   *strictly below* `ts`.
//!
//! Logs start as `{[LowTS, nil]}` and that sentinel entry is never removed
//! (it is zero-sized), so `max-block` and `max-below` always find a value.
//! Garbage collection (§5.1) removes data entries older than a timestamp
//! known to be part of a complete write, always retaining the newest entry
//! and the `LowTS` sentinel.

use crate::value::BlockValue;
use fab_timestamp::Timestamp;
use std::collections::BTreeMap;

/// The persistent per-process version log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log {
    entries: BTreeMap<Timestamp, BlockValue>,
}

impl Log {
    /// Creates the initial log `{[LowTS, nil]}`.
    pub fn new() -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(Timestamp::LOW, BlockValue::Nil);
        Log { entries }
    }

    /// `max-ts(log)`: the highest timestamp in the log (at least `LowTS`).
    pub fn max_ts(&self) -> Timestamp {
        // The LowTS sentinel is inserted at construction and never removed,
        // so the fallback is unreachable; it exists because protocol code
        // must not be able to panic (xtask lint `no-panic`).
        self.entries
            .keys()
            .next_back()
            .copied()
            .unwrap_or(Timestamp::LOW)
    }

    /// `max-block(log)`: the non-`⊥` value with the highest timestamp,
    /// together with that timestamp.
    pub fn max_block(&self) -> (Timestamp, &BlockValue) {
        // Falls back to the `[LowTS, nil]` sentinel that `new()` installs
        // and `gc()` retains — the same default `max_below` uses.
        self.entries
            .iter()
            .rev()
            .find(|(_, v)| !v.is_bottom())
            .map(|(ts, v)| (*ts, v))
            .unwrap_or((Timestamp::LOW, &BlockValue::Nil))
    }

    /// `max-below(log, ts)`: the non-`⊥` value with the highest timestamp
    /// strictly smaller than `ts`, together with that timestamp.
    ///
    /// Returns the `LowTS` sentinel when nothing smaller exists (matching
    /// the pseudocode's initialization `lts ← LowTS`, Alg. 2 line 51).
    pub fn max_below(&self, ts: Timestamp) -> (Timestamp, &BlockValue) {
        self.entries
            .range(..ts)
            .rev()
            .find(|(_, v)| !v.is_bottom())
            .map(|(t, v)| (*t, v))
            .unwrap_or((Timestamp::LOW, &BlockValue::Nil))
    }

    /// The *versioned* variant of `max-below` used by the `Order&Read`
    /// handler: returns the newest non-`⊥` value strictly below `ts`
    /// together with its **validity timestamp** — the newest entry
    /// timestamp (of any kind) strictly below `ts`.
    ///
    /// A `⊥` entry at `t` means "this process's block is unchanged at
    /// version `t`" (Alg. 3 line 96), so the block below it is still the
    /// correct content *at* `t`. Grouping recovery replies by validity
    /// timestamp lets `read-prev-stripe` reconstruct a version written by
    /// `write-block`, where only `k+1` processes hold fresh blocks and the
    /// other data processes hold `⊥` — fewer than m fresh blocks exist at
    /// that timestamp, but ≥ m *valid* ones do. (Grouping strictly by the
    /// blocks' own entry timestamps, a literal reading of Alg. 1 line 31,
    /// would make recovery skip past committed block writes whenever
    /// `n < 2m − 1`.)
    pub fn version_below(&self, ts: Timestamp) -> (Timestamp, &BlockValue) {
        let validity = self
            .entries
            .range(..ts)
            .next_back()
            .map(|(t, _)| *t)
            .unwrap_or(Timestamp::LOW);
        let (_, value) = self.max_below(ts);
        (validity, value)
    }

    /// Returns the entry at exactly `ts`, if present. Used for idempotent
    /// replay of retransmitted `Write`/`Modify` requests.
    pub fn entry_at(&self, ts: Timestamp) -> Option<&BlockValue> {
        self.entries.get(&ts)
    }

    /// Appends `[ts, value]` to the log (the pseudocode's
    /// `log ← log ∪ {[ts, b]}`). Overwrites an existing entry at `ts`
    /// (timestamps are globally unique so this only happens on replay).
    pub fn insert(&mut self, ts: Timestamp, value: BlockValue) {
        self.entries.insert(ts, value);
    }

    /// Number of entries, including the `LowTS` sentinel.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// A log is never empty (it always holds the sentinel).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total bytes of block data retained (the quantity GC bounds).
    pub fn data_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|v| match v {
                BlockValue::Data(b) => b.len(),
                _ => 0,
            })
            .sum()
    }

    /// Garbage-collects entries with timestamps strictly below `up_to`
    /// (§5.1), always retaining the `LowTS` sentinel, the newest entry, and
    /// the newest **non-`⊥`** entry. Returns the number of removed entries.
    ///
    /// Safety argument: `up_to` is the timestamp of a write that reached a
    /// full m-quorum, so every future read quorum intersects that quorum in
    /// ≥ m processes and recovery never needs a version older than `up_to`.
    /// The newest non-`⊥` entry must additionally survive because a `⊥`
    /// entry means "this process's block is *unchanged* at that version"
    /// (Alg. 3 line 96): the block content a `Read` must report is the
    /// newest non-`⊥` value, which may sit below the GC horizon.
    pub fn gc(&mut self, up_to: Timestamp) -> usize {
        let newest = self.max_ts();
        let (newest_block, _) = self.max_block();
        let before = self.entries.len();
        self.entries.retain(|&ts, _| {
            ts >= up_to || ts == newest || ts == newest_block || ts == Timestamp::LOW
        });
        before - self.entries.len()
    }

    /// Iterates over `(timestamp, value)` pairs in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &BlockValue)> {
        self.entries.iter().map(|(ts, v)| (*ts, v))
    }
}

impl Default for Log {
    fn default() -> Self {
        Log::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fab_timestamp::ProcessId;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_parts(t, ProcessId::new(0))
    }

    fn data(s: &'static [u8]) -> BlockValue {
        BlockValue::Data(Bytes::from_static(s))
    }

    #[test]
    fn initial_log_is_low_nil() {
        let log = Log::new();
        assert_eq!(log.max_ts(), Timestamp::LOW);
        let (t, v) = log.max_block();
        assert_eq!(t, Timestamp::LOW);
        assert!(v.is_nil());
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }

    #[test]
    fn max_ts_tracks_highest_entry_even_bottom() {
        let mut log = Log::new();
        log.insert(ts(5), data(b"a"));
        log.insert(ts(9), BlockValue::Bottom);
        assert_eq!(log.max_ts(), ts(9));
    }

    #[test]
    fn max_block_skips_bottom() {
        let mut log = Log::new();
        log.insert(ts(5), data(b"a"));
        log.insert(ts(9), BlockValue::Bottom);
        let (t, v) = log.max_block();
        assert_eq!(t, ts(5));
        assert_eq!(v, &data(b"a"));
    }

    #[test]
    fn max_below_is_strict_and_skips_bottom() {
        let mut log = Log::new();
        log.insert(ts(3), data(b"x"));
        log.insert(ts(5), BlockValue::Bottom);
        log.insert(ts(7), data(b"y"));

        let (t, v) = log.max_below(ts(7));
        assert_eq!(t, ts(3), "skips the ⊥ at 5, excludes 7 itself");
        assert_eq!(v, &data(b"x"));

        let (t, _) = log.max_below(ts(8));
        assert_eq!(t, ts(7));

        let (t, v) = log.max_below(ts(3));
        assert_eq!(t, Timestamp::LOW);
        assert!(v.is_nil());

        // Below everything: the sentinel default.
        let (t, v) = log.max_below(Timestamp::LOW);
        assert_eq!(t, Timestamp::LOW);
        assert!(v.is_nil());
    }

    #[test]
    fn max_below_high_finds_newest_block() {
        let mut log = Log::new();
        log.insert(ts(3), data(b"x"));
        let (t, _) = log.max_below(Timestamp::HIGH);
        assert_eq!(t, ts(3));
    }

    #[test]
    fn entry_at_exact() {
        let mut log = Log::new();
        log.insert(ts(4), data(b"q"));
        assert_eq!(log.entry_at(ts(4)), Some(&data(b"q")));
        assert_eq!(log.entry_at(ts(5)), None);
    }

    #[test]
    fn gc_removes_old_data_keeps_sentinel_and_newest() {
        let mut log = Log::new();
        log.insert(ts(1), data(b"a"));
        log.insert(ts(2), data(b"b"));
        log.insert(ts(3), data(b"c"));
        let removed = log.gc(ts(3));
        assert_eq!(removed, 2);
        assert_eq!(log.entry_at(ts(1)), None);
        assert_eq!(log.entry_at(ts(2)), None);
        assert_eq!(log.entry_at(ts(3)), Some(&data(b"c")));
        assert_eq!(log.entry_at(Timestamp::LOW), Some(&BlockValue::Nil));
        assert_eq!(log.max_ts(), ts(3));
    }

    #[test]
    fn gc_on_stale_process_keeps_its_newest() {
        // A process whose newest entry is older than the GC horizon keeps
        // that entry so max-ts never regresses.
        let mut log = Log::new();
        log.insert(ts(1), data(b"a"));
        log.insert(ts(2), data(b"b"));
        let removed = log.gc(ts(10));
        assert_eq!(removed, 1);
        assert_eq!(log.max_ts(), ts(2));
        assert_eq!(log.entry_at(ts(2)), Some(&data(b"b")));
    }

    #[test]
    fn gc_bounds_data_bytes() {
        let mut log = Log::new();
        for i in 1..=100u64 {
            log.insert(ts(i), BlockValue::Data(Bytes::from(vec![0u8; 64])));
        }
        assert_eq!(log.data_bytes(), 6400);
        log.gc(ts(100));
        assert_eq!(log.data_bytes(), 64);
        assert_eq!(log.len(), 2); // sentinel + newest
    }

    #[test]
    fn insert_at_existing_ts_replaces() {
        let mut log = Log::new();
        log.insert(ts(4), BlockValue::Bottom);
        log.insert(ts(4), data(b"r"));
        assert_eq!(log.entry_at(ts(4)), Some(&data(b"r")));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn iter_is_ordered() {
        let mut log = Log::new();
        log.insert(ts(9), data(b"z"));
        log.insert(ts(2), data(b"a"));
        let keys: Vec<Timestamp> = log.iter().map(|(t, _)| t).collect();
        assert_eq!(keys, vec![Timestamp::LOW, ts(2), ts(9)]);
    }
}
