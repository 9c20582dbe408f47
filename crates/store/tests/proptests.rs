//! Property tests for the brick store: replaying an arbitrary event
//! sequence from disk reproduces the in-memory state, no matter how the
//! sequence interleaves stripes, entries, ord-ts updates, GCs, and
//! compactions — and arbitrary tail truncation never corrupts the
//! recovered prefix, nor does a flipped bit anywhere in the log.

use bytes::Bytes;
use fab_core::{BlockValue, PersistEvent, StripeId};
use fab_store::BrickStore;
use fab_timestamp::{ProcessId, Timestamp};
use propcheck::{ensure, ensure_eq, Gen};
use std::path::PathBuf;

fn tmpfile(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fab-store-prop-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{case}.log"))
}

#[derive(Debug, Clone)]
enum Step {
    Event(u64, PersistEvent), // stripe, event
    Compact,
}

fn ts(g: &mut Gen) -> Timestamp {
    Timestamp::from_parts(g.range(1u64..50), ProcessId::new(g.range(0u32..4)))
}

/// Up to 60 steps: events over four stripes, one step in nine a compaction.
fn steps(g: &mut Gen) -> Vec<Step> {
    g.vec(0..60, |g| {
        if g.range(0..9) == 8 {
            return Step::Compact;
        }
        let stripe = g.range(0u64..4);
        let event = match g.range(0..3) {
            0 => PersistEvent::OrdTs(ts(g)),
            1 => {
                let value = match g.bool().then(|| g.u8()) {
                    None => BlockValue::Bottom,
                    Some(0) => BlockValue::Nil,
                    Some(tag) => BlockValue::Data(Bytes::from(vec![tag; 8])),
                };
                PersistEvent::Entry(ts(g), value)
            }
            _ => PersistEvent::Gc(ts(g)),
        };
        Step::Event(stripe, event)
    })
}

fn sorted_states(s: &BrickStore) -> States {
    let mut v: Vec<_> = s.stripes().map(|(k, st)| (k, st.clone())).collect();
    v.sort_by_key(|(k, _)| k.0);
    v
}

type States = Vec<(StripeId, fab_store::StripeState)>;

/// Writes the events of `script` to a fresh log at `path`, one record
/// each, and returns the store's state after every prefix of them.
fn write_log(path: &std::path::Path, script: Vec<Step>) -> Vec<States> {
    std::fs::remove_file(path).ok();
    let mut s = BrickStore::open(path).unwrap();
    let mut prefixes = vec![sorted_states(&s)];
    for step in script {
        if let Step::Event(stripe, e) = step {
            s.append_batch(&[(StripeId(stripe), e)]).unwrap();
            prefixes.push(sorted_states(&s));
        }
    }
    prefixes
}

propcheck::properties! {
    cases: 32;

    fn reopen_reproduces_live_state(g) {
        let path = tmpfile("reopen", g.u64());
        std::fs::remove_file(&path).ok();
        let live = {
            let mut s = BrickStore::open(&path).unwrap();
            for step in steps(g) {
                match step {
                    Step::Event(stripe, e) => s.append_batch(&[(StripeId(stripe), e)]).unwrap(),
                    Step::Compact => s.compact().unwrap(),
                }
            }
            sorted_states(&s)
        };
        let reopened = sorted_states(&BrickStore::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        ensure_eq!(live, reopened);
    }

    fn any_tail_truncation_recovers_a_prefix(g) {
        let path = tmpfile("truncate", g.u64());
        let prefixes = write_log(&path, steps(g));
        let full = std::fs::metadata(&path).unwrap().len();
        if full > 0 {
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(g.range(0..=full)).unwrap();
        }
        // Recovery must not panic, and appending afterwards must work.
        let marker = Timestamp::from_parts(999, ProcessId::new(0));
        let mut s = BrickStore::open(&path).unwrap();
        let recovered = sorted_states(&s);
        s.append_batch(&[(StripeId(0), PersistEvent::OrdTs(marker))])
            .unwrap();
        drop(s);
        let s = BrickStore::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        ensure!(prefixes.contains(&recovered), "recovered {recovered:?}");
        ensure_eq!(s.stripe(StripeId(0)).unwrap().ord_ts, marker);
    }

    /// Bit rot is caught by the record checksum: replay stops in front of
    /// the damaged record, so what is recovered is the state after some
    /// prefix of the events — never a state no prefix produced.
    fn any_bit_flip_recovers_a_prefix(g) {
        let path = tmpfile("flip", g.u64());
        let prefixes = write_log(&path, steps(g));
        let mut raw = std::fs::read(&path).unwrap();
        if !raw.is_empty() {
            let at = g.range(0..raw.len());
            raw[at] ^= 1 << g.range(0u8..8);
            std::fs::write(&path, &raw).unwrap();
        }
        let recovered = sorted_states(&BrickStore::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        ensure!(prefixes.contains(&recovered), "flipped a bit, recovered {recovered:?}");
    }
}
