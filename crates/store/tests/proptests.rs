//! Property tests for the brick store: replaying an arbitrary event
//! sequence from disk reproduces the in-memory state, no matter how the
//! sequence interleaves stripes, entries, ord-ts updates, GCs, and
//! compactions — and arbitrary tail truncation never corrupts the
//! recovered prefix.

use bytes::Bytes;
use fab_core::{BlockValue, PersistEvent, StripeId};
use fab_store::BrickStore;
use fab_timestamp::{ProcessId, Timestamp};
use proptest::prelude::*;
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

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let ts = (1u64..50, 0u32..4).prop_map(|(t, p)| Timestamp::from_parts(t, ProcessId::new(p)));
    let event = prop_oneof![
        ts.clone().prop_map(PersistEvent::OrdTs),
        (ts.clone(), proptest::option::of(any::<u8>())).prop_map(|(t, v)| {
            let value = match v {
                None => BlockValue::Bottom,
                Some(0) => BlockValue::Nil,
                Some(tag) => BlockValue::Data(Bytes::from(vec![tag; 8])),
            };
            PersistEvent::Entry(t, value)
        }),
        ts.prop_map(PersistEvent::Gc),
    ];
    proptest::collection::vec(
        prop_oneof![
            8 => (0u64..4, event).prop_map(|(s, e)| Step::Event(s, e)),
            1 => Just(Step::Compact),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reopen_reproduces_live_state(case in any::<u64>(), script in steps()) {
        let path = tmpfile("reopen", case);
        std::fs::remove_file(&path).ok();
        let live: Vec<(StripeId, fab_store::StripeState)> = {
            let mut s = BrickStore::open(&path).unwrap();
            for step in &script {
                match step {
                    Step::Event(stripe, e) => {
                        s.append_batch(&[(StripeId(*stripe), e.clone())]).unwrap();
                    }
                    Step::Compact => s.compact().unwrap(),
                }
            }
            let mut v: Vec<_> = s.stripes().map(|(k, st)| (k, st.clone())).collect();
            v.sort_by_key(|(k, _)| k.0);
            v
        };
        let reopened = BrickStore::open(&path).unwrap();
        let mut got: Vec<_> = reopened.stripes().map(|(k, st)| (k, st.clone())).collect();
        got.sort_by_key(|(k, _)| k.0);
        prop_assert_eq!(live, got);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_tail_truncation_recovers_a_prefix(
        case in any::<u64>(),
        script in steps(),
        cut in any::<prop::sample::Index>(),
    ) {
        let path = tmpfile("truncate", case);
        std::fs::remove_file(&path).ok();
        {
            let mut s = BrickStore::open(&path).unwrap();
            for step in &script {
                if let Step::Event(stripe, e) = step {
                    s.append_batch(&[(StripeId(*stripe), e.clone())]).unwrap();
                }
            }
        }
        let full = std::fs::metadata(&path).unwrap().len() as usize;
        if full > 0 {
            let keep = cut.index(full + 1) as u64;
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(keep).unwrap();
            drop(f);
        }
        // Recovery must not panic, and appending afterwards must work.
        let mut s = BrickStore::open(&path).unwrap();
        s.append_batch(&[(
            StripeId(0),
            PersistEvent::OrdTs(Timestamp::from_parts(999, ProcessId::new(0))),
        )])
        .unwrap();
        drop(s);
        let s = BrickStore::open(&path).unwrap();
        prop_assert_eq!(
            s.stripe(StripeId(0)).unwrap().ord_ts,
            Timestamp::from_parts(999, ProcessId::new(0))
        );
        std::fs::remove_file(&path).ok();
    }
}
