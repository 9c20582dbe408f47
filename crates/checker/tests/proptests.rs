//! Property tests for the strict-linearizability checker: histories
//! generated from a real sequential register must always pass; histories
//! with an injected stale read must always fail.

use fab_checker::{History, OpRecord, NIL};
use propcheck::{ensure, ensure_eq, Gen};

/// Generates a history by simulating a sequential register: `len`
/// operations execute one after another with random durations (below
/// `spread`) and idle gaps, so the history is trivially linearizable.
fn sequential_history(g: &mut Gen, len: std::ops::Range<usize>, spread: u64) -> History {
    let mut h = History::new();
    let mut now = 0u64;
    let mut current = NIL;
    let mut next_value = 1u64;
    for _ in 0..g.range(len) {
        let end = now + g.range(0..spread);
        if g.bool() {
            h.push(OpRecord::write(next_value, now, end).committed());
            current = next_value;
            next_value += 1;
        } else {
            h.push(OpRecord::read(current, now, end));
        }
        now = end + 1 + g.range(0..spread);
    }
    h
}

/// The instant ten ticks after everything in `h` has ended.
fn after(h: &History) -> u64 {
    h.ops().iter().filter_map(|o| o.end).max().unwrap_or(0) + 10
}

propcheck::properties! {
    cases: 256;

    fn sequential_histories_always_pass(g) {
        let h = sequential_history(g, 1..60, 5);
        ensure!(h.check().is_ok(), "{h:?}");
    }

    fn stale_read_injection_always_fails(g) {
        let mut h = sequential_history(g, 4..60, 5);
        // Find the last write's value and an earlier value, then append a
        // read of the earlier value after everything — provably stale.
        let mut committed: Vec<u64> = h
            .ops()
            .iter()
            .filter(|o| !o.is_read && o.committed)
            .map(|o| o.value)
            .collect();
        // A read can only be stale after two committed writes: top up the
        // rare prefix that drew fewer.
        while committed.len() < 2 {
            let (v, e) = (committed.len() as u64 + 1, after(&h));
            h.push(OpRecord::write(v, e, e + 1).committed());
            committed.push(v);
        }
        let last = *committed.last().unwrap();
        let stale = committed[g.range(0..committed.len() - 1)];
        let e = after(&h);
        // A read of the LAST value pins it into the order...
        h.push(OpRecord::read(last, e, e + 1));
        // ...then a stale read afterwards must create a cycle.
        h.push(OpRecord::read(stale, e + 2, e + 3));
        ensure!(h.check().is_err(), "{h:?}");
    }

    /// All operations fully overlap: no real-time edges at all, so any values
    /// may appear — the checker must accept.
    fn overlap_never_causes_false_positives(g) {
        let mut h = History::new();
        let mut v = 1u64;
        for _ in 0..g.range(2..30) {
            if g.bool() {
                h.push(OpRecord::write(v, 0, 1000).committed());
                v += 1;
            } else if v > 1 {
                h.push(OpRecord::read(g.range(1..v), 0, 1000));
            }
        }
        ensure!(h.check().is_ok());
    }

    /// Append the paper's Figure 5 anomaly to ANY valid sequential prefix: a
    /// partial write crashes, a later read misses its value, and the value
    /// surfaces in an even later read. The checker must reject every such
    /// history.
    fn figure5_injection_always_fails(g) {
        let mut h = sequential_history(g, 0..50, 5);
        let current = h
            .ops()
            .iter()
            .filter(|o| !o.is_read && o.committed)
            .map(|o| o.value)
            .next_back()
            .unwrap_or(NIL);
        let fresh = h.ops().iter().map(|o| o.value).max().unwrap_or(NIL) + 1;
        let e = after(&h);
        h.push(OpRecord::write(fresh, e, e + 1)); // partial: crash at e+1
        h.push(OpRecord::read(current, e + 2, e + 3)); // misses it
        h.push(OpRecord::read(fresh, e + 4, e + 5)); // late surfacing
        ensure!(h.check().is_err(), "{h:?}");
    }

    /// Append a real-time order inversion to ANY valid sequential prefix: a
    /// read returns v_f strictly before an interposed value v_mid is written
    /// and read, yet v_f is only written afterwards. Definition 5 then orders
    /// v_f < v_mid AND v_mid < v_f — a cycle the checker must always detect.
    fn rt_order_inversion_always_fails(g) {
        let mut h = sequential_history(g, 0..50, 5);
        let top = h.ops().iter().map(|o| o.value).max().unwrap_or(NIL);
        let (v_mid, v_f) = (top + 1, top + 2);
        let e = after(&h);
        h.push(OpRecord::read(v_f, e, e + 1)); // read before the write!
        h.push(OpRecord::write(v_mid, e + 2, e + 3).committed());
        h.push(OpRecord::read(v_mid, e + 4, e + 5));
        h.push(OpRecord::write(v_f, e + 6, e + 7).committed());
        ensure!(h.check().is_err(), "{h:?}");
    }

    fn check_is_deterministic(g) {
        let h = sequential_history(g, 1..40, 4);
        ensure_eq!(h.check().is_ok(), h.check().is_ok());
    }
}
