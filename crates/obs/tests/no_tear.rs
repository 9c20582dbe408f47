//! The [`fab_obs::PairCounter`] no-tear guarantee, on real threads.
//!
//! The property is the one the torture reconciliation probe leans on: a
//! snapshot of a pair counter is a *single* atomic load, so a reader can
//! never observe the two halves of a coupled update out of step, and
//! increments of either half are never lost to a race on the other.

use fab_obs::PairCounter;

const N: u64 = 200_000;

/// `inc_both` moves both halves in one indivisible step: a reader spinning
/// beside the writer sees `first == second` at every instant. (Two separate
/// atomics would let it land between the halves of an update.)
#[test]
fn coupled_increments_never_tear() {
    let pair = PairCounter::new();
    std::thread::scope(|s| {
        s.spawn(|| (0..N).for_each(|_| pair.inc_both()));
        loop {
            let (a, b) = pair.get();
            assert_eq!(a, b, "pair snapshot tore: ({a}, {b})");
            if a == N {
                break;
            }
        }
    });
}

/// Independent halves racing from two threads still sum exactly: neither
/// writer's read-modify-write loses the other's, and every snapshot the
/// reader takes meanwhile is monotone in both halves.
#[test]
fn racing_halves_sum_exactly() {
    let pair = PairCounter::new();
    std::thread::scope(|s| {
        s.spawn(|| (0..N).for_each(|_| pair.inc_first()));
        s.spawn(|| (0..N).for_each(|_| pair.inc_second()));
        let mut seen = (0, 0);
        while seen != (N, N) {
            let (a, b) = pair.get();
            assert!(
                a >= seen.0 && b >= seen.1,
                "went backwards: {seen:?} -> ({a}, {b})"
            );
            assert!(a <= N && b <= N, "impossible intermediate ({a}, {b})");
            seen = (a, b);
        }
    });
    assert_eq!(pair.total(), 2 * N);
}
