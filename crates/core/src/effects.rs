//! The driver interface for sans-io protocol state machines.
//!
//! Coordinators never perform I/O directly: they emit sends and timer
//! operations through an [`Effects`] implementation supplied by the driver.
//! Two drivers exist in this repository — the deterministic simulator
//! ([`crate::brick`], over `fab-simnet`) and the threaded cluster runtime
//! (`fab-runtime`) — and both reuse the identical protocol logic, which is
//! the point: the algorithm is tested under simulated asynchrony and then
//! deployed unchanged on real threads.

use crate::messages::Envelope;
use fab_timestamp::ProcessId;

/// Driver-provided I/O capabilities for one protocol participant.
pub trait Effects {
    /// Sends an envelope to `to` (which may be the sender itself).
    fn send(&mut self, to: ProcessId, env: Envelope);

    /// Arms a one-shot timer `delay` ticks from now, returning its id.
    /// There is no cancel: the coordinator forgets a timer it no longer
    /// needs and ignores it when it fires.
    fn set_timer(&mut self, delay: u64) -> u64;

    /// Current time in ticks (virtual in the simulator, microseconds on
    /// the threaded runtime). Used only as the `newTS` clock hint.
    fn now(&self) -> u64;

    /// Uniform random 64-bit value (for fast-read target selection).
    fn rand_u64(&mut self) -> u64;
}

/// Samples `k` distinct process ids from `0..n` using driver randomness
/// (the "pick m random processes" of Alg. 1 line 6).
pub fn sample_processes(fx: &mut dyn Effects, n: usize, k: usize) -> Vec<ProcessId> {
    debug_assert!(k <= n);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    // Partial Fisher–Yates: fix up the first k slots.
    for i in 0..k {
        let j = i + (fx.rand_u64() as usize) % (n - i);
        ids.swap(i, j);
    }
    ids.truncate(k);
    ids.sort_unstable();
    ids.into_iter().map(ProcessId::new).collect()
}

#[cfg(test)]
pub(crate) mod mock {
    //! A recording [`Effects`] implementation for unit tests.

    use super::*;

    #[derive(Debug, Default)]
    pub struct MockFx {
        pub sent: Vec<(ProcessId, Envelope)>,
        pub now: u64,
        pub next_timer: u64,
        pub rand_state: u64,
    }

    impl Effects for MockFx {
        fn send(&mut self, to: ProcessId, env: Envelope) {
            self.sent.push((to, env));
        }
        fn set_timer(&mut self, _delay: u64) -> u64 {
            self.next_timer += 1;
            self.next_timer
        }
        fn now(&self) -> u64 {
            self.now
        }
        fn rand_u64(&mut self) -> u64 {
            // xorshift: deterministic but varied.
            self.rand_state ^= self.rand_state << 13;
            self.rand_state ^= self.rand_state >> 7;
            self.rand_state ^= self.rand_state << 17;
            self.rand_state = self.rand_state.wrapping_add(0x9E3779B97F4A7C15);
            self.rand_state
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mock::MockFx;
    use super::*;

    #[test]
    fn sample_is_distinct_sorted_and_in_range() {
        let mut fx = MockFx::default();
        for k in 0..=8 {
            let picked = sample_processes(&mut fx, 8, k);
            assert_eq!(picked.len(), k);
            assert!(picked.windows(2).all(|w| w[0] < w[1]), "distinct + sorted");
            assert!(picked.iter().all(|p| p.index() < 8));
        }
    }

    #[test]
    fn sample_varies_across_calls() {
        let mut fx = MockFx::default();
        let a = sample_processes(&mut fx, 16, 8);
        let b = sample_processes(&mut fx, 16, 8);
        let c = sample_processes(&mut fx, 16, 8);
        assert!(a != b || b != c, "three identical samples are implausible");
    }
}
