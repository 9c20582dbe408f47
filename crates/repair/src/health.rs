//! Degraded-stripe tracking: reads that had to take the recovery path
//! report their stripe here, and the repair driver promotes the hottest
//! degraded stripes to the front of the queue.
//!
//! Until a stripe is repaired, every read of it pays the recovery tax
//! (the dominant degraded-read cost in erasure-coded systems), so
//! repairing stripes the workload actually touches first directly cuts
//! foreground latency.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use fab_core::StripeId;

/// A shared map of stripe → degraded-read count. Cheap to clone; all
/// clones observe the same map.
///
/// Lock discipline: every method takes the internal lock for a few map
/// operations and releases it before returning — no calls are made with
/// the lock held, so `HealthMap` can never participate in a lock cycle,
/// and the map is valid at every step, so a poisoned lock is recovered.
#[derive(Debug, Clone, Default)]
pub struct HealthMap {
    inner: Arc<Mutex<BTreeMap<StripeId, u64>>>,
}

impl HealthMap {
    /// An empty map.
    pub fn new() -> Self {
        HealthMap::default()
    }

    /// Records one degraded (recovery-path) read of `stripe`.
    pub fn report(&self, stripe: StripeId) {
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *map.entry(stripe).or_insert(0) += 1;
    }

    /// Takes the current hot set, hottest first (ties broken by stripe
    /// id for determinism), clearing the map. Callers own filtering out
    /// stripes they no longer care about.
    pub fn drain_hot(&self) -> Vec<StripeId> {
        let drained: Vec<(StripeId, u64)> = {
            let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *map).into_iter().collect()
        };
        let mut entries = drained;
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        entries.into_iter().map(|(s, _)| s).collect()
    }

    /// Number of distinct degraded stripes currently recorded. (Named to
    /// avoid the ubiquitous `len`/`is_empty` pair: the static lint engine
    /// resolves calls by method name, and a lock-taking `len` would put
    /// every collection in the workspace under suspicion.)
    pub fn degraded_count(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hottest_first_with_deterministic_ties() {
        let h = HealthMap::new();
        for _ in 0..3 {
            h.report(StripeId(7));
        }
        h.report(StripeId(2));
        h.report(StripeId(9));
        assert_eq!(h.degraded_count(), 3);
        assert_eq!(
            h.drain_hot(),
            vec![StripeId(7), StripeId(2), StripeId(9)],
            "count desc, then stripe id asc"
        );
        assert_eq!(h.degraded_count(), 0, "drain clears the map");
    }

    #[test]
    fn clones_share_state() {
        let h = HealthMap::new();
        let h2 = h.clone();
        h2.report(StripeId(1));
        assert_eq!(h.drain_hot(), vec![StripeId(1)]);
    }
}
