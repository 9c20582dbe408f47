//! Simulation configuration: the network model of §2.
//!
//! The paper's system model is asynchronous (no bound on message delay or
//! process step time), with fair-loss channels that may reorder or drop —
//! but not corrupt — messages, and crash-recovery processes. [`SimConfig`]
//! parameterizes how harsh an instance of that model a run simulates.

/// Network and scheduling parameters for a simulation run.
///
/// Delays are in abstract *ticks*; the Table-1 benchmarks set
/// `min_delay = max_delay = δ` so operation latencies come out in exact
/// multiples of δ, while correctness tests widen the interval (and add
/// drops and duplicates) to exercise asynchrony.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Seed for the simulation's deterministic RNG. Same seed + same
    /// scheduled inputs ⇒ identical run.
    pub seed: u64,
    /// Minimum one-way message delay between distinct processes, in ticks.
    pub min_delay: u64,
    /// Maximum one-way message delay between distinct processes, in ticks
    /// (inclusive). Random per-message delays in `[min_delay, max_delay]`
    /// model asynchrony and reordering.
    pub max_delay: u64,
    /// Delivery delay for messages a process sends to itself.
    pub local_delay: u64,
    /// Probability in `[0, 1]` that a message is silently dropped
    /// (fair-loss: independent per transmission, so retransmission
    /// eventually succeeds).
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered twice.
    pub duplicate_probability: f64,
}

impl SimConfig {
    /// A benign network: fixed unit delay, no loss. This is the
    /// configuration under which Table 1's failure-free costs are measured
    /// (latency in exact multiples of δ = 1 tick).
    pub fn ideal(seed: u64) -> Self {
        SimConfig {
            seed,
            min_delay: 1,
            max_delay: 1,
            local_delay: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
        }
    }

    /// An adversarial network: wide delay spread (heavy reordering), 10%
    /// loss, 5% duplication. Correctness tests default to this.
    pub fn harsh(seed: u64) -> Self {
        SimConfig {
            seed,
            min_delay: 1,
            max_delay: 50,
            local_delay: 0,
            drop_probability: 0.10,
            duplicate_probability: 0.05,
        }
    }

    /// Sets the delay interval, returning `self` for chaining.
    pub fn delays(mut self, min: u64, max: u64) -> Self {
        assert!(min <= max, "min_delay must not exceed max_delay");
        self.min_delay = min;
        self.max_delay = max;
        self
    }

    /// Sets the drop probability, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)` — probability 1 would violate
    /// fair-loss (no message would ever arrive).
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_probability = p;
        self
    }

    /// Sets the duplicate probability, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0,1]"
        );
        self.duplicate_probability = p;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::ideal(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_deterministic_unit_delay() {
        let c = SimConfig::ideal(1);
        assert_eq!(c.min_delay, 1);
        assert_eq!(c.max_delay, 1);
        assert_eq!(c.drop_probability, 0.0);
    }

    #[test]
    fn builders_chain() {
        let c = SimConfig::ideal(0)
            .delays(2, 9)
            .drop_probability(0.5)
            .duplicate_probability(0.25);
        assert_eq!((c.min_delay, c.max_delay), (2, 9));
        assert_eq!(c.drop_probability, 0.5);
        assert_eq!(c.duplicate_probability, 0.25);
    }

    #[test]
    #[should_panic(expected = "min_delay")]
    fn inverted_delays_panic() {
        let _ = SimConfig::ideal(0).delays(5, 2);
    }

    #[test]
    #[should_panic(expected = "[0,1)")]
    fn total_loss_panics() {
        let _ = SimConfig::ideal(0).drop_probability(1.0);
    }

    #[test]
    fn default_is_ideal_seed_zero() {
        assert_eq!(SimConfig::default(), SimConfig::ideal(0));
    }
}
