//! Network metrics, the measurement side of Table 1.
//!
//! The simulator counts every message transmission and its wire size; the
//! protocol crates layer their own disk-I/O counters on top (disk activity
//! is an actor concern, not a network one). Counters can be snapshotted and
//! diffed so a harness can attribute costs to a single operation.

/// Cumulative network counters for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Messages handed to the network (including ones later dropped).
    pub messages_sent: u64,
    /// Messages actually delivered to a running process.
    pub messages_delivered: u64,
    /// Messages dropped by the fair-loss channel.
    pub messages_dropped: u64,
    /// Extra deliveries due to duplication.
    pub messages_duplicated: u64,
    /// Messages discarded because the destination was crashed or the
    /// source-destination pair was partitioned.
    pub messages_suppressed: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
}

impl NetMetrics {
    /// Returns the element-wise difference `self − earlier`.
    ///
    /// Used to attribute costs to one operation: snapshot before, run,
    /// subtract.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter went backwards.
    pub fn since(&self, earlier: &NetMetrics) -> NetMetrics {
        debug_assert!(self.messages_sent >= earlier.messages_sent);
        NetMetrics {
            messages_sent: self.messages_sent - earlier.messages_sent,
            messages_delivered: self.messages_delivered - earlier.messages_delivered,
            messages_dropped: self.messages_dropped - earlier.messages_dropped,
            messages_duplicated: self.messages_duplicated - earlier.messages_duplicated,
            messages_suppressed: self.messages_suppressed - earlier.messages_suppressed,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
        }
    }
}

/// Wire-size accounting for message payloads.
///
/// Table 1 reports network bandwidth in units of the block size `B`;
/// implementing `wire_size` on protocol messages (counting block payloads
/// plus a fixed header) lets the simulator report comparable numbers
/// without actually serializing anything.
pub trait WireSize {
    /// The number of bytes this value would occupy on the wire.
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        self.as_ref().map_or(0, WireSize::wire_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let early = NetMetrics {
            messages_sent: 10,
            bytes_sent: 100,
            ..NetMetrics::default()
        };
        let late = NetMetrics {
            messages_sent: 15,
            bytes_sent: 180,
            messages_delivered: 12,
            ..NetMetrics::default()
        };
        let d = late.since(&early);
        assert_eq!(d.messages_sent, 5);
        assert_eq!(d.bytes_sent, 80);
        assert_eq!(d.messages_delivered, 12);
    }

    #[test]
    fn wire_size_impls() {
        assert_eq!(().wire_size(), 0);
        assert_eq!(vec![1u8, 2, 3].wire_size(), 3);
        assert_eq!(Some(vec![1u8, 2]).wire_size(), 2);
        assert_eq!(Option::<Vec<u8>>::None.wire_size(), 0);
    }
}
