//! Byte-range I/O over a striped set of storage registers — the logical
//! volume a FAB client sees (Figure 1).
//!
//! A [`Volume`] turns block- and byte-addressed reads/writes into register
//! operations:
//!
//! * aligned whole-stripe extents use `read-stripe` / `write-stripe`,
//! * single blocks use `read-block` / `write-block`,
//! * sub-block writes do a read-modify-write of the containing block
//!   (atomic per block, like a physical disk sector — multi-block writes
//!   are not atomic as a unit, exactly like a physical disk).
//!
//! Aborted register operations (the paper's `⊥`, caused by genuinely
//! concurrent conflicting access or clock skew) are retried a configurable
//! number of times; §3 argues conflicts are rare in disk workloads, so
//! retries almost never recur.

use crate::layout::VolumeGeometry;
use bytes::Bytes;
use fab_core::{BlockValue, ClientError, OpResult, RegisterClient, StripeValue};
use std::error::Error;
use std::fmt;

/// Errors surfaced by volume I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VolumeError {
    /// The byte or block range exceeds the volume capacity.
    OutOfRange {
        /// First out-of-range byte offset.
        offset: u64,
        /// Volume capacity in bytes.
        capacity: u64,
    },
    /// The register operation kept aborting beyond the retry budget.
    TooManyConflicts {
        /// Number of attempts made.
        attempts: u32,
    },
    /// A block write's data length did not match the block size.
    WrongBlockLength {
        /// Required length.
        expected: usize,
        /// Supplied length.
        actual: usize,
    },
    /// The register client got no answer: no brick of the cluster is
    /// reachable (or the cluster refused the request outright).
    Unavailable,
}

/// Segments of one stripe: `(stripe, [(index, logical block, within, len)])`.
type StripeGroup = (fab_core::StripeId, Vec<(usize, u64, usize, usize)>);

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VolumeError::OutOfRange { offset, capacity } => {
                write!(f, "offset {offset} beyond volume capacity {capacity}")
            }
            VolumeError::TooManyConflicts { attempts } => {
                write!(
                    f,
                    "operation aborted {attempts} times (concurrent conflicts)"
                )
            }
            VolumeError::WrongBlockLength { expected, actual } => {
                write!(f, "block write needs {expected} bytes, got {actual}")
            }
            VolumeError::Unavailable => write!(f, "no brick of the cluster answered"),
        }
    }
}

impl Error for VolumeError {}

/// A logical volume over a cluster of stripe registers.
///
/// # Examples
///
/// ```
/// use fab_volume::{Layout, SimClient, Volume, VolumeGeometry};
/// use fab_core::{RegisterConfig, SimCluster};
/// use fab_simnet::SimConfig;
///
/// // A 5-of-8 coded volume: 16 stripes x 5 blocks x 1 KiB = 80 KiB.
/// let cfg = RegisterConfig::new(5, 8, 1024)?;
/// let cluster = SimCluster::new(cfg, SimConfig::ideal(9));
/// let geometry = VolumeGeometry::new(16, 5, 1024, Layout::Interleaved);
/// let mut vol = Volume::new(SimClient::new(cluster), geometry);
///
/// vol.write(4000, b"hello, virtual disk")?;
/// assert_eq!(vol.read(4000, 19)?, b"hello, virtual disk");
/// // Unwritten space reads as zeros, like a fresh disk.
/// assert_eq!(vol.read(0, 4)?, vec![0, 0, 0, 0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Volume<C> {
    client: C,
    geometry: VolumeGeometry,
    /// How many times an aborted register operation is retried.
    pub max_retries: u32,
    /// Cumulative count of aborts encountered (and retried).
    pub aborts_observed: u64,
}

impl<C: RegisterClient> Volume<C> {
    /// Creates a volume over `client` with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's `m`/`block_size` disagree with the
    /// client's register configuration.
    pub fn new(client: C, geometry: VolumeGeometry) -> Self {
        assert_eq!(
            geometry.m,
            client.config().m(),
            "geometry m must match the register code"
        );
        assert_eq!(
            geometry.block_size,
            client.config().block_size(),
            "geometry block size must match the register configuration"
        );
        Volume {
            client,
            geometry,
            max_retries: 16,
            aborts_observed: 0,
        }
    }

    /// The volume geometry.
    pub fn geometry(&self) -> VolumeGeometry {
        self.geometry
    }

    /// The underlying register client.
    pub fn client_mut(&mut self) -> &mut C {
        &mut self.client
    }

    /// Volume capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.capacity_bytes()
    }

    fn retry<F>(&mut self, mut op: F) -> Result<OpResult, VolumeError>
    where
        F: FnMut(&mut C) -> Result<OpResult, ClientError>,
    {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match op(&mut self.client).map_err(|_| VolumeError::Unavailable)? {
                OpResult::Aborted(_) if attempts <= self.max_retries => {
                    self.aborts_observed += 1;
                }
                OpResult::Aborted(_) => return Err(VolumeError::TooManyConflicts { attempts }),
                done => return Ok(done),
            }
        }
    }

    /// Reads one logical block (zero-filled if never written).
    ///
    /// # Errors
    ///
    /// [`VolumeError::OutOfRange`] past capacity;
    /// [`VolumeError::TooManyConflicts`] under persistent contention;
    /// [`VolumeError::Unavailable`] when no brick answers.
    pub fn read_block(&mut self, block: u64) -> Result<Bytes, VolumeError> {
        self.check_block(block)?;
        let (stripe, j) = self.geometry.locate(block);
        let result = self.retry(|c| c.read_block(stripe, j))?;
        match result {
            OpResult::Block(BlockValue::Data(b)) => Ok(b),
            OpResult::Block(BlockValue::Nil) => {
                Ok(Bytes::from(vec![0u8; self.geometry.block_size]))
            }
            other => unreachable!("read-block returned {other:?}"),
        }
    }

    /// Writes one logical block.
    ///
    /// # Errors
    ///
    /// [`VolumeError::WrongBlockLength`] unless `data` is exactly one
    /// block; otherwise as [`Volume::read_block`].
    pub fn write_block(&mut self, block: u64, data: &Bytes) -> Result<(), VolumeError> {
        self.check_block(block)?;
        if data.len() != self.geometry.block_size {
            return Err(VolumeError::WrongBlockLength {
                expected: self.geometry.block_size,
                actual: data.len(),
            });
        }
        let (stripe, j) = self.geometry.locate(block);
        let result = self.retry(|c| c.write_block(stripe, j, data.clone()))?;
        debug_assert_eq!(result, OpResult::Written);
        Ok(())
    }

    /// Splits the byte range `[offset, offset+len)` into per-block
    /// segments `(logical block, within-block offset, length)`.
    fn segments(&self, offset: u64, len: usize) -> Vec<(u64, usize, usize)> {
        let bs = self.geometry.block_size as u64;
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let block = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((bs as usize) - within).min((end - pos) as usize);
            out.push((block, within, take));
            pos += take as u64;
        }
        out
    }

    /// Groups per-block segments by the stripe that hosts them, preserving
    /// segment order inside each group.
    fn group_by_stripe(&self, segments: &[(u64, usize, usize)]) -> Vec<StripeGroup> {
        let mut groups: Vec<StripeGroup> = Vec::new();
        for &(block, within, take) in segments {
            let (stripe, j) = self.geometry.locate(block);
            match groups.iter_mut().find(|(s, _)| *s == stripe) {
                Some((_, items)) => items.push((j, block, within, take)),
                None => groups.push((stripe, vec![(j, block, within, take)])),
            }
        }
        groups
    }

    /// Reads the listed blocks of one stripe in a single register
    /// operation (`Nil` materializes as zeros).
    fn fetch_blocks(
        &mut self,
        stripe: fab_core::StripeId,
        js: &[usize],
    ) -> Result<Vec<Bytes>, VolumeError> {
        let bs = self.geometry.block_size;
        let result = self.retry(|c| c.read_blocks(stripe, js.to_vec()))?;
        match result {
            OpResult::Blocks(values) => Ok(values
                .into_iter()
                .map(|v| match v {
                    BlockValue::Data(b) => b,
                    BlockValue::Nil => Bytes::from(vec![0u8; bs]),
                    BlockValue::Bottom => unreachable!("reads never return ⊥"),
                })
                .collect()),
            other => unreachable!("read-blocks returned {other:?}"),
        }
    }

    /// Reads `len` bytes starting at byte `offset`.
    ///
    /// Blocks that share a stripe are fetched with one multi-block
    /// register operation, so the data within each stripe is a consistent
    /// snapshot (reads spanning stripes are not atomic as a unit, exactly
    /// like a physical disk).
    ///
    /// # Errors
    ///
    /// As [`Volume::read_block`].
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, VolumeError> {
        self.check_range(offset, len as u64)?;
        let segments = self.segments(offset, len);
        let bs = self.geometry.block_size as u64;
        let mut out = vec![0u8; len];
        for (stripe, items) in self.group_by_stripe(&segments) {
            let mut js: Vec<usize> = items.iter().map(|&(j, ..)| j).collect();
            js.sort_unstable();
            js.dedup();
            let blocks = self.fetch_blocks(stripe, &js)?;
            for (j, block, within, take) in items {
                let data = &blocks[js.iter().position(|&x| x == j).expect("listed")];
                let dst = (block * bs + within as u64 - offset) as usize;
                out[dst..dst + take].copy_from_slice(&data[within..within + take]);
            }
        }
        Ok(out)
    }

    /// Writes `data` starting at byte `offset`. Sub-block head/tail
    /// fragments use read-modify-write; blocks that share a stripe are
    /// written with one multi-block register operation (atomic per stripe,
    /// like a disk's multi-sector write within one track — multi-stripe
    /// writes are not atomic as a unit).
    ///
    /// # Errors
    ///
    /// As [`Volume::read_block`].
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), VolumeError> {
        self.check_range(offset, data.len() as u64)?;
        let segments = self.segments(offset, data.len());
        let bs = self.geometry.block_size as u64;
        for (stripe, items) in self.group_by_stripe(&segments) {
            // Fetch current contents of partially-covered blocks first.
            let partial_js: Vec<usize> = {
                let mut v: Vec<usize> = items
                    .iter()
                    .filter(|&&(_, _, _, take)| take != bs as usize)
                    .map(|&(j, ..)| j)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let partial_blocks = if partial_js.is_empty() {
                Vec::new()
            } else {
                self.fetch_blocks(stripe, &partial_js)?
            };
            let mut updates: Vec<(usize, Bytes)> = Vec::with_capacity(items.len());
            for (j, block, within, take) in items {
                let src_at = (block * bs + within as u64 - offset) as usize;
                let src = &data[src_at..src_at + take];
                let bytes = if take == bs as usize {
                    Bytes::copy_from_slice(src)
                } else {
                    let base =
                        &partial_blocks[partial_js.iter().position(|&x| x == j).expect("listed")];
                    let mut whole = base.to_vec();
                    whole[within..within + take].copy_from_slice(src);
                    Bytes::from(whole)
                };
                match updates.iter_mut().find(|(uj, _)| *uj == j) {
                    // A head and tail fragment of the same block within
                    // one call: merge (later segment wins its range).
                    Some((_, existing)) => {
                        let mut whole = existing.to_vec();
                        whole[within..within + take].copy_from_slice(src);
                        *existing = Bytes::from(whole);
                    }
                    None => updates.push((j, bytes)),
                }
            }
            if updates.len() == self.geometry.m
                && updates
                    .iter()
                    .all(|(_, b)| b.len() == self.geometry.block_size)
            {
                // Whole-stripe write: one Order + Write round pair.
                let mut blocks = updates;
                blocks.sort_by_key(|(j, _)| *j);
                let stripe_blocks: Vec<Bytes> = blocks.into_iter().map(|(_, b)| b).collect();
                let result = self.retry(|c| c.write_stripe(stripe, stripe_blocks.clone()))?;
                debug_assert_eq!(result, OpResult::Written);
            } else {
                let result = self.retry(|c| c.write_blocks(stripe, updates.clone()))?;
                debug_assert_eq!(result, OpResult::Written);
            }
        }
        Ok(())
    }

    /// Reads a whole stripe-aligned extent with one `read-stripe` per
    /// stripe (the fast path for large sequential reads under
    /// [`Layout::Linear`](crate::Layout::Linear)).
    ///
    /// # Errors
    ///
    /// As [`Volume::read_block`].
    pub fn read_stripe(&mut self, stripe: fab_core::StripeId) -> Result<Vec<Bytes>, VolumeError> {
        let m = self.geometry.m;
        let bs = self.geometry.block_size;
        let result = self.retry(|c| c.read_stripe(stripe))?;
        match result {
            OpResult::Stripe(StripeValue::Data(blocks)) => Ok(blocks),
            OpResult::Stripe(StripeValue::Nil) => Ok(vec![Bytes::from(vec![0u8; bs]); m]),
            other => unreachable!("read-stripe returned {other:?}"),
        }
    }

    /// Writes a whole stripe with one `write-stripe`.
    ///
    /// # Errors
    ///
    /// As [`Volume::write_block`].
    pub fn write_stripe(
        &mut self,
        stripe: fab_core::StripeId,
        blocks: &[Bytes],
    ) -> Result<(), VolumeError> {
        if blocks.len() != self.geometry.m
            || blocks.iter().any(|b| b.len() != self.geometry.block_size)
        {
            return Err(VolumeError::WrongBlockLength {
                expected: self.geometry.block_size,
                actual: blocks.first().map_or(0, Bytes::len),
            });
        }
        let result = self.retry(|c| c.write_stripe(stripe, blocks.to_vec()))?;
        debug_assert_eq!(result, OpResult::Written);
        Ok(())
    }

    /// Scrubs one stripe (recover + write back to every reachable brick).
    ///
    /// # Errors
    ///
    /// [`VolumeError::TooManyConflicts`] under persistent contention;
    /// [`VolumeError::Unavailable`] when no brick answers.
    pub fn scrub(&mut self, stripe: fab_core::StripeId) -> Result<(), VolumeError> {
        let result = self.retry(|c| c.scrub(stripe))?;
        debug_assert!(matches!(result, OpResult::Stripe(_)));
        Ok(())
    }

    /// Scrubs every stripe of the volume — the maintenance pass an
    /// operator runs after a brick is replaced, restoring the full fault
    /// budget.
    ///
    /// # Errors
    ///
    /// As [`Volume::scrub`].
    pub fn scrub_all(&mut self) -> Result<(), VolumeError> {
        let base = self.geometry.stripe_base;
        for sid in base..base + self.geometry.stripe_count {
            self.scrub(fab_core::StripeId(sid))?;
        }
        Ok(())
    }

    fn check_block(&self, block: u64) -> Result<(), VolumeError> {
        if block >= self.geometry.capacity_blocks() {
            return Err(VolumeError::OutOfRange {
                offset: block * self.geometry.block_size as u64,
                capacity: self.capacity_bytes(),
            });
        }
        Ok(())
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), VolumeError> {
        if offset + len > self.capacity_bytes() {
            return Err(VolumeError::OutOfRange {
                offset: offset + len,
                capacity: self.capacity_bytes(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimClient;
    use crate::layout::Layout;
    use fab_core::{RegisterConfig, SimCluster};
    use fab_simnet::SimConfig;

    fn volume(m: usize, n: usize, stripes: u64, bs: usize, layout: Layout) -> Volume<SimClient> {
        let cfg = RegisterConfig::new(m, n, bs).unwrap();
        let cluster = SimCluster::new(cfg, SimConfig::ideal(5));
        Volume::new(
            SimClient::new(cluster),
            VolumeGeometry::new(stripes, m, bs, layout),
        )
    }

    #[test]
    fn fresh_volume_reads_zeros() {
        let mut v = volume(2, 4, 4, 16, Layout::Interleaved);
        assert_eq!(v.read(0, 40).unwrap(), vec![0u8; 40]);
        assert_eq!(v.read_block(7).unwrap(), Bytes::from(vec![0u8; 16]));
    }

    #[test]
    fn block_write_read_round_trip() {
        let mut v = volume(2, 4, 4, 16, Layout::Interleaved);
        let data = Bytes::from(vec![0xAB; 16]);
        v.write_block(5, &data).unwrap();
        assert_eq!(v.read_block(5).unwrap(), data);
        // Neighbors untouched.
        assert_eq!(v.read_block(4).unwrap(), Bytes::from(vec![0u8; 16]));
        assert_eq!(v.read_block(6).unwrap(), Bytes::from(vec![0u8; 16]));
    }

    #[test]
    fn byte_io_spans_blocks_and_stripes() {
        let mut v = volume(2, 4, 4, 16, Layout::Interleaved);
        let payload: Vec<u8> = (0..60u8).collect();
        v.write(10, &payload).unwrap();
        assert_eq!(v.read(10, 60).unwrap(), payload);
        // Everything before and after is still zero.
        assert_eq!(v.read(0, 10).unwrap(), vec![0u8; 10]);
        assert_eq!(v.read(70, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn sub_block_write_preserves_surroundings() {
        let mut v = volume(2, 4, 2, 16, Layout::Linear);
        v.write_block(0, &Bytes::from(vec![0x11; 16])).unwrap();
        v.write(4, b"XYZ").unwrap();
        let got = v.read_block(0).unwrap();
        assert_eq!(&got[..4], &[0x11; 4]);
        assert_eq!(&got[4..7], b"XYZ");
        assert_eq!(&got[7..], &[0x11; 9]);
    }

    #[test]
    fn stripe_io_round_trip() {
        let mut v = volume(3, 5, 4, 8, Layout::Linear);
        let blocks: Vec<Bytes> = (0..3).map(|i| Bytes::from(vec![i as u8 + 1; 8])).collect();
        v.write_stripe(fab_core::StripeId(2), &blocks)
            .unwrap();
        assert_eq!(v.read_stripe(fab_core::StripeId(2)).unwrap(), blocks);
        // Via the linear byte mapping, stripe 2 is bytes 48..72.
        assert_eq!(v.read(48, 8).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut v = volume(2, 4, 2, 16, Layout::Linear);
        assert!(matches!(
            v.read(60, 10),
            Err(VolumeError::OutOfRange { .. })
        ));
        assert!(matches!(
            v.write_block(4, &Bytes::from(vec![0u8; 16])),
            Err(VolumeError::OutOfRange { .. })
        ));
        assert!(matches!(
            v.write_block(0, &Bytes::from(vec![0u8; 5])),
            Err(VolumeError::WrongBlockLength { .. })
        ));
    }

    #[test]
    fn survives_a_brick_crash_mid_workload() {
        let mut v = volume(2, 4, 4, 16, Layout::Interleaved);
        let payload: Vec<u8> = (0..100u8).collect();
        v.write(0, &payload).unwrap();
        let now = v.client_mut().cluster_mut().sim().now();
        v.client_mut()
            .cluster_mut()
            .sim_mut()
            .schedule_crash(now, fab_timestamp::ProcessId::new(2));
        v.client_mut().cluster_mut().sim_mut().run_until(now + 1);
        assert_eq!(v.read(0, 100).unwrap(), payload);
        v.write(50, b"post-crash").unwrap();
        assert_eq!(v.read(50, 10).unwrap(), b"post-crash");
    }

    #[test]
    fn error_display() {
        let e = VolumeError::TooManyConflicts { attempts: 3 };
        assert!(e.to_string().contains("3 times"));
        let e = VolumeError::OutOfRange {
            offset: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("capacity 5"));
    }
}
