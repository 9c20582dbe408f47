//! Volume management: many named logical volumes on one brick federation.
//!
//! Figure 1's FAB "presents the client with a number of logical volumes".
//! A [`VolumeManager`] carves the cluster's stripe-id space into
//! non-overlapping ranges, one per named volume, and hands out [`Volume`]
//! handles that share the underlying register client (via the shared-client
//! blanket impls on `Rc<RefCell<C>>` and `Arc<Mutex<C>>`).
//!
//! The catalog itself is process-local state: FAB kept volume metadata in
//! a (Paxos-replicated) metadata service outside this paper's scope, so
//! recreating volumes after a restart is the caller's responsibility —
//! the *data* is durable wherever the underlying client is.

use crate::layout::{Layout, VolumeGeometry};
use crate::volume::Volume;
use fab_core::RegisterClient;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Errors from volume management.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManagerError {
    /// A volume with that name already exists.
    AlreadyExists {
        /// The conflicting name.
        name: String,
    },
    /// No volume with that name exists.
    NotFound {
        /// The requested name.
        name: String,
    },
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::AlreadyExists { name } => {
                write!(f, "volume \"{name}\" already exists")
            }
            ManagerError::NotFound { name } => write!(f, "no volume named \"{name}\""),
        }
    }
}

impl Error for ManagerError {}

/// Allocates named volumes over one shared register client.
///
/// # Examples
///
/// ```
/// use fab_core::{RegisterConfig, SimCluster};
/// use fab_simnet::SimConfig;
/// use fab_volume::{Layout, SimClient, VolumeManager};
///
/// let cfg = RegisterConfig::new(2, 4, 512)?;
/// let cluster = SimCluster::new(cfg, SimConfig::ideal(3));
/// let mut mgr = VolumeManager::new(SimClient::new(cluster));
///
/// let mut boot = mgr.create("boot", 8, Layout::Linear)?;
/// let mut data = mgr.create("data", 32, Layout::Interleaved)?;
/// boot.write(0, b"bootloader")?;
/// data.write(0, b"database")?;
/// assert_eq!(boot.read(0, 10)?, b"bootloader");
/// assert_eq!(data.read(0, 8)?, b"database");
/// assert_eq!(mgr.list().count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct VolumeManager<C> {
    client: Arc<Mutex<C>>,
    m: usize,
    block_size: usize,
    volumes: BTreeMap<String, VolumeGeometry>,
    next_base: u64,
}

impl<C: RegisterClient> VolumeManager<C> {
    /// Wraps a register client as the backing store for managed volumes.
    pub fn new(client: C) -> Self {
        let cfg = client.config();
        VolumeManager {
            client: Arc::new(Mutex::new(client)),
            m: cfg.m(),
            block_size: cfg.block_size(),
            volumes: BTreeMap::new(),
            next_base: 0,
        }
    }

    /// Creates a named volume of `stripes` stripes and returns a handle.
    ///
    /// # Errors
    ///
    /// [`ManagerError::AlreadyExists`] if the name is taken.
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero (via [`VolumeGeometry::new`]).
    pub fn create(
        &mut self,
        name: &str,
        stripes: u64,
        layout: Layout,
    ) -> Result<Volume<Arc<Mutex<C>>>, ManagerError> {
        if self.volumes.contains_key(name) {
            return Err(ManagerError::AlreadyExists {
                name: name.to_string(),
            });
        }
        let geometry =
            VolumeGeometry::new(stripes, self.m, self.block_size, layout).with_base(self.next_base);
        self.next_base += stripes;
        self.volumes.insert(name.to_string(), geometry);
        Ok(Volume::new(self.client.clone(), geometry))
    }

    /// Opens an existing volume by name.
    ///
    /// # Errors
    ///
    /// [`ManagerError::NotFound`] for unknown names.
    pub fn open(&self, name: &str) -> Result<Volume<Arc<Mutex<C>>>, ManagerError> {
        let geometry = self
            .volumes
            .get(name)
            .copied()
            .ok_or_else(|| ManagerError::NotFound {
                name: name.to_string(),
            })?;
        Ok(Volume::new(self.client.clone(), geometry))
    }

    /// Removes a volume from the catalog. Its stripe range is retired,
    /// not reused (register state for old stripes remains on the bricks;
    /// a trim/discard protocol is outside the paper's scope).
    ///
    /// # Errors
    ///
    /// [`ManagerError::NotFound`] for unknown names.
    pub fn delete(&mut self, name: &str) -> Result<(), ManagerError> {
        self.volumes
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ManagerError::NotFound {
                name: name.to_string(),
            })
    }

    /// Iterates over `(name, geometry)` of the catalog, sorted by name.
    pub fn list(&self) -> impl Iterator<Item = (&str, VolumeGeometry)> {
        self.volumes.iter().map(|(n, g)| (n.as_str(), *g))
    }

    /// The shared client (e.g. for fault injection in tests).
    pub fn client(&self) -> Arc<Mutex<C>> {
        self.client.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SimClient;
    use fab_core::{RegisterConfig, SimCluster};
    use fab_simnet::SimConfig;

    fn manager() -> VolumeManager<SimClient> {
        let cfg = RegisterConfig::new(2, 4, 64).unwrap();
        let cluster = SimCluster::new(cfg, SimConfig::ideal(4));
        VolumeManager::new(SimClient::new(cluster))
    }

    #[test]
    fn create_open_write_read() {
        let mut mgr = manager();
        let mut a = mgr.create("a", 4, Layout::Interleaved).unwrap();
        a.write(5, b"hello").unwrap();
        // A second handle to the same volume sees the data.
        let mut a2 = mgr.open("a").unwrap();
        assert_eq!(a2.read(5, 5).unwrap(), b"hello");
    }

    #[test]
    fn volumes_get_disjoint_ranges() {
        let mut mgr = manager();
        let mut a = mgr.create("a", 4, Layout::Linear).unwrap();
        let mut b = mgr.create("b", 4, Layout::Linear).unwrap();
        assert_eq!(a.geometry().stripe_base, 0);
        assert_eq!(b.geometry().stripe_base, 4);
        let fill = vec![0xAAu8; a.capacity_bytes() as usize];
        a.write(0, &fill).unwrap();
        assert_eq!(b.read(0, 16).unwrap(), vec![0u8; 16], "b untouched");
        b.write(0, b"bbbb").unwrap();
        assert_eq!(&a.read(0, 4).unwrap(), &[0xAA; 4], "a untouched");
    }

    #[test]
    fn duplicate_and_missing_names_error() {
        let mut mgr = manager();
        mgr.create("a", 2, Layout::Linear).unwrap();
        assert!(matches!(
            mgr.create("a", 2, Layout::Linear),
            Err(ManagerError::AlreadyExists { .. })
        ));
        assert!(matches!(mgr.open("zz"), Err(ManagerError::NotFound { .. })));
        assert!(matches!(
            mgr.delete("zz"),
            Err(ManagerError::NotFound { .. })
        ));
    }

    #[test]
    fn delete_retires_names_without_reuse() {
        let mut mgr = manager();
        mgr.create("a", 4, Layout::Linear).unwrap();
        mgr.delete("a").unwrap();
        assert_eq!(mgr.list().count(), 0);
        // A new volume gets a fresh range, never a's old stripes.
        let b = mgr.create("b", 2, Layout::Linear).unwrap();
        assert_eq!(b.geometry().stripe_base, 4);
    }

    #[test]
    fn list_is_sorted_by_name() {
        let mut mgr = manager();
        mgr.create("zeta", 1, Layout::Linear).unwrap();
        mgr.create("alpha", 1, Layout::Linear).unwrap();
        let names: Vec<&str> = mgr.list().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ManagerError::NotFound { name: "x".into() }.to_string(),
            "no volume named \"x\""
        );
    }
}
