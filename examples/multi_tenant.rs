//! Multi-tenant federation: several named logical volumes carved out of
//! one brick cluster (Figure 1: "FAB presents the client with a number of
//! logical volumes"), each with its own layout, all sharing the same
//! erasure-coded substrate and fault budget.
//!
//! Run: `cargo run --example multi_tenant`

use fab::prelude::*;
use fab_volume::VolumeManager;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One 6-brick federation with 4-of-6 coding (tolerates f = 1).
    let cfg = RegisterConfig::new(4, 6, 512)?;
    let cluster = SimCluster::new(cfg, SimConfig::ideal(99));
    let mut mgr = VolumeManager::new(SimClient::new(cluster));

    // Three tenants with different shapes and layouts.
    let mut boot = mgr.create("boot", 8, Layout::Linear)?; // sequential images
    let mut mail = mgr.create("mail", 64, Layout::Interleaved)?; // hot small writes
    let mut logs = mgr.create("logs", 32, Layout::Interleaved)?;

    println!("volumes on one 6-brick federation:");
    for (name, g) in mgr.list() {
        println!(
            "  {name:<6} {:>8} bytes  stripes {:>3}..{:<3} ({:?})",
            g.capacity_bytes(),
            g.stripe_base,
            g.stripe_base + g.stripe_count,
            g.layout,
        );
    }

    // Tenants write independently.
    boot.write(0, b"kernel image v5")?;
    mail.write(10_000, b"inbox: 3 unread")?;
    logs.write(512, b"2026-07-05T11:00:00Z boot ok")?;

    // A brick dies; every tenant keeps running.
    {
        let client = mgr.client();
        let mut guard = client.lock().expect("shared client lock");
        let t = guard.cluster_mut().sim().now();
        guard
            .cluster_mut()
            .sim_mut()
            .schedule_crash(t, ProcessId::new(4));
        guard.cluster_mut().sim_mut().run_until(t + 1);
    }
    println!("\nbrick p4 crashed");
    assert_eq!(boot.read(0, 15)?, b"kernel image v5");
    assert_eq!(mail.read(10_000, 15)?, b"inbox: 3 unread");
    assert_eq!(logs.read(512, 28)?, b"2026-07-05T11:00:00Z boot ok");
    println!("all three tenants still serve reads and writes");

    // Reopening a volume by name yields the same data.
    let mut mail2 = mgr.open("mail")?;
    assert_eq!(mail2.read(10_000, 15)?, b"inbox: 3 unread");

    // Decommission one tenant; the others are untouched.
    mgr.delete("logs")?;
    assert_eq!(mgr.list().count(), 2);
    assert_eq!(boot.read(0, 6)?, b"kernel");
    println!(
        "tenant \"logs\" decommissioned; {} volumes remain",
        mgr.list().count()
    );

    println!("ok");
    Ok(())
}
