//! Durable bricks: a threaded cluster whose state lives in append-only
//! on-disk logs, surviving crashes and full process restarts — the
//! `store(var)` persistence the paper's crash-recovery model assumes
//! (§2, §4.2), made physical.
//!
//! Run: `cargo run --example durable_cluster`

use fab::prelude::*;
use fab_core::OpResult;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("fab-durable-demo-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (m, n, size) = (2usize, 4usize, 256usize);

    // ---- first power-on -------------------------------------------------
    println!("first power-on: 4 durable bricks under {}", dir.display());
    {
        let cluster = RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size)?, &dir);
        let mut disk = Volume::new(
            cluster.client(),
            VolumeGeometry::new(16, m, size, Layout::Interleaved),
        );
        disk.write(1_000, b"written before the power cycle")?;
        println!("wrote 30 bytes at offset 1000");

        // A brick crash wipes that brick's MEMORY entirely; recovery
        // replays its on-disk log.
        cluster.crash(ProcessId::new(2));
        println!("brick p2 crashed (lost all in-memory state)");
        assert_eq!(disk.read(1_000, 30)?, b"written before the power cycle");
        println!("reads keep working on the survivors");
        cluster.recover(ProcessId::new(2));
        println!("brick p2 recovered from its log");
        disk.write(5_000, b"and this lands after the recovery")?;
        cluster.shutdown();
        println!("cluster shut down\n");
    }

    // ---- second power-on ------------------------------------------------
    println!("second power-on over the same directory");
    {
        let cluster = RuntimeCluster::with_persistence(RegisterConfig::new(m, n, size)?, &dir);
        let mut client = cluster.client();
        // Raw register check: the stripes recovered with their data.
        let r = client.read_stripe(StripeId(0))?;
        assert!(matches!(r, OpResult::Stripe(_)));
        let mut disk = Volume::new(
            cluster.client(),
            VolumeGeometry::new(16, m, size, Layout::Interleaved),
        );
        assert_eq!(disk.read(1_000, 30)?, b"written before the power cycle");
        assert_eq!(disk.read(5_000, 33)?, b"and this lands after the recovery");
        println!("all data recovered from the brick logs");
        cluster.shutdown();
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("ok");
    Ok(())
}
