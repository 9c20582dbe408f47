//! Property coverage for the repair planner: over arbitrary volume
//! geometries and segment placements, a brick-rebuild plan contains
//! every stripe whose segment group includes the target brick exactly
//! once, and no others.

use fab_core::StripeId;
use fab_repair::{plan_brick_rebuild, plan_full_scrub, SegmentMap};
use fab_volume::{Layout, VolumeGeometry};
use propcheck::{ensure, ensure_eq, Gen};

fn geometry(g: &mut Gen) -> VolumeGeometry {
    let (stripe_count, m, block_size) =
        (g.range(1u64..200), g.range(1usize..8), g.range(1usize..512));
    let layout = g.pick(&[Layout::Linear, Layout::Interleaved]);
    VolumeGeometry::new(stripe_count, m, block_size, layout).with_base(g.range(0u64..1000))
}

fn segment_map(g: &mut Gen) -> SegmentMap {
    let num_bricks = g.range(1u32..16);
    SegmentMap::new(num_bricks, g.range(1..=num_bricks)).expect("valid by construction")
}

fn volume(geom: &VolumeGeometry) -> Vec<StripeId> {
    (geom.stripe_base..geom.stripe_base + geom.stripe_count)
        .map(StripeId)
        .collect()
}

propcheck::properties! {
    cases: 256;

    fn rebuild_plan_is_exactly_the_brick_stripes(g) {
        let (geom, map) = (geometry(g), segment_map(g));
        let brick = g.range(0..map.num_bricks);
        let plan = plan_brick_rebuild(&geom, &map, brick).expect("brick is a member");

        // Every stripe whose group includes the brick appears...
        let volume = volume(&geom);
        let expected: Vec<StripeId> =
            volume.iter().copied().filter(|&s| map.contains(s, brick)).collect();
        ensure_eq!(&plan.stripes, &expected);

        // ...exactly once (strictly ascending implies no duplicates)...
        ensure!(plan.stripes.windows(2).all(|w| w[0].0 < w[1].0));

        // ...and none others: membership cross-checked against group().
        for &s in &plan.stripes {
            ensure!(map.group(s).contains(&brick), "{s:?} planned but not hosted");
        }
        for &s in &volume {
            if !plan.stripes.contains(&s) {
                ensure!(!map.group(s).contains(&brick), "{s:?} hosted but not planned");
            }
        }

        ensure_eq!(plan.bytes_per_stripe, geom.m as u64 * geom.block_size as u64);
    }

    /// Rotated placement spreads load: a brick hosts at most
    /// ceil(group_size / num_bricks * stripe_count) + group_size stripes.
    fn group_size_bounds_plan_fraction(g) {
        let (geom, map) = (geometry(g), segment_map(g));
        let plan = plan_brick_rebuild(&geom, &map, 0).expect("brick 0 always a member");
        let per_rotation = u64::from(map.group_size);
        let rotations = geom.stripe_count / u64::from(map.num_bricks) + 2;
        ensure!(plan.stripes.len() as u64 <= per_rotation * rotations);
    }

    fn full_scrub_covers_the_volume_once(g) {
        let (geom, map) = (geometry(g), segment_map(g));
        ensure_eq!(plan_full_scrub(&geom, &map).stripes, volume(&geom));
    }

    fn plan_hash_is_stable_and_input_sensitive(g) {
        let (geom, map) = (geometry(g), segment_map(g));
        let a = plan_brick_rebuild(&geom, &map, 0).expect("member");
        let b = plan_brick_rebuild(&geom, &map, 0).expect("member");
        ensure_eq!(a.hash, b.hash, "hash must be a pure function of inputs");
        let scrub = plan_full_scrub(&geom, &map);
        ensure!(a.hash != scrub.hash, "distinct plans must not share a cursor");
    }
}
