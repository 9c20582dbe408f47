//! Timings of the reliability models: full Figure-2 / Figure-3 sweep cost
//! (these are analytic, so this mostly guards against accidental
//! complexity blow-ups in the Markov solver).

use fab_bench::timer::time;
use fab_reliability::{
    declustered_mttdl_hours, figure2, figure3, BrickParams, InternalLayout, Scheme, SystemDesign,
};

fn main() {
    let caps: Vec<f64> = (0..=30).map(|i| 10f64.powf(f64::from(i) / 10.0)).collect();
    time("figure2_full_sweep", 0, || figure2(&caps));
    time("figure3_full_sweep", 0, || figure3(256.0, 7, 13));
    time("markov_hitting_time", 0, || {
        declustered_mttdl_hours(16, 7, 5e5, 24.0)
    });
    let d = SystemDesign {
        scheme: Scheme::ErasureCode { m: 5, n: 8 },
        brick: BrickParams::commodity(),
        layout: InternalLayout::Raid5,
    };
    time("system_design_mttdl", 0, || d.mttdl_years(256.0));
}
