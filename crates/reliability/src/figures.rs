//! Series generators for Figure 2 (MTTDL vs capacity) and Figure 3
//! (storage overhead vs MTTDL).

use crate::params::{BrickParams, InternalLayout};
use crate::schemes::{Scheme, SystemDesign};

/// One point of a Figure-2 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttdlPoint {
    /// Logical capacity in terabytes.
    pub capacity_tb: f64,
    /// Mean time to first data loss in years.
    pub mttdl_years: f64,
    /// Number of bricks in the design.
    pub bricks: usize,
}

/// One named curve of Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MttdlSeries {
    /// Curve label as it appears in the paper's legend.
    pub label: String,
    /// Points, one per capacity.
    pub points: Vec<MttdlPoint>,
}

/// The five system designs plotted in Figure 2.
pub fn figure2_designs() -> Vec<(String, SystemDesign)> {
    let commodity = BrickParams::commodity();
    vec![
        (
            "4-way replication/R5 bricks".to_string(),
            SystemDesign {
                scheme: Scheme::Replication { k: 4 },
                brick: commodity,
                layout: InternalLayout::Raid5,
            },
        ),
        (
            "E.C.(5,8)/R5 bricks".to_string(),
            SystemDesign {
                scheme: Scheme::ErasureCode { m: 5, n: 8 },
                brick: commodity,
                layout: InternalLayout::Raid5,
            },
        ),
        (
            "4-way replication/R0 bricks".to_string(),
            SystemDesign {
                scheme: Scheme::Replication { k: 4 },
                brick: commodity,
                layout: InternalLayout::Raid0,
            },
        ),
        (
            "E.C.(5,8)/R0 bricks".to_string(),
            SystemDesign {
                scheme: Scheme::ErasureCode { m: 5, n: 8 },
                brick: commodity,
                layout: InternalLayout::Raid0,
            },
        ),
        (
            "Striping/reliable R5 bricks".to_string(),
            SystemDesign {
                scheme: Scheme::Striping,
                brick: BrickParams::high_end(),
                layout: InternalLayout::Raid5,
            },
        ),
    ]
}

/// Generates the Figure-2 series over the given capacities (the paper
/// sweeps 1 TB – 1000 TB on a log axis).
pub fn figure2(capacities_tb: &[f64]) -> Vec<MttdlSeries> {
    figure2_designs()
        .into_iter()
        .map(|(label, design)| MttdlSeries {
            label,
            points: capacities_tb
                .iter()
                .map(|&capacity_tb| MttdlPoint {
                    capacity_tb,
                    mttdl_years: design.mttdl_years(capacity_tb),
                    bricks: design.brick_count(capacity_tb),
                })
                .collect(),
        })
        .collect()
}

/// One point of a Figure-3 series.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadPoint {
    /// The varied parameter (replication factor k, or code width n).
    pub parameter: usize,
    /// Scheme description.
    pub scheme: String,
    /// MTTDL achieved at the reference capacity, in years.
    pub mttdl_years: f64,
    /// Raw/logical storage overhead (includes intra-brick R5 overhead).
    pub overhead: f64,
}

/// One named curve of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadSeries {
    /// Curve label as it appears in the paper's legend.
    pub label: String,
    /// Points, one per swept parameter value.
    pub points: Vec<OverheadPoint>,
}

/// Generates Figure 3: storage overhead as a function of achieved MTTDL
/// at `capacity_tb` (the paper uses 256 TB), sweeping replication factor
/// `k = 1..=max_k` and erasure-code width `n = 5..=max_n` with m = 5.
pub fn figure3(capacity_tb: f64, max_k: usize, max_n: usize) -> Vec<OverheadSeries> {
    let brick = BrickParams::commodity();
    let mut series = Vec::new();
    for layout in [InternalLayout::Raid0, InternalLayout::Raid5] {
        let mut points = Vec::new();
        for k in 1..=max_k {
            let d = SystemDesign {
                scheme: Scheme::Replication { k },
                brick,
                layout,
            };
            points.push(OverheadPoint {
                parameter: k,
                scheme: d.scheme.to_string(),
                mttdl_years: d.mttdl_years(capacity_tb),
                overhead: d.storage_overhead(),
            });
        }
        series.push(OverheadSeries {
            label: format!("Replication/{layout} bricks"),
            points,
        });
    }
    for layout in [InternalLayout::Raid0, InternalLayout::Raid5] {
        let mut points = Vec::new();
        for n in 5..=max_n {
            let d = SystemDesign {
                scheme: Scheme::ErasureCode { m: 5, n },
                brick,
                layout,
            };
            points.push(OverheadPoint {
                parameter: n,
                scheme: d.scheme.to_string(),
                mttdl_years: d.mttdl_years(capacity_tb),
                overhead: d.storage_overhead(),
            });
        }
        series.push(OverheadSeries {
            label: format!("E.C.(5,n)/{layout} bricks"),
            points,
        });
    }
    series
}

/// The smallest storage overhead a scheme family reaches while meeting a
/// target MTTDL (the planner behind `examples/reliability_planner.rs`).
pub fn cheapest_meeting_target(
    series: &[OverheadSeries],
    target_mttdl_years: f64,
) -> Option<&OverheadPoint> {
    series
        .iter()
        .flat_map(|s| s.points.iter())
        .filter(|p| p.mttdl_years >= target_mttdl_years)
        .min_by(|a, b| a.overhead.total_cmp(&b.overhead))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_has_five_series() {
        let caps = [1.0, 10.0, 100.0, 1000.0];
        let series = figure2(&caps);
        assert_eq!(series.len(), 5);
        for s in &series {
            assert_eq!(s.points.len(), 4);
            // Monotone decline along the capacity axis.
            for w in s.points.windows(2) {
                assert!(
                    w[1].mttdl_years <= w[0].mttdl_years,
                    "{}: MTTDL must not rise with capacity",
                    s.label
                );
            }
        }
        // Striping is the worst at scale (paper: "adequate only for small
        // systems").
        let at_1000 = |label: &str| {
            series
                .iter()
                .find(|s| s.label.starts_with(label))
                .unwrap()
                .points[3]
                .mttdl_years
        };
        let striping = at_1000("Striping");
        assert!(at_1000("4-way replication/R5") > striping * 1e3);
        assert!(at_1000("E.C.(5,8)/R5") > striping * 1e3);
    }

    #[test]
    fn figure3_replication_is_much_more_expensive_at_high_mttdl() {
        let series = figure3(256.0, 7, 12);
        assert_eq!(series.len(), 4);
        // To reach one million years, replication needs ~4x raw storage
        // while EC(5,n) stays under 2.2x (the paper's headline numbers:
        // 4 vs 1.6 on R0 bricks).
        let target = 1e6;
        let rep_r0 = series
            .iter()
            .find(|s| s.label == "Replication/R0 bricks")
            .unwrap();
        let ec_r0 = series
            .iter()
            .find(|s| s.label == "E.C.(5,n)/R0 bricks")
            .unwrap();
        let rep_cost = rep_r0
            .points
            .iter()
            .filter(|p| p.mttdl_years >= target)
            .map(|p| p.overhead)
            .fold(f64::INFINITY, f64::min);
        let ec_cost = ec_r0
            .points
            .iter()
            .filter(|p| p.mttdl_years >= target)
            .map(|p| p.overhead)
            .fold(f64::INFINITY, f64::min);
        assert!(rep_cost >= 3.0, "replication cost {rep_cost}");
        assert!(ec_cost <= 2.2, "EC cost {ec_cost}");
        assert!(
            rep_cost / ec_cost >= 1.8,
            "EC should be ~2x+ cheaper: {rep_cost} vs {ec_cost}"
        );
    }

    #[test]
    fn figure3_overheads_step_correctly() {
        let series = figure3(256.0, 4, 8);
        let rep = series
            .iter()
            .find(|s| s.label == "Replication/R0 bricks")
            .unwrap();
        let ks: Vec<f64> = rep.points.iter().map(|p| p.overhead).collect();
        assert_eq!(ks, vec![1.0, 2.0, 3.0, 4.0], "integer steps");
        let ec = series
            .iter()
            .find(|s| s.label == "E.C.(5,n)/R0 bricks")
            .unwrap();
        let ns: Vec<f64> = ec.points.iter().map(|p| p.overhead).collect();
        assert!((ns[0] - 1.0).abs() < 1e-12);
        assert!((ns[3] - 1.6).abs() < 1e-12, "5-of-8 = 1.6x");
    }

    #[test]
    fn planner_picks_cheapest_adequate_design() {
        let series = figure3(256.0, 7, 12);
        let pick = cheapest_meeting_target(&series, 1e6).expect("some design qualifies");
        assert!(pick.mttdl_years >= 1e6);
        assert!(pick.scheme.starts_with("E.C."), "EC wins on cost: {pick:?}");
        // An impossible target yields None.
        assert!(cheapest_meeting_target(&series, 1e30).is_none());
    }
}
