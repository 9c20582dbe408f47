//! Sensitivity analysis: how a design's MTTDL responds to each physical
//! parameter.
//!
//! The paper's Figures 2–3 fix the component constants; an operator
//! evaluating a real deployment wants to know which constants *matter*.
//! This module sweeps one parameter at a time and reports both the raw
//! MTTDL series and a local elasticity (d log MTTDL / d log parameter),
//! which makes the redundancy math tangible: for a scheme tolerating t
//! concurrent brick failures, MTTDL scales roughly as `MTTF^(t+1)` and
//! `repair^(−t)` — elasticities of about `t+1` and `−t`.

use crate::params::BrickParams;
use crate::schemes::SystemDesign;

/// A physical parameter that can be swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parameter {
    /// Disk mean time to failure (hours).
    DiskMttf,
    /// Disk repair/replace time inside a brick (hours).
    DiskRepair,
    /// MTTF of the brick's non-disk components (hours).
    BrickOtherMttf,
    /// Brick rebuild time from cross-brick redundancy (hours).
    BrickRepair,
}

impl Parameter {
    /// All sweepable parameters.
    pub const ALL: [Parameter; 4] = [
        Parameter::DiskMttf,
        Parameter::DiskRepair,
        Parameter::BrickOtherMttf,
        Parameter::BrickRepair,
    ];

    /// Current value of this parameter in `brick`.
    pub fn get(&self, brick: &BrickParams) -> f64 {
        match self {
            Parameter::DiskMttf => brick.disk_mttf_hours,
            Parameter::DiskRepair => brick.disk_repair_hours,
            Parameter::BrickOtherMttf => brick.brick_other_mttf_hours,
            Parameter::BrickRepair => brick.brick_repair_hours,
        }
    }

    /// Returns `brick` with this parameter set to `value`.
    pub fn set(&self, mut brick: BrickParams, value: f64) -> BrickParams {
        match self {
            Parameter::DiskMttf => brick.disk_mttf_hours = value,
            Parameter::DiskRepair => brick.disk_repair_hours = value,
            Parameter::BrickOtherMttf => brick.brick_other_mttf_hours = value,
            Parameter::BrickRepair => brick.brick_repair_hours = value,
        }
        brick
    }
}

impl std::fmt::Display for Parameter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parameter::DiskMttf => write!(f, "disk MTTF"),
            Parameter::DiskRepair => write!(f, "disk repair time"),
            Parameter::BrickOtherMttf => write!(f, "brick chassis MTTF"),
            Parameter::BrickRepair => write!(f, "brick rebuild time"),
        }
    }
}

/// One point of a sensitivity sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Multiplier applied to the baseline parameter value.
    pub factor: f64,
    /// The resulting parameter value.
    pub value: f64,
    /// System MTTDL in years at that value.
    pub mttdl_years: f64,
}

/// The result of sweeping one parameter for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Which parameter was varied.
    pub parameter: Parameter,
    /// The sampled points (ascending factors).
    pub points: Vec<SweepPoint>,
    /// Local elasticity d(log MTTDL)/d(log value) at the baseline.
    pub elasticity: f64,
}

/// Sweeps `parameter` over `factors × baseline` for `design` at
/// `capacity_tb`, and estimates the baseline elasticity.
///
/// # Panics
///
/// Panics if `factors` has fewer than two entries or contains
/// non-positive values.
pub fn sweep(
    design: &SystemDesign,
    capacity_tb: f64,
    parameter: Parameter,
    factors: &[f64],
) -> Sweep {
    assert!(factors.len() >= 2, "need at least two sweep factors");
    assert!(
        factors.iter().all(|&f| f > 0.0),
        "sweep factors must be positive"
    );
    let baseline = parameter.get(&design.brick);
    let points: Vec<SweepPoint> = factors
        .iter()
        .map(|&factor| {
            let value = baseline * factor;
            let d = SystemDesign {
                brick: parameter.set(design.brick, value),
                ..*design
            };
            SweepPoint {
                factor,
                value,
                mttdl_years: d.mttdl_years(capacity_tb),
            }
        })
        .collect();
    // Central-difference elasticity around factor 1.0 (±10%).
    let up = SystemDesign {
        brick: parameter.set(design.brick, baseline * 1.1),
        ..*design
    }
    .mttdl_years(capacity_tb);
    let down = SystemDesign {
        brick: parameter.set(design.brick, baseline / 1.1),
        ..*design
    }
    .mttdl_years(capacity_tb);
    let elasticity = (up.ln() - down.ln()) / (1.1f64.ln() - (1.0 / 1.1f64).ln());
    Sweep {
        parameter,
        points,
        elasticity,
    }
}

/// Sweeps every parameter with a default factor ladder (1/8× … 8×).
pub fn sweep_all(design: &SystemDesign, capacity_tb: f64) -> Vec<Sweep> {
    let factors = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    Parameter::ALL
        .iter()
        .map(|&p| sweep(design, capacity_tb, p, &factors))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::InternalLayout;
    use crate::schemes::Scheme;

    fn design() -> SystemDesign {
        SystemDesign {
            scheme: Scheme::ErasureCode { m: 5, n: 8 },
            brick: BrickParams::commodity(),
            layout: InternalLayout::Raid0,
        }
    }

    #[test]
    fn parameter_get_set_round_trip() {
        let b = BrickParams::commodity();
        for p in Parameter::ALL {
            let v = p.get(&b);
            let b2 = p.set(b, v * 2.0);
            assert!((p.get(&b2) - v * 2.0).abs() < 1e-9, "{p}");
            // Other parameters untouched.
            for q in Parameter::ALL {
                if q != p {
                    assert!((q.get(&b2) - q.get(&b)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn mttf_elasticity_is_about_t_plus_one() {
        // E.C.(5,8) tolerates t = 3 concurrent brick failures, so MTTDL
        // scales as brickMTTF^(t+1) = ^4 — diluted by the disk share of
        // the brick failure rate (disks are ~70% of it under commodity
        // constants, chassis the rest): expect ≈ 0.7 × 4 ≈ 2.8.
        let s = sweep(&design(), 256.0, Parameter::DiskMttf, &[0.5, 1.0, 2.0]);
        assert!(
            (2.2..4.2).contains(&s.elasticity),
            "elasticity {}",
            s.elasticity
        );
        // Monotone increasing in MTTF.
        assert!(s
            .points
            .windows(2)
            .all(|w| w[1].mttdl_years > w[0].mttdl_years));
    }

    #[test]
    fn repair_elasticity_is_about_minus_t() {
        let s = sweep(&design(), 256.0, Parameter::BrickRepair, &[0.5, 1.0, 2.0]);
        assert!(
            (-3.5..=-2.0).contains(&s.elasticity),
            "elasticity {}",
            s.elasticity
        );
        assert!(s
            .points
            .windows(2)
            .all(|w| w[1].mttdl_years < w[0].mttdl_years));
    }

    #[test]
    fn chassis_mttf_matters_less_for_disk_dominated_bricks() {
        let disks = sweep(&design(), 256.0, Parameter::DiskMttf, &[0.5, 1.0, 2.0]);
        let chassis = sweep(
            &design(),
            256.0,
            Parameter::BrickOtherMttf,
            &[0.5, 1.0, 2.0],
        );
        // Both positive, but the chassis term is the smaller share of the
        // brick failure rate under commodity constants.
        assert!(chassis.elasticity > 0.0);
        assert!(disks.elasticity > chassis.elasticity);
    }

    #[test]
    fn sweep_all_covers_every_parameter() {
        let all = sweep_all(&design(), 256.0);
        assert_eq!(all.len(), 4);
        for s in &all {
            assert_eq!(s.points.len(), 7);
        }
    }
}
