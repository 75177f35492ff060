//! The design registry: every runnable register-file variant, buildable
//! behind the [`RegisterFile`] trait.
//!
//! Analyses (margin sweeps, soak tests, structural budgets, repro reports)
//! enumerate [`registry`] instead of naming concrete types, so a new
//! variant only has to implement [`RegisterFile`] and register here to be
//! covered by every design-generic report and test.

use crate::banked::DualBankRf;
use crate::config::RfGeometry;
use crate::delay::RfDesign;
use crate::harness::RegisterFile;
use crate::hiperrf_rf::HiPerRf;
use crate::ndro_rf::NdroRf;
use crate::shift_rf::ShiftRegisterRf;

/// A registered structural register-file design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Baseline clock-less NDRO register file (paper §III).
    NdroBaseline,
    /// Single-bank HiPerRF (paper §IV).
    HiPerRf,
    /// Dual-banked HiPerRF (paper §V).
    DualBanked,
    /// DRO shift-register file, the related-work baseline (paper §VII).
    ShiftRegister,
}

impl Design {
    /// All registered designs, in paper order.
    pub const ALL: [Design; 4] = [
        Design::NdroBaseline,
        Design::HiPerRf,
        Design::DualBanked,
        Design::ShiftRegister,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Design::NdroBaseline => "NDRO baseline",
            Design::HiPerRf => "HiPerRF",
            Design::DualBanked => "dual-banked",
            Design::ShiftRegister => "shift-register",
        }
    }

    /// Checks that the design can realise `geometry`, as
    /// [`Design::build`] requires. The dual-banked design splits its
    /// registers into two banks, each itself a geometry
    /// ([`RfGeometry::bank_geometry`]), so it needs at least four; every
    /// other design realises every geometry.
    ///
    /// # Errors
    ///
    /// Why the design cannot realise the geometry.
    pub fn check_geometry(self, geometry: RfGeometry) -> Result<(), String> {
        match self {
            Design::DualBanked => geometry
                .bank_geometry()
                .map(drop)
                .map_err(|e| format!("each bank of the {self} design: {e}")),
            Design::NdroBaseline | Design::HiPerRf | Design::ShiftRegister => Ok(()),
        }
    }

    /// Builds the design's structural model for `geometry`.
    ///
    /// # Panics
    ///
    /// Panics on geometries the design cannot realise, which
    /// [`Design::check_geometry`] refuses (dual-banked with fewer than
    /// four registers).
    pub fn build(self, geometry: RfGeometry) -> Box<dyn RegisterFile> {
        match self {
            Design::NdroBaseline => Box::new(NdroRf::new(geometry)),
            Design::HiPerRf => Box::new(HiPerRf::new(geometry)),
            Design::DualBanked => Box::new(DualBankRf::new(geometry)),
            Design::ShiftRegister => Box::new(ShiftRegisterRf::new(geometry)),
        }
    }

    /// The delay/architecture model enum this design corresponds to, if
    /// the paper's cycle-level models cover it (the shift register is
    /// bit-serial and has no cycle-level port model).
    pub fn arch_design(self) -> Option<RfDesign> {
        match self {
            Design::NdroBaseline => Some(RfDesign::NdroBaseline),
            Design::HiPerRf => Some(RfDesign::HiPerRf),
            Design::DualBanked => Some(RfDesign::DualBanked),
            Design::ShiftRegister => None,
        }
    }

    /// The structural design backing a delay/architecture-model design
    /// (the inverse of [`Design::arch_design`]; the compiler-ideal banked
    /// variant shares the dual-banked structure).
    pub fn from_arch(design: RfDesign) -> Design {
        match design {
            RfDesign::NdroBaseline => Design::NdroBaseline,
            RfDesign::HiPerRf => Design::HiPerRf,
            RfDesign::DualBanked | RfDesign::DualBankedIdeal => Design::DualBanked,
        }
    }
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// All registered designs, in display order.
pub fn registry() -> impl Iterator<Item = Design> {
    Design::ALL.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_geometry_the_check_admits_builds() {
        for design in registry() {
            for registers in [2, 4] {
                let geometry = RfGeometry::new(registers, 2).unwrap();
                if design.check_geometry(geometry).is_ok() {
                    drop(design.build(geometry));
                }
            }
        }
        assert_eq!(
            Design::DualBanked.check_geometry(RfGeometry::new(2, 2).unwrap()),
            Err("each bank of the dual-banked design: \
                 register count must be a power of two >= 2, got 1"
                .to_string())
        );
    }

    #[test]
    #[should_panic(expected = "needs at least four registers")]
    fn a_geometry_the_check_refuses_panics_the_build() {
        drop(Design::DualBanked.build(RfGeometry::new(2, 2).unwrap()));
    }

    #[test]
    fn every_design_builds_and_round_trips() {
        for design in registry() {
            let mut rf = design.build(RfGeometry::paper_4x4());
            rf.write(1, 0b101);
            assert_eq!(rf.read(1), 0b101, "{design}");
            assert!(
                rf.violations().is_empty(),
                "{design}: {:?}",
                rf.violations()
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        for a in Design::ALL {
            for b in Design::ALL {
                if a != b {
                    assert_ne!(a.label(), b.label());
                }
            }
        }
    }
}
