//! Register-file geometry.

use std::fmt;

/// Geometry of a register file: number of registers × bits per register.
///
/// The paper evaluates 4×4, 16×16 and 32×32-bit register files (Tables
/// I–III); the RISC-V core uses 32×32.
///
/// # Examples
///
/// ```
/// use hiperrf::config::RfGeometry;
///
/// let g = RfGeometry::new(32, 32)?;
/// assert_eq!(g.demux_levels(), 5);
/// assert_eq!(g.hc_columns(), 16);
/// # Ok::<(), hiperrf::config::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfGeometry {
    registers: usize,
    width: usize,
}

/// Error constructing an [`RfGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The register count must be a power of two ≥ 2 (the NDROC demux tree
    /// is binary).
    RegistersNotPowerOfTwo(usize),
    /// The width must be even and ≥ 2 (HC-DRO cells store two bits each).
    WidthNotEven(usize),
    /// The width must be at most [`RfGeometry::MAX_WIDTH`]: register values
    /// are `u64`.
    WidthTooLarge(usize),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::RegistersNotPowerOfTwo(n) => {
                write!(f, "register count must be a power of two >= 2, got {n}")
            }
            GeometryError::WidthNotEven(w) => {
                write!(f, "register width must be even and >= 2, got {w}")
            }
            GeometryError::WidthTooLarge(w) => write!(
                f,
                "register width must be at most {}, got {w}",
                RfGeometry::MAX_WIDTH
            ),
        }
    }
}

impl std::error::Error for GeometryError {}

impl RfGeometry {
    /// The widest register a geometry may have: register values are `u64`.
    pub const MAX_WIDTH: usize = 64;

    /// Creates a geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if `registers` is not a power of two ≥ 2, or
    /// `width` is not even, ≥ 2 and ≤ [`RfGeometry::MAX_WIDTH`].
    pub fn new(registers: usize, width: usize) -> Result<Self, GeometryError> {
        if registers < 2 || !registers.is_power_of_two() {
            return Err(GeometryError::RegistersNotPowerOfTwo(registers));
        }
        if width < 2 || !width.is_multiple_of(2) {
            return Err(GeometryError::WidthNotEven(width));
        }
        if width > Self::MAX_WIDTH {
            return Err(GeometryError::WidthTooLarge(width));
        }
        Ok(RfGeometry { registers, width })
    }

    /// The paper's 4×4-bit geometry.
    pub fn paper_4x4() -> Self {
        RfGeometry {
            registers: 4,
            width: 4,
        }
    }

    /// The paper's 16×16-bit geometry.
    pub fn paper_16x16() -> Self {
        RfGeometry {
            registers: 16,
            width: 16,
        }
    }

    /// The paper's 32×32-bit geometry (the RISC-V register file).
    pub fn paper_32x32() -> Self {
        RfGeometry {
            registers: 32,
            width: 32,
        }
    }

    /// All three geometries of the paper's evaluation tables.
    pub fn paper_sizes() -> [RfGeometry; 3] {
        [Self::paper_4x4(), Self::paper_16x16(), Self::paper_32x32()]
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// Bits per register.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total storage bits.
    pub fn bits(&self) -> usize {
        self.registers * self.width
    }

    /// Depth of the binary NDROC demux tree (`log2(registers)`).
    pub fn demux_levels(&self) -> usize {
        self.registers.trailing_zeros() as usize
    }

    /// Number of HC-DRO columns (each stores two bits).
    pub fn hc_columns(&self) -> usize {
        self.width / 2
    }

    /// The geometry of one bank of the dual-banked design (half the
    /// registers, same width).
    ///
    /// # Errors
    ///
    /// Returns an error if halving the register count would leave fewer
    /// than two registers per bank.
    pub fn bank_geometry(&self) -> Result<RfGeometry, GeometryError> {
        RfGeometry::new(self.registers / 2, self.width)
    }
}

impl fmt::Display for RfGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} bits", self.registers, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometries() {
        let g = RfGeometry::new(32, 32).unwrap();
        assert_eq!(g.registers(), 32);
        assert_eq!(g.width(), 32);
        assert_eq!(g.bits(), 1024);
        assert_eq!(g.demux_levels(), 5);
        assert_eq!(g.hc_columns(), 16);
    }

    #[test]
    fn rejects_non_power_of_two_registers() {
        assert!(matches!(
            RfGeometry::new(12, 32),
            Err(GeometryError::RegistersNotPowerOfTwo(12))
        ));
        assert!(RfGeometry::new(1, 32).is_err());
        assert!(RfGeometry::new(0, 32).is_err());
    }

    #[test]
    fn rejects_odd_width() {
        assert!(matches!(
            RfGeometry::new(32, 31),
            Err(GeometryError::WidthNotEven(31))
        ));
        assert!(RfGeometry::new(32, 0).is_err());
    }

    #[test]
    fn rejects_widths_past_a_u64() {
        assert!(RfGeometry::new(4, 64).is_ok());
        assert_eq!(
            RfGeometry::new(4, 66),
            Err(GeometryError::WidthTooLarge(66))
        );
        assert_eq!(
            RfGeometry::new(4, 66).unwrap_err().to_string(),
            "register width must be at most 64, got 66"
        );
    }

    #[test]
    fn paper_sizes_are_valid() {
        for g in RfGeometry::paper_sizes() {
            assert!(RfGeometry::new(g.registers(), g.width()).is_ok());
        }
    }

    #[test]
    fn bank_geometry_halves_registers() {
        let g = RfGeometry::paper_32x32();
        let b = g.bank_geometry().unwrap();
        assert_eq!(b.registers(), 16);
        assert_eq!(b.width(), 32);
        // 4-register file still banks into 2×2.
        assert!(RfGeometry::paper_4x4().bank_geometry().is_ok());
        // A 2-register file cannot bank further.
        assert!(RfGeometry::new(2, 4).unwrap().bank_geometry().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(RfGeometry::paper_16x16().to_string(), "16x16 bits");
    }
}
