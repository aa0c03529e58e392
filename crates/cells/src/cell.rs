//! Standard-cell templates.

use statsize_netlist::GateKind;

/// Index of a cell within a [`CellLibrary`](crate::CellLibrary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Dense index into the owning library.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A standard-cell template: the timing constants of the paper's EQ 1 for
/// one gate function at one fan-in, at unit width.
///
/// All capacitances are in femtofarads, delays in picoseconds, areas in
/// unit-width equivalents. A gate instantiated at width `w` presents
/// `w · pin_cap_unit` to each of its fan-in nets, has total cell
/// capacitance `w · cell_cap_unit`, and occupies `w · area_unit` area.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub(crate) name: String,
    pub(crate) kind: GateKind,
    pub(crate) fanin: usize,
    pub(crate) d_int: f64,
    pub(crate) k: f64,
    pub(crate) cell_cap_unit: f64,
    pub(crate) pin_cap_unit: f64,
    pub(crate) area_unit: f64,
}

impl Cell {
    /// Creates a cell template.
    ///
    /// # Panics
    ///
    /// Panics if any constant is non-positive or non-finite, or `fanin` is
    /// zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        kind: GateKind,
        fanin: usize,
        d_int: f64,
        k: f64,
        cell_cap_unit: f64,
        pin_cap_unit: f64,
        area_unit: f64,
    ) -> Self {
        assert!(fanin > 0, "cell fan-in must be positive");
        for (label, v) in [
            ("d_int", d_int),
            ("k", k),
            ("cell_cap_unit", cell_cap_unit),
            ("pin_cap_unit", pin_cap_unit),
            ("area_unit", area_unit),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "cell constant {label} must be positive, got {v}"
            );
        }
        Self {
            name: name.into(),
            kind,
            fanin,
            d_int,
            k,
            cell_cap_unit,
            pin_cap_unit,
            area_unit,
        }
    }

    /// Cell name (e.g. `"NAND2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logic function implemented by the cell.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Number of input pins.
    pub fn fanin(&self) -> usize {
        self.fanin
    }

    /// Intrinsic delay `Dint` (ps), independent of load and width.
    pub fn intrinsic_delay(&self) -> f64 {
        self.d_int
    }

    /// Total cell capacitance at unit width (fF).
    pub fn cell_cap_unit(&self) -> f64 {
        self.cell_cap_unit
    }

    /// Input-pin capacitance at unit width (fF), per pin.
    pub fn pin_cap_unit(&self) -> f64 {
        self.pin_cap_unit
    }

    /// Area at unit width.
    pub fn area_unit(&self) -> f64 {
        self.area_unit
    }

    /// Pin-to-pin nominal delay of EQ 1 for a gate of width `w` driving
    /// load `c_load` (fF):
    /// `De = Dint + K · Cload / (w · Ccell_unit)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `w` or `c_load` is not positive.
    pub fn delay(&self, w: f64, c_load: f64) -> f64 {
        debug_assert!(w > 0.0, "width must be positive, got {w}");
        debug_assert!(c_load >= 0.0, "load must be non-negative, got {c_load}");
        self.d_int + self.k * c_load / (w * self.cell_cap_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> Cell {
        Cell::new("INV", GateKind::Not, 1, 20.0, 20.0, 1.0, 1.0, 1.0)
    }

    #[test]
    fn delay_decreases_with_width() {
        let c = inv();
        let load = 4.0;
        let d1 = c.delay(1.0, load);
        let d2 = c.delay(2.0, load);
        let d4 = c.delay(4.0, load);
        assert!(d1 > d2 && d2 > d4);
        // In the limit the delay approaches Dint.
        assert!(c.delay(1e9, load) - c.intrinsic_delay() < 1e-6);
    }

    #[test]
    fn delay_increases_linearly_with_load() {
        let c = inv();
        let d0 = c.delay(1.0, 0.0);
        let d4 = c.delay(1.0, 4.0);
        let d8 = c.delay(1.0, 8.0);
        assert!((d8 - d4) - (d4 - d0) < 1e-12);
        assert_eq!(d0, c.intrinsic_delay());
    }

    #[test]
    fn fo4_inverter_delay_is_realistic() {
        // Fan-out-of-4: load = 4 × own input cap at equal width.
        let c = inv();
        let fo4 = c.delay(1.0, 4.0 * c.pin_cap_unit());
        assert!((80.0..160.0).contains(&fo4), "FO4 = {fo4} ps");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_constants_rejected() {
        Cell::new("BAD", GateKind::Not, 1, 0.0, 20.0, 1.0, 1.0, 1.0);
    }
}
