//! Machine specifications (Table I of the paper).

/// Static description of a server platform: the fleet catalog's
/// [`ServerClass`](pocolo_core::fleet::ServerClass), so a simulated
/// machine and the class the fleet layers plan with are one value.
///
/// [`ServerClass::xeon_e5_2650`](pocolo_core::fleet::ServerClass::xeon_e5_2650)
/// reproduces Table I: an Intel Xeon E5-2650 with 12 cores at 1.2–2.2 GHz,
/// 20 LLC ways, idle power 50 W and active power 135 W.
///
/// ```
/// use pocolo_simserver::MachineSpec;
/// let spec = MachineSpec::xeon_e5_2650();
/// assert_eq!(spec.cores(), 12);
/// assert_eq!(spec.llc_ways(), 20);
/// ```
pub type MachineSpec = pocolo_core::fleet::ServerClass;

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fleet::ServerClass;
    use pocolo_core::units::{Frequency, Watts};

    #[test]
    fn from_class_carries_sku_geometry() {
        let m = MachineSpec::from_class(&ServerClass::turbo());
        assert_eq!(m, ServerClass::turbo());
        assert_eq!(m.cores(), 16);
        assert_eq!(m.llc_ways(), 16);
        assert_eq!(m.freq_max(), Frequency(3.0));
        assert_eq!(m.peak_watts(), Watts(180.0));
    }
}
