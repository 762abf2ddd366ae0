//! The paper's Table 1: ATMEL MH1RT space-qualified ASIC characteristics,
//! plus the §4.1 projection for the next process nodes.

/// Characteristics of a space-qualified device generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mh1rtDevice {
    /// Process label.
    pub process: &'static str,
    /// Logic capacity in gates (Table 1: 1.2 million).
    pub gates: u64,
    /// Supply voltage range, volts (Table 1: 2.5 to 5 V).
    pub voltage_min: f64,
    /// Upper supply voltage, volts.
    pub voltage_max: f64,
    /// Total-ionising-dose tolerance, krad (Table 1: 200).
    pub tid_krad: f64,
    /// SEU rate for a GEO satellite, errors/bit/day (Table 1: 1e-7).
    pub seu_per_bit_day: f64,
}

impl Mh1rtDevice {
    /// Table 1 as printed: the current MH1RT (0.35 µm generation).
    pub fn mh1rt() -> Self {
        Mh1rtDevice {
            process: "MH1RT (0.35 um)",
            gates: 1_200_000,
            voltage_min: 2.5,
            voltage_max: 5.0,
            tid_krad: 200.0,
            seu_per_bit_day: 1e-7,
        }
    }

    /// §4.1: "For future developments in 0.25µm and 0.18µm the acceptable
    /// TID should increase and reach 300 Krads while the number of SEU per
    /// bit and per day remains constant."
    pub fn future_025um() -> Self {
        Mh1rtDevice {
            process: "0.25 um (projected)",
            tid_krad: 300.0,
            ..Self::mh1rt()
        }
    }

    /// The 0.18 µm projection (same TID target per the paper).
    pub fn future_018um() -> Self {
        Mh1rtDevice {
            process: "0.18 um (projected)",
            tid_krad: 300.0,
            ..Self::mh1rt()
        }
    }

    /// Renders the device as Table 1 rows: (characteristic, value).
    pub fn table1_rows(&self) -> Vec<(String, String)> {
        vec![
            (
                "Number of gates".into(),
                format!("{:.1} million", self.gates as f64 / 1e6),
            ),
            (
                "Voltage".into(),
                format!("{} to {}V", self.voltage_min, self.voltage_max),
            ),
            ("TID".into(), format!("{:.0} Krads", self.tid_krad)),
            (
                "SEU for GEO sat.".into(),
                format!("{:.0e} err/bit/day", self.seu_per_bit_day),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_the_paper() {
        let d = Mh1rtDevice::mh1rt();
        assert_eq!(d.gates, 1_200_000);
        assert_eq!(d.voltage_min, 2.5);
        assert_eq!(d.voltage_max, 5.0);
        assert_eq!(d.tid_krad, 200.0);
        assert_eq!(d.seu_per_bit_day, 1e-7);
    }

    #[test]
    fn table1_rendering() {
        let rows = Mh1rtDevice::mh1rt().table1_rows();
        assert_eq!(rows[0].1, "1.2 million");
        assert_eq!(rows[1].1, "2.5 to 5V");
        assert_eq!(rows[2].1, "200 Krads");
        assert_eq!(rows[3].1, "1e-7 err/bit/day");
    }

    #[test]
    fn future_nodes_harden_tid_keep_seu() {
        let now = Mh1rtDevice::mh1rt();
        for f in [Mh1rtDevice::future_025um(), Mh1rtDevice::future_018um()] {
            assert_eq!(f.tid_krad, 300.0);
            assert_eq!(f.seu_per_bit_day, now.seu_per_bit_day);
        }
    }
}
