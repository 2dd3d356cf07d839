//! One chip in the fleet: a `MachineConfig`-style design point (vector
//! length, shared L2) with co-located replicas and per-class service
//! times measured on that silicon. Area comes from `lv-area`'s 7 nm
//! model, so fleet-level throughput-per-mm² is consistent with the
//! paper's single-chip Pareto analysis.

use crate::FleetError;

/// A chip design point plus its measured per-class service times.
#[derive(Debug, Clone)]
pub struct ChipSpec {
    /// Display name ("lv-2048x1", ...).
    pub name: String,
    /// Vector length of every core, bits.
    pub vlen_bits: usize,
    /// Shared L2 capacity, MiB (CAT-partitioned across replicas).
    pub l2_mib: usize,
    /// Co-located model replicas (one per core).
    pub replicas: usize,
    /// Service time of one request of each class on this chip, seconds
    /// (index = class id; typically the Optimal-policy conv-stack time at
    /// the chip's per-replica L2 partition).
    pub service_s: Vec<f64>,
    /// Optional cheaper per-class service times for graceful degradation
    /// (e.g. the same network at reduced input resolution). Index-aligned
    /// with [`ChipSpec::service_s`]; each entry must not exceed the
    /// full-quality time.
    pub degraded_service_s: Option<Vec<f64>>,
}

impl ChipSpec {
    /// Validate against a fleet expecting `classes` request classes.
    pub fn validate(&self, classes: usize) -> Result<(), FleetError> {
        if self.replicas == 0 {
            return Err(FleetError::Serving(lv_serving::ServingError::NoReplicas));
        }
        if self.service_s.len() != classes {
            return Err(FleetError::ClassMismatch {
                chip: self.name.clone(),
                got: self.service_s.len(),
                want: classes,
            });
        }
        for &s in &self.service_s {
            if !s.is_finite() || s <= 0.0 {
                return Err(FleetError::InvalidServiceTime(s));
            }
        }
        if let Some(deg) = &self.degraded_service_s {
            if deg.len() != classes {
                return Err(FleetError::ClassMismatch {
                    chip: self.name.clone(),
                    got: deg.len(),
                    want: classes,
                });
            }
            for (&d, &s) in deg.iter().zip(&self.service_s) {
                if !d.is_finite() || d <= 0.0 || d > s {
                    return Err(FleetError::InvalidServiceTime(d));
                }
            }
        }
        Ok(())
    }

    /// Degraded service time for `class`, if this chip has a degraded
    /// algorithm for it.
    pub fn degraded_s(&self, class: usize) -> Option<f64> {
        self.degraded_service_s.as_ref().map(|d| d[class])
    }

    /// Chip area in mm² at `replicas` cores (7 nm model from `lv-area`).
    /// With autoscaling, pass the peak replica count — silicon that ran
    /// must exist.
    pub fn area_mm2(&self, replicas: usize) -> f64 {
        lv_area::chip_area_mm2(replicas, self.vlen_bits, self.l2_mib)
    }

    /// Nominal capacity in requests/second under a class mix: replicas
    /// divided by the weight-averaged service time.
    pub fn capacity_rps(&self, class_weights: &[f64]) -> f64 {
        let total: f64 = class_weights.iter().sum();
        let mean_s: f64 =
            self.service_s.iter().zip(class_weights).map(|(s, w)| s * w / total).sum();
        self.replicas as f64 / mean_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec {
            name: "knee".into(),
            vlen_bits: 2048,
            l2_mib: 4,
            replicas: 4,
            service_s: vec![0.040, 0.020],
            degraded_service_s: None,
        }
    }

    #[test]
    fn validates_service_table() {
        assert!(chip().validate(2).is_ok());
        assert!(matches!(
            chip().validate(3),
            Err(FleetError::ClassMismatch { got: 2, want: 3, .. })
        ));
        let mut c = chip();
        c.service_s[0] = 0.0;
        assert!(matches!(c.validate(2), Err(FleetError::InvalidServiceTime(_))));
        c = chip();
        c.replicas = 0;
        assert!(c.validate(2).is_err());
    }

    #[test]
    fn area_matches_lv_area_anchor() {
        // Single 2048-bit core + 1 MiB is the paper's 2.35 mm² anchor.
        let c = ChipSpec { replicas: 1, l2_mib: 1, ..chip() };
        assert!((c.area_mm2(1) - 2.35).abs() < 0.01);
        // More replicas, more area.
        assert!(chip().area_mm2(4) > chip().area_mm2(2));
    }

    #[test]
    fn degraded_table_is_validated() {
        let mut c = chip();
        c.degraded_service_s = Some(vec![0.020, 0.010]);
        assert!(c.validate(2).is_ok());
        assert_eq!(c.degraded_s(0), Some(0.020));
        c.degraded_service_s = Some(vec![0.020]);
        assert!(matches!(c.validate(2), Err(FleetError::ClassMismatch { .. })));
        // Degraded slower than full quality makes no sense.
        c.degraded_service_s = Some(vec![0.050, 0.010]);
        assert!(matches!(c.validate(2), Err(FleetError::InvalidServiceTime(_))));
    }

    #[test]
    fn capacity_weights_the_mix() {
        // Even mix: mean service 30ms, 4 replicas -> 133 rps.
        let even = chip().capacity_rps(&[1.0, 1.0]);
        assert!((even - 4.0 / 0.030).abs() < 1e-9);
        // All-heavy mix is slower than all-light.
        assert!(chip().capacity_rps(&[1.0, 0.0]) < chip().capacity_rps(&[0.0, 1.0]));
    }
}
