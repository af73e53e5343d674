//! Named metrics, and the two guards every metric passes through:
//!
//! * a count marked *exact* must repeat bit-for-bit across the iterations
//!   of one invocation ([`ExactGuard`]);
//! * a metric whose source is the modeled cycle clock may never carry a
//!   per-second unit or name ([`Metric::modeled`]) — a modeled number must
//!   not be readable as throughput.

use std::collections::BTreeMap;

/// Which clock a metric was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or a host-side counter.
    Host,
    /// The VM's deterministic modeled cycle clock or a count billed by it.
    Modeled,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (layer-qualified for per-layer metrics).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// True for a count that must repeat exactly.
    pub exact: bool,
    /// Source clock.
    pub clock: Clock,
}

/// True when a name or unit reads as a rate over time.
fn reads_as_rate(name: &str, unit: &str) -> bool {
    name.contains("per_s") || unit.contains("/s")
}

impl Metric {
    /// A host-clock measurement.
    pub fn host(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            exact: false,
            clock: Clock::Host,
        }
    }

    /// A count that must repeat exactly.
    pub fn exact(name: impl Into<String>, value: u64) -> Self {
        Metric {
            name: name.into(),
            value: value as f64,
            unit: "count",
            exact: true,
            clock: Clock::Host,
        }
    }

    /// A ratio of two exact counts (exact itself).
    pub fn exact_ratio(name: impl Into<String>, num: u64, den: u64) -> Self {
        Metric {
            name: name.into(),
            value: if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            },
            unit: "ratio",
            exact: true,
            clock: Clock::Host,
        }
    }

    /// A modeled-clock quantity.
    ///
    /// # Errors
    /// Refuses a name or unit that reads as a rate over time.
    pub fn modeled(
        name: impl Into<String>,
        value: u64,
        unit: &'static str,
    ) -> Result<Self, String> {
        let name = name.into();
        if reads_as_rate(&name, unit) {
            return Err(format!(
                "modeled-clock metric `{name}` [{unit}] must not be labelled per second"
            ));
        }
        Ok(Metric {
            name,
            value: value as f64,
            unit,
            exact: true,
            clock: Clock::Modeled,
        })
    }
}

/// Named exact counts of one run, in a fixed order.
pub type Counts = Vec<(&'static str, u64)>;

/// Checks that exact counts repeat across the iterations of one invocation.
#[derive(Debug, Default)]
pub struct ExactGuard {
    first: BTreeMap<String, Counts>,
}

impl ExactGuard {
    /// Records a program's counts on first sight, compares afterwards.
    ///
    /// # Errors
    /// Names the count that moved.
    pub fn check(&mut self, program: &str, counts: &Counts) -> Result<(), String> {
        let Some(first) = self.first.get(program) else {
            self.first.insert(program.to_string(), counts.clone());
            return Ok(());
        };
        match first.iter().zip(counts).find(|(a, b)| a != b) {
            None => Ok(()),
            Some(((name, was), (_, now))) => Err(format!(
                "exact count `{name}` of {program} changed between iterations: {was} then {now}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_metrics_cannot_be_rates() {
        assert!(Metric::modeled("modeled.clock_cycles", 10, "cycles").is_ok());
        assert!(Metric::modeled("modeled.ops_per_s", 10, "count").is_err());
        assert!(Metric::modeled("modeled.ops", 10, "ops/s").is_err());
        assert!(Metric::modeled("modeled.x", 10, "1/s").is_err());
    }

    #[test]
    fn exact_guard_accepts_repeats_and_names_the_mover() {
        let mut g = ExactGuard::default();
        let run = vec![("vm.interp.ops", 4_038_255), ("vm.tib.flips", 200)];
        assert!(g.check("SalaryDB", &run).is_ok());
        assert!(g.check("SalaryDB", &run).is_ok());
        assert!(g
            .check("SimLogic", &vec![("vm.interp.ops", 7), ("vm.tib.flips", 0)])
            .is_ok());
        let moved = vec![("vm.interp.ops", 4_038_255), ("vm.tib.flips", 201)];
        let err = g.check("SalaryDB", &moved).unwrap_err();
        assert!(
            err.contains("vm.tib.flips") && err.contains("SalaryDB") && err.contains("201"),
            "{err}"
        );
    }

    #[test]
    fn exact_ratio_of_nothing_is_zero() {
        assert_eq!(Metric::exact_ratio("r", 0, 0).value, 0.0);
        assert_eq!(Metric::exact_ratio("r", 1, 4).value, 0.25);
    }
}
