//! The mutation plan — the artifact the offline pipeline produces and the
//! JVM consumes at startup (paper Fig. 3: "Hot state information for hot
//! (mutable) classes").

use dchm_bytecode::{ClassId, FieldId, MethodId, Value};
use serde::{Deserialize, Serialize};

/// One hot (mutation) state of a mutable class: known constant values for
/// its instance and static state fields, e.g. `grade == 2` for
/// `SalaryEmployeeGrade2` in the paper's Figure 2.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HotState {
    /// Instance state-field values in this state.
    pub instance_values: Vec<(FieldId, Value)>,
    /// Static state-field values in this state.
    pub static_values: Vec<(FieldId, Value)>,
    /// Observed relative frequency of this state during profiling.
    pub frequency: f64,
}

impl HotState {
    /// True if this state constrains no instance fields.
    #[cfg(test)]
    fn instance_part_is_empty(&self) -> bool {
        self.instance_values.is_empty()
    }
}

/// A mutable class: a class whose behaviour depends on a small set of state
/// fields with a few hot value combinations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutableClass {
    /// The class.
    pub class: ClassId,
    /// Instance state fields (declared by this class or an ancestor).
    pub instance_state_fields: Vec<FieldId>,
    /// Static state fields.
    pub static_state_fields: Vec<FieldId>,
    /// Hot states (full combinations over instance + static fields).
    pub hot_states: Vec<HotState>,
    /// Mutable methods: methods *declared by this class* that read a state
    /// field (the paper's Fig. 6 rule — inherited/subclass methods are not
    /// mutation candidates for this class).
    pub mutable_methods: Vec<MethodId>,
    /// EQ 1 scores of the state fields (diagnostics).
    pub field_scores: Vec<(FieldId, f64)>,
}

impl MutableClass {
    /// True if any hot state constrains instance fields (the class then
    /// needs special TIBs; otherwise the class TIB itself is specialized —
    /// Sec. 3.2.2).
    pub fn has_instance_state(&self) -> bool {
        !self.instance_state_fields.is_empty()
    }
}

/// The complete plan.
#[derive(Clone, Debug, PartialEq)]
pub struct MutationPlan {
    /// Mutable classes.
    pub classes: Vec<MutableClass>,
    /// Optimization level at which special code is generated (the paper
    /// mutates at opt2).
    pub mutation_level: u8,
    /// `k` of the Section 5 inline-vs-specialize heuristic.
    pub k: i64,
    /// Plant state guards and deopt side tables in special compiled code so
    /// live specialized frames can deoptimize when an object leaves its hot
    /// state mid-method. On by default; plans serialized before this field
    /// existed deserialize to `true`.
    pub emit_guards: bool,
}

// Hand-written (de)serialization: `emit_guards` must default to `true` for
// plan files written before the field existed, which the derive cannot
// express.
impl Serialize for MutationPlan {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("classes".to_string(), self.classes.to_json_value()),
            (
                "mutation_level".to_string(),
                self.mutation_level.to_json_value(),
            ),
            ("k".to_string(), self.k.to_json_value()),
            ("emit_guards".to_string(), self.emit_guards.to_json_value()),
        ])
    }
}

impl Deserialize for MutationPlan {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(MutationPlan {
            classes: Deserialize::from_json_value(serde::helpers::field(v, "classes")?)?,
            mutation_level: Deserialize::from_json_value(serde::helpers::field(
                v,
                "mutation_level",
            )?)?,
            k: Deserialize::from_json_value(serde::helpers::field(v, "k")?)?,
            emit_guards: match serde::helpers::field(v, "emit_guards") {
                Ok(fv) => Deserialize::from_json_value(fv)?,
                Err(_) => true,
            },
        })
    }
}

impl Default for MutationPlan {
    fn default() -> Self {
        MutationPlan {
            classes: Vec::new(),
            mutation_level: 0,
            k: 0,
            emit_guards: true,
        }
    }
}

impl MutationPlan {
    /// Serializes the plan to JSON (the "fed into a JVM at startup" format).
    ///
    /// # Errors
    /// Propagates serialization failures (practically impossible).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a plan from JSON.
    ///
    /// # Errors
    /// Returns the parse error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The mutable-class entry for `class`, if any.
    pub fn class(&self, class: ClassId) -> Option<&MutableClass> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Total number of hot states across all classes.
    pub fn total_states(&self) -> usize {
        self.classes.iter().map(|c| c.hot_states.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> MutationPlan {
        MutationPlan {
            classes: vec![MutableClass {
                class: ClassId(3),
                instance_state_fields: vec![FieldId(1)],
                static_state_fields: vec![],
                hot_states: (0..4)
                    .map(|g| HotState {
                        instance_values: vec![(FieldId(1), Value::Int(g))],
                        static_values: vec![],
                        frequency: 0.25,
                    })
                    .collect(),
                mutable_methods: vec![MethodId(7)],
                field_scores: vec![(FieldId(1), 12.5)],
            }],
            mutation_level: 2,
            k: 0,
            emit_guards: true,
        }
    }

    #[test]
    fn json_roundtrip() {
        let plan = sample_plan();
        let json = plan.to_json().unwrap();
        let back = MutationPlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        assert!(json.contains("mutation_level"));
    }

    #[test]
    fn old_plans_without_guard_flag_default_to_guarded() {
        // A plan serialized before `emit_guards` existed.
        let json = r#"{ "classes": [], "mutation_level": 2, "k": 0 }"#;
        let back = MutationPlan::from_json(json).unwrap();
        assert!(back.emit_guards);
        assert_eq!(back.mutation_level, 2);
    }

    #[test]
    fn queries() {
        let plan = sample_plan();
        assert!(plan.class(ClassId(3)).is_some());
        assert!(plan.class(ClassId(0)).is_none());
        assert_eq!(plan.total_states(), 4);
        assert!(plan.classes[0].has_instance_state());
        assert!(!plan.classes[0].hot_states[0].instance_part_is_empty());
    }
}
