//! JSON conversions for the core model types.
//!
//! Serialization goes through [`pocolo_json::ToJson`]. Only the units
//! decode ([`pocolo_json::FromJson`]): they ride inside wire messages,
//! while the models are fitted on each side and never parsed back.

use crate::fit::diagnostics::{AxisDiagnostics, ConvexityReport};
use crate::resources::{ResourceDescriptor, ResourceSpace};
use crate::units::{Joules, Watts};
use crate::utility::{CobbDouglas, IndirectUtility, PowerModel};
use pocolo_json::{FromJson, JsonError, ToJson, Value};

impl ToJson for Watts {
    fn to_json(&self) -> Value {
        Value::Number(self.0)
    }
}

impl FromJson for Watts {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        f64::from_json(value).map(Watts)
    }
}

impl ToJson for Joules {
    fn to_json(&self) -> Value {
        Value::Number(self.0)
    }
}

impl FromJson for Joules {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        f64::from_json(value).map(Joules)
    }
}

impl ToJson for ResourceDescriptor {
    fn to_json(&self) -> Value {
        pocolo_json::json!({
            "name": self.name(),
            "min": self.min(),
            "max": self.max(),
            "integral": self.is_integral(),
        })
    }
}

impl ToJson for ResourceSpace {
    fn to_json(&self) -> Value {
        let descriptors: Vec<&ResourceDescriptor> =
            (0..self.len()).map(|j| self.descriptor(j)).collect();
        pocolo_json::json!({ "descriptors": descriptors })
    }
}

impl ToJson for CobbDouglas {
    fn to_json(&self) -> Value {
        pocolo_json::json!({
            "alpha0": self.alpha0(),
            "alphas": self.alphas(),
        })
    }
}

impl ToJson for PowerModel {
    fn to_json(&self) -> Value {
        pocolo_json::json!({
            "p_static": self.p_static(),
            "p_dynamic": self.p_dynamic(),
        })
    }
}

impl ToJson for IndirectUtility {
    fn to_json(&self) -> Value {
        pocolo_json::json!({
            "space": self.space(),
            "perf": self.performance_model(),
            "power": self.power_model(),
        })
    }
}

pocolo_json::impl_to_json!(AxisDiagnostics {
    resource,
    triples,
    convexity_violations,
    monotonicity_violations,
});

pocolo_json::impl_to_json!(ConvexityReport { axes, tolerance });
