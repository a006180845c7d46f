//! JSON conversions for the core model types.
//!
//! Serialization goes through [`pocolo_json::ToJson`]; deserialization
//! ([`pocolo_json::FromJson`]) rebuilds models through their public
//! constructors, so parsed values are re-validated on the way in.

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

/// A model constructor's refusal, as a decode error at the model.
fn invalid(e: crate::CoreError) -> JsonError {
    JsonError::new(e.to_string())
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

impl FromJson for ResourceDescriptor {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let name: String = value.field("name")?;
        let (min, max) = (value.field("min")?, value.field("max")?);
        Ok(if value.field("integral")? {
            ResourceDescriptor::integral(name, min, max)
        } else {
            ResourceDescriptor::continuous(name, min, max)
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

impl FromJson for ResourceSpace {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let descriptors: Vec<ResourceDescriptor> = value.field("descriptors")?;
        descriptors
            .into_iter()
            .fold(ResourceSpace::builder(), |b, d| b.resource(d))
            .build()
            .map_err(invalid)
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

impl FromJson for CobbDouglas {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        CobbDouglas::new(value.field("alpha0")?, value.field("alphas")?).map_err(invalid)
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

impl FromJson for PowerModel {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        PowerModel::new(value.field("p_static")?, value.field("p_dynamic")?).map_err(invalid)
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

impl FromJson for IndirectUtility {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        IndirectUtility::new(
            value.field("space")?,
            value.field("perf")?,
            value.field("power")?,
        )
        .map_err(invalid)
    }
}

pocolo_json::impl_to_json!(AxisDiagnostics {
    resource,
    triples,
    convexity_violations,
    monotonicity_violations,
});

pocolo_json::impl_to_json!(ConvexityReport { axes, tolerance });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::xeon_space;

    #[test]
    fn utility_round_trips() {
        let space = xeon_space();
        let perf = CobbDouglas::new(2.0, vec![0.6, 0.3]).unwrap();
        let power = PowerModel::new(Watts(55.0), vec![6.0, 0.5]).unwrap();
        let utility = IndirectUtility::new(space, perf, power).unwrap();
        let text = pocolo_json::to_string(&utility);
        let back: IndirectUtility = pocolo_json::typed_from_str(&text).unwrap();
        assert_eq!(utility, back);
    }

    #[test]
    fn malformed_utility_is_rejected() {
        let e = pocolo_json::typed_from_str::<IndirectUtility>("{}").unwrap_err();
        assert_eq!(e.to_string(), "space: missing");
        // Mismatched dimensions fail IndirectUtility::new's validation.
        let text = r#"{
            "space": {"descriptors": [{"name": "cores", "min": 1, "max": 12, "integral": true}]},
            "perf": {"alpha0": 2.0, "alphas": [0.6, 0.3]},
            "power": {"p_static": 55.0, "p_dynamic": [6.0]}
        }"#;
        assert!(pocolo_json::typed_from_str::<IndirectUtility>(text).is_err());
    }
}
