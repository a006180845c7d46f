//! Direct-resource descriptions and allocations.
//!
//! Pocolo reasons about *k* types of **direct resources** (CPU cores, LLC
//! cache ways, memory bandwidth, …) plus the single **indirect resource**,
//! power. A [`ResourceSpace`] describes the direct resources a server
//! exposes; an [`Allocation`] is a point in that space.

use std::fmt;
use std::sync::Arc;

use crate::error::CoreError;

/// Description of one direct resource dimension.
///
/// ```
/// use pocolo_core::resources::ResourceDescriptor;
/// let cores = ResourceDescriptor::integral("cores", 1.0, 12.0);
/// assert_eq!(cores.name(), "cores");
/// assert!(cores.is_integral());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDescriptor {
    name: String,
    min: f64,
    max: f64,
    integral: bool,
}

impl ResourceDescriptor {
    /// A resource allocated in whole units (cores, cache ways).
    pub fn integral(name: impl Into<String>, min: f64, max: f64) -> Self {
        ResourceDescriptor {
            name: name.into(),
            min,
            max,
            integral: true,
        }
    }

    /// A resource allocated continuously (bandwidth shares, frequency).
    pub fn continuous(name: impl Into<String>, min: f64, max: f64) -> Self {
        ResourceDescriptor {
            name: name.into(),
            min,
            max,
            integral: false,
        }
    }

    /// The resource's name (e.g. `"cores"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Minimum allocatable amount (must be > 0 for Cobb-Douglas models).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum allocatable amount (the server's capacity in this dimension).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Whether allocations are restricted to whole units.
    pub fn is_integral(&self) -> bool {
        self.integral
    }

    fn validate(&self) -> Result<(), CoreError> {
        if self.name.is_empty() {
            return Err(CoreError::InvalidSpace("resource name is empty".into()));
        }
        if !self.min.is_finite() || !self.max.is_finite() {
            return Err(CoreError::InvalidSpace(format!(
                "resource {:?} has non-finite bounds",
                self.name
            )));
        }
        if self.min <= 0.0 {
            return Err(CoreError::InvalidSpace(format!(
                "resource {:?} must have min > 0 (Cobb-Douglas utility is zero at zero allocation)",
                self.name
            )));
        }
        if self.min > self.max {
            return Err(CoreError::InvalidSpace(format!(
                "resource {:?} has min {} > max {}",
                self.name, self.min, self.max
            )));
        }
        Ok(())
    }
}

/// The set of direct resources a server exposes for allocation.
///
/// Spaces are cheap to clone (internally reference-counted) and are shared by
/// every model and allocation that refers to them.
///
/// ```
/// use pocolo_core::resources::{ResourceSpace, ResourceDescriptor};
/// # fn main() -> Result<(), pocolo_core::CoreError> {
/// let space = ResourceSpace::builder()
///     .resource(ResourceDescriptor::integral("cores", 1.0, 12.0))
///     .resource(ResourceDescriptor::integral("llc_ways", 1.0, 20.0))
///     .build()?;
/// assert_eq!(space.len(), 2);
/// assert_eq!(space.index_of("llc_ways"), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpace {
    descriptors: Arc<Vec<ResourceDescriptor>>,
}

impl ResourceSpace {
    /// Starts building a resource space.
    pub fn builder() -> ResourceSpaceBuilder {
        ResourceSpaceBuilder {
            descriptors: Vec::new(),
        }
    }

    /// The standard two-resource space of the paper's prototype: CPU cores
    /// and LLC cache ways on a Xeon E5-2650 (12 cores, 20 ways), i.e.
    /// [`ServerClass::xeon_e5_2650`](crate::fleet::ServerClass::xeon_e5_2650)'s
    /// [`resource_space`](crate::fleet::ServerClass::resource_space).
    pub fn cores_and_ways() -> Self {
        crate::fleet::ServerClass::xeon_e5_2650().resource_space()
    }

    /// Number of direct resource dimensions, `k`.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True if the space has no resources (never true for built spaces).
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Descriptor for dimension `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn descriptor(&self, j: usize) -> &ResourceDescriptor {
        &self.descriptors[j]
    }

    /// Iterates over all descriptors in dimension order.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceDescriptor> {
        self.descriptors.iter()
    }

    /// Index of the resource named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.descriptors.iter().position(|d| d.name() == name)
    }

    /// The allocation with every resource at its minimum.
    pub fn min_allocation(&self) -> Allocation {
        Allocation {
            space: self.clone(),
            amounts: self.descriptors.iter().map(|d| d.min()).collect(),
        }
    }

    /// Creates a validated allocation from raw amounts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `amounts.len() != k`, and
    /// [`CoreError::InvalidAllocation`] if any amount is non-finite or
    /// outside its descriptor's bounds.
    pub fn allocation(&self, amounts: Vec<f64>) -> Result<Allocation, CoreError> {
        if amounts.len() != self.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.len(),
                actual: amounts.len(),
            });
        }
        for (d, &a) in self.descriptors.iter().zip(&amounts) {
            if !a.is_finite() {
                return Err(CoreError::InvalidAllocation(format!(
                    "{} amount is not finite",
                    d.name()
                )));
            }
            if a < d.min() - 1e-9 || a > d.max() + 1e-9 {
                return Err(CoreError::InvalidAllocation(format!(
                    "{} = {} outside [{}, {}]",
                    d.name(),
                    a,
                    d.min(),
                    d.max()
                )));
            }
        }
        Ok(Allocation {
            space: self.clone(),
            amounts,
        })
    }

    /// Enumerates every integral allocation on a grid with the given strides.
    ///
    /// Used by profilers and exhaustive searches. Continuous resources are
    /// sampled at `stride` spacing as well.
    pub fn grid(&self, strides: &[f64]) -> Vec<Allocation> {
        assert_eq!(
            strides.len(),
            self.len(),
            "one stride per resource dimension"
        );
        let axes: Vec<Vec<f64>> = self
            .descriptors
            .iter()
            .zip(strides)
            .map(|(d, &s)| {
                let mut axis = Vec::new();
                let mut v = d.min();
                while v <= d.max() + 1e-9 {
                    axis.push(v.min(d.max()));
                    v += s.max(1e-9);
                }
                if let Some(last) = axis.last() {
                    if (last - d.max()).abs() > 1e-9 {
                        axis.push(d.max());
                    }
                }
                axis
            })
            .collect();
        let mut out = vec![Vec::new()];
        for axis in &axes {
            let mut next = Vec::with_capacity(out.len() * axis.len());
            for prefix in &out {
                for &v in axis {
                    let mut p = prefix.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            out = next;
        }
        out.into_iter()
            .map(|amounts| Allocation {
                space: self.clone(),
                amounts,
            })
            .collect()
    }
}

impl fmt::Display for ResourceSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResourceSpace(")?;
        for (i, d) in self.descriptors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}∈[{},{}]", d.name(), d.min(), d.max())?;
        }
        write!(f, ")")
    }
}

/// Builder for [`ResourceSpace`].
#[derive(Debug)]
pub struct ResourceSpaceBuilder {
    descriptors: Vec<ResourceDescriptor>,
}

impl ResourceSpaceBuilder {
    /// Adds a resource dimension.
    pub fn resource(mut self, descriptor: ResourceDescriptor) -> Self {
        self.descriptors.push(descriptor);
        self
    }

    /// Finishes the space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpace`] if no resources were added, if any
    /// descriptor is invalid, or if two resources share a name.
    pub fn build(self) -> Result<ResourceSpace, CoreError> {
        if self.descriptors.is_empty() {
            return Err(CoreError::InvalidSpace("no resources defined".into()));
        }
        for d in &self.descriptors {
            d.validate()?;
        }
        for (i, d) in self.descriptors.iter().enumerate() {
            if self.descriptors[..i].iter().any(|e| e.name() == d.name()) {
                return Err(CoreError::InvalidSpace(format!(
                    "duplicate resource name {:?}",
                    d.name()
                )));
            }
        }
        Ok(ResourceSpace {
            descriptors: Arc::new(self.descriptors),
        })
    }
}

/// A point in a [`ResourceSpace`]: how much of each direct resource an
/// application holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    space: ResourceSpace,
    amounts: Vec<f64>,
}

impl Allocation {
    /// The space this allocation lives in.
    pub fn space(&self) -> &ResourceSpace {
        &self.space
    }

    /// Amount of resource `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn amount(&self, j: usize) -> f64 {
        self.amounts[j]
    }

    /// All amounts in dimension order.
    pub fn amounts(&self) -> &[f64] {
        &self.amounts
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.amounts.len()
    }

    /// True if the allocation has no dimensions (cannot happen for
    /// allocations built from a valid space).
    pub fn is_empty(&self) -> bool {
        self.amounts.is_empty()
    }

    /// The complementary allocation: what remains of the server when this
    /// allocation is reserved (the other side of the Edgeworth box).
    ///
    /// Each dimension is `max_j - amount_j`, clamped below at zero. Note the
    /// complement can fall below a descriptor's `min` — a co-runner may be
    /// left with nothing.
    pub fn complement(&self) -> Vec<f64> {
        self.space
            .iter()
            .zip(&self.amounts)
            .map(|(d, &a)| (d.max() - a).max(0.0))
            .collect()
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (d, a)) in self.space.iter().zip(&self.amounts).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:.2}", d.name(), a)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ResourceSpace {
        ResourceSpace::cores_and_ways()
    }

    #[test]
    fn builder_rejects_empty() {
        assert!(matches!(
            ResourceSpace::builder().build(),
            Err(CoreError::InvalidSpace(_))
        ));
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let err = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 1.0, 4.0))
            .resource(ResourceDescriptor::integral("cores", 1.0, 8.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpace(_)));
    }

    #[test]
    fn builder_rejects_zero_min() {
        let err = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 0.0, 4.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpace(_)));
    }

    #[test]
    fn builder_rejects_inverted_bounds() {
        let err = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("cores", 5.0, 4.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpace(_)));
    }

    #[test]
    fn standard_space_shape() {
        let s = space();
        assert_eq!(s.len(), 2);
        assert_eq!(s.descriptor(0).name(), "cores");
        assert_eq!(s.descriptor(1).max(), 20.0);
        assert_eq!(s.index_of("cores"), Some(0));
        assert_eq!(s.index_of("gpu"), None);
        assert!(!s.is_empty());
    }

    #[test]
    fn allocation_validation() {
        let s = space();
        assert!(s.allocation(vec![4.0, 10.0]).is_ok());
        assert!(matches!(
            s.allocation(vec![4.0]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            s.allocation(vec![0.0, 10.0]),
            Err(CoreError::InvalidAllocation(_))
        ));
        assert!(matches!(
            s.allocation(vec![13.0, 10.0]),
            Err(CoreError::InvalidAllocation(_))
        ));
        assert!(matches!(
            s.allocation(vec![f64::NAN, 10.0]),
            Err(CoreError::InvalidAllocation(_))
        ));
    }

    #[test]
    fn min_max_allocations() {
        let s = space();
        assert_eq!(s.min_allocation().amounts(), &[1.0, 1.0]);
    }

    #[test]
    fn complement_is_remaining_capacity() {
        let s = space();
        let a = s.allocation(vec![4.0, 15.0]).unwrap();
        assert_eq!(a.complement(), vec![8.0, 5.0]);
        let full = s.allocation(vec![12.0, 20.0]).unwrap();
        assert_eq!(full.complement(), vec![0.0, 0.0]);
    }

    #[test]
    fn grid_enumerates_all_points() {
        let s = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("a", 1.0, 3.0))
            .resource(ResourceDescriptor::integral("b", 1.0, 2.0))
            .build()
            .unwrap();
        let g = s.grid(&[1.0, 1.0]);
        assert_eq!(g.len(), 6);
        assert!(g.iter().any(|p| p.amounts() == [3.0, 2.0]));
        assert!(g.iter().any(|p| p.amounts() == [1.0, 1.0]));
    }

    #[test]
    fn grid_includes_max_with_uneven_stride() {
        let s = ResourceSpace::builder()
            .resource(ResourceDescriptor::integral("a", 1.0, 10.0))
            .build()
            .unwrap();
        let g = s.grid(&[4.0]);
        let last = g.last().unwrap();
        assert_eq!(last.amount(0), 10.0);
    }

    #[test]
    fn display_formats() {
        let s = space();
        let a = s.allocation(vec![4.0, 15.0]).unwrap();
        assert_eq!(format!("{a}"), "{cores: 4.00, llc_ways: 15.00}");
        assert!(format!("{s}").contains("cores∈[1,12]"));
    }
}
