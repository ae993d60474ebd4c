//! Kernel parameters: the typed, hashable configuration a [`crate::Query`]
//! carries to a registered kernel's factory.
//!
//! Parameters are a small sorted map of `name → value`. Two properties make
//! them suitable for *keying* (batch formation and the result cache) rather
//! than just configuration:
//!
//! * **Exact equality.** Floats are compared and hashed by their bit
//!   patterns, so two PPR queries with different epsilons can never share a
//!   batch cohort or a cache entry — the same rule the pre-registry enum
//!   keys used.
//! * **Canonical order.** Entries are kept sorted by name with no
//!   duplicates, so `{a, b}` and `{b, a}` are one key regardless of the
//!   order `param(..)` calls were made in.
//!
//! Factories read parameters with the typed getters ([`QueryParams::f64_or`]
//! and friends), which produce [`ParamError`]s naming the parameter instead
//! of silently coercing, and reject typos with [`QueryParams::ensure_known`].

use std::fmt;
use std::hash::{Hash, Hasher};

/// One typed parameter value.
///
/// Integers and floats are deliberately distinct variants: `1u64` and `1.0`
/// are different keys (callers pick the type the kernel documents).
#[derive(Clone, Debug)]
pub enum ParamValue {
    /// Unsigned integer (counts, caps, seeds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value; equality and hashing use the bit pattern.
    F64(f64),
}

impl ParamValue {
    /// Short name of the variant's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::U64(_) => "u64",
            ParamValue::I64(_) => "i64",
            ParamValue::F64(_) => "f64",
        }
    }
}

impl PartialEq for ParamValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParamValue::U64(a), ParamValue::U64(b)) => a == b,
            (ParamValue::I64(a), ParamValue::I64(b)) => a == b,
            // Bit-pattern equality: distinguishes -0.0 from 0.0 and makes
            // NaN == NaN, which is what key semantics (not arithmetic
            // semantics) require.
            (ParamValue::F64(a), ParamValue::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for ParamValue {}

impl Hash for ParamValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Tag with the discriminant so U64(1) and I64(1) hash apart.
        std::mem::discriminant(self).hash(state);
        match self {
            ParamValue::U64(v) => v.hash(state),
            ParamValue::I64(v) => v.hash(state),
            ParamValue::F64(v) => v.to_bits().hash(state),
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::I64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::U64(v as u64)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::U64(v as u64)
    }
}
impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::I64(v)
    }
}
impl From<i32> for ParamValue {
    fn from(v: i32) -> Self {
        ParamValue::I64(v as i64)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::F64(v)
    }
}
impl From<f32> for ParamValue {
    fn from(v: f32) -> Self {
        ParamValue::F64(v as f64)
    }
}

/// A kernel-parameter validation failure, surfaced to submitters as
/// [`crate::ServiceError::InvalidParams`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError {
    /// What went wrong, naming the offending parameter.
    pub reason: String,
}

impl ParamError {
    /// A new error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        ParamError { reason: reason.into() }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

impl std::error::Error for ParamError {}

/// A sorted, duplicate-free set of named parameters. See the
/// [module docs](self) for the keying rules.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct QueryParams {
    /// `(name, value)` pairs, sorted by name, names unique.
    entries: Vec<(String, ParamValue)>,
}

impl QueryParams {
    /// An empty parameter set.
    pub fn new() -> Self {
        QueryParams::default()
    }

    /// Insert or replace `name`, keeping the entries sorted.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<ParamValue>) {
        let name = name.into();
        let value = value.into();
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    /// Builder-style [`Self::set`].
    pub fn with(mut self, name: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Look up `name`.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(name, value)` pairs in canonical (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// `name` as an `f64`, or `default` when absent. Every value is a
    /// number: integers are widened.
    pub fn f64_or(&self, name: &str, default: f64) -> f64 {
        match self.get(name) {
            None => default,
            Some(ParamValue::F64(v)) => *v,
            Some(ParamValue::U64(v)) => *v as f64,
            Some(ParamValue::I64(v)) => *v as f64,
        }
    }

    /// `name` as a `u64`, or `default` when absent. Non-negative `i64`s are
    /// accepted; floats are not (silent truncation would change keys).
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ParamError> {
        match self.get(name) {
            None => Ok(default),
            Some(ParamValue::U64(v)) => Ok(*v),
            Some(ParamValue::I64(v)) if *v >= 0 => Ok(*v as u64),
            Some(other) => Err(ParamError::new(format!(
                "parameter {name:?} must be a non-negative integer, got {} ({other})",
                other.type_name()
            ))),
        }
    }

    /// `name` as a `usize`, or `default` when absent.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, ParamError> {
        let v = self.u64_or(name, default as u64)?;
        usize::try_from(v).map_err(|_| {
            ParamError::new(format!("parameter {name:?} value {v} does not fit in usize"))
        })
    }

    /// Reject any parameter whose name is not in `known` — the factory-side
    /// typo guard (`Query::kernel("ppr").param("epsilom", …)` fails at
    /// submit instead of silently running with the default).
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), ParamError> {
        for (name, _) in &self.entries {
            if !known.contains(&name.as_str()) {
                return Err(ParamError::new(format!(
                    "unknown parameter {name:?} (this kernel accepts {known:?})"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for QueryParams {
    /// `{alpha=0.15, epsilon=0.000001}`-style rendering for error messages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}={value}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn insertion_order_does_not_change_the_key() {
        let a = QueryParams::new().with("alpha", 0.15).with("epsilon", 1e-6);
        let b = QueryParams::new().with("epsilon", 1e-6).with("alpha", 0.15);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn set_replaces_existing_entries() {
        let mut p = QueryParams::new();
        p.set("k", 2u64);
        p.set("k", 3u64);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("k"), Some(&ParamValue::U64(3)));
    }

    #[test]
    fn float_params_key_by_bit_pattern() {
        let a = QueryParams::new().with("epsilon", 1e-6);
        let b = QueryParams::new().with("epsilon", 2e-6);
        assert_ne!(a, b);
        let nan1 = QueryParams::new().with("x", f64::NAN);
        let nan2 = QueryParams::new().with("x", f64::NAN);
        assert_eq!(nan1, nan2, "same NaN bit pattern is one key");
    }

    #[test]
    fn integer_and_float_params_are_distinct_keys() {
        let int = QueryParams::new().with("k", 1u64);
        let float = QueryParams::new().with("k", 1.0);
        assert_ne!(int, float);
    }

    #[test]
    fn typed_getters_default_widen_and_reject() {
        let p = QueryParams::new().with("alpha", 0.5).with("cap", 10u64).with("offset", -2i64);
        assert_eq!(p.f64_or("alpha", 0.15), 0.5);
        assert_eq!(p.f64_or("missing", 0.15), 0.15);
        assert_eq!(p.f64_or("cap", 0.0), 10.0, "integers widen to f64");
        assert_eq!(p.f64_or("offset", 0.0), -2.0);
        assert_eq!(p.u64_or("cap", 0).unwrap(), 10);
        let err = p.u64_or("alpha", 0).unwrap_err();
        assert!(err.reason.contains("alpha"), "{err}");
        let err = p.u64_or("offset", 0).unwrap_err();
        assert!(err.reason.contains("offset"), "{err}");
    }

    #[test]
    fn ensure_known_names_the_typo_and_the_accepted_set() {
        let p = QueryParams::new().with("epsilom", 1e-5);
        let err = p.ensure_known(&["alpha", "epsilon"]).unwrap_err();
        assert!(err.reason.contains("epsilom"), "{err}");
        assert!(err.reason.contains("epsilon"), "{err}");
        assert!(p.ensure_known(&["epsilom"]).is_ok());
    }
}
