//! The value model for proprietary structured data.
//!
//! Symphony ingests "a variety of structured data formats (delimited
//! files, Excel files, and XML)". All of them deliver strings; typed
//! [`Value`]s are produced by parsing against an inferred or declared
//! [`FieldType`](crate::schema::FieldType).

use crate::datetime::{format_epoch, parse_datetime};
use std::borrow::Cow;
use std::cmp::Ordering;

/// A typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / empty.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// Seconds since the Unix epoch (UTC).
    DateTime(i64),
    /// A URL, kept distinct so layouts can bind hyperlinks safely.
    Url(String),
}

impl Value {
    /// True for [`Value::Null`].
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render the value the way templates and CSV export need it.
    pub fn display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{:.1}", f)
                } else {
                    f.to_string()
                }
            }
            Value::Text(s) | Value::Url(s) => s.clone(),
            Value::DateTime(t) => format_epoch(*t),
        }
    }

    /// Text used for full-text indexing (same as display for now; URLs
    /// additionally index their host tokens via the analyzer). Text and
    /// URL values lend their own string; only rendered values allocate.
    pub(crate) fn index_text(&self) -> Cow<'_, str> {
        match self {
            Value::Text(s) | Value::Url(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.display_string()),
        }
    }

    /// Total order across values, used by the ordered secondary index
    /// and ORDER BY. Nulls sort first; mixed numeric types compare
    /// numerically; otherwise ordering is by type tag then value.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Url(a), Url(b)) => a.cmp(b),
            (Text(a), Url(b)) | (Url(a), Text(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            // Cross-type: order by type tag for a stable total order.
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::DateTime(_) => 4,
            Value::Text(_) => 5,
            Value::Url(_) => 6,
        }
    }

    /// A hashable key for hash indexes. Floats use their bit pattern
    /// (hash indexes on floats therefore distinguish `0.0`/`-0.0`,
    /// which is acceptable for equality lookups on ingested data).
    pub(crate) fn hash_key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::FloatBits(f.to_bits()),
            Value::Text(s) => ValueKey::Text(s.clone()),
            Value::Url(s) => ValueKey::Url(s.clone()),
            Value::DateTime(t) => ValueKey::DateTime(*t),
        }
    }

    /// Parse a raw string into the "most specific" value: empty →
    /// `Null`, then bool, int, float, datetime, URL, falling back to
    /// text. Schema inference is built on this.
    pub fn sniff(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match t {
            "true" | "TRUE" | "True" => return Value::Bool(true),
            "false" | "FALSE" | "False" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if looks_numeric(t) {
            if let Ok(f) = t.parse::<f64>() {
                return Value::Float(f);
            }
        }
        if let Some(epoch) = parse_datetime(t) {
            return Value::DateTime(epoch);
        }
        if t.starts_with("http://") || t.starts_with("https://") {
            return Value::Url(t.to_string());
        }
        Value::Text(t.to_string())
    }
}

/// `f64::parse` accepts "inf", "nan", "3e7" etc.; restrict sniffing to
/// digit-looking strings so product codes stay text.
fn looks_numeric(t: &str) -> bool {
    let body = t.strip_prefix('-').unwrap_or(t);
    !body.is_empty()
        && body.chars().all(|c| c.is_ascii_digit() || c == '.')
        && body.chars().filter(|&c| c == '.').count() <= 1
        && body.chars().any(|c| c.is_ascii_digit())
}

/// Hashable projection of a [`Value`] (see `Value::hash_key`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// Null key.
    Null,
    /// Bool key.
    Bool(bool),
    /// Int key.
    Int(i64),
    /// Float key by bit pattern.
    FloatBits(u64),
    /// Text key.
    Text(String),
    /// Url key.
    Url(String),
    /// DateTime key.
    DateTime(i64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniff_null() {
        assert_eq!(Value::sniff(""), Value::Null);
        assert_eq!(Value::sniff("   "), Value::Null);
    }

    #[test]
    fn sniff_bool_int_float() {
        assert_eq!(Value::sniff("true"), Value::Bool(true));
        assert_eq!(Value::sniff("FALSE"), Value::Bool(false));
        assert_eq!(Value::sniff("42"), Value::Int(42));
        assert_eq!(Value::sniff("-7"), Value::Int(-7));
        assert_eq!(Value::sniff("3.5"), Value::Float(3.5));
    }

    #[test]
    fn sniff_rejects_exotic_float_syntax() {
        assert_eq!(Value::sniff("inf"), Value::Text("inf".into()));
        assert_eq!(Value::sniff("NaN"), Value::Text("NaN".into()));
        assert_eq!(Value::sniff("3e7"), Value::Text("3e7".into()));
        assert_eq!(Value::sniff("1.2.3"), Value::Text("1.2.3".into()));
    }

    #[test]
    fn sniff_datetime_and_url() {
        assert!(matches!(Value::sniff("2009-11-03"), Value::DateTime(_)));
        assert!(matches!(
            Value::sniff("https://gamespot.com/x"),
            Value::Url(_)
        ));
    }

    #[test]
    fn sniff_text_fallback() {
        assert_eq!(
            Value::sniff("Galactic Raiders"),
            Value::Text("Galactic Raiders".into())
        );
    }

    #[test]
    fn display_roundtrip_examples() {
        assert_eq!(Value::Int(5).display_string(), "5");
        assert_eq!(Value::Float(2.0).display_string(), "2.0");
        assert_eq!(Value::Bool(true).display_string(), "true");
        assert_eq!(Value::Null.display_string(), "");
    }

    #[test]
    fn total_order_nulls_first_and_numeric_mix() {
        assert_eq!(Value::Null.cmp_total(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::Int(2).cmp_total(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).cmp_total(&Value::Int(3)), Ordering::Equal);
        assert_eq!(
            Value::Text("a".into()).cmp_total(&Value::Text("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn cross_type_order_is_stable() {
        let a = Value::Bool(true);
        let b = Value::Text("x".into());
        assert_eq!(a.cmp_total(&b), Ordering::Less);
        assert_eq!(b.cmp_total(&a), Ordering::Greater);
    }

    #[test]
    fn hash_key_equality_matches_value_equality() {
        assert_eq!(
            Value::Text("a".into()).hash_key(),
            Value::Text("a".into()).hash_key()
        );
        assert_ne!(Value::Int(1).hash_key(), Value::Int(2).hash_key());
    }
}
