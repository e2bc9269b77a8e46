//! Structured filters over records.
//!
//! The paper's future work mentions "richer querying of structured
//! data"; this module provides the comparison/boolean algebra the
//! platform uses for field bindings and for the planner in
//! [`indexed`](crate::indexed).

use crate::table::Record;
use crate::value::Value;
use std::cmp::Ordering;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn test(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A boolean filter expression over one record.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches everything.
    True,
    /// Compare a column to a literal.
    Cmp {
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal to compare against.
        value: Value,
    },
    /// Case-insensitive substring match on the column's display text.
    Contains {
        /// Column index.
        col: usize,
        /// Needle (matched case-insensitively).
        needle: String,
    },
    /// Column is null.
    IsNull {
        /// Column index.
        col: usize,
    },
    /// Both sides must hold.
    And(Box<Filter>, Box<Filter>),
    /// Either side must hold.
    Or(Box<Filter>, Box<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// Convenience equality filter.
    pub fn eq(col: usize, value: Value) -> Filter {
        Filter::Cmp {
            col,
            op: CmpOp::Eq,
            value,
        }
    }

    /// Convenience comparison filter.
    pub fn cmp(col: usize, op: CmpOp, value: Value) -> Filter {
        Filter::Cmp { col, op, value }
    }

    /// Convenience conjunction.
    pub fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// Convenience disjunction.
    pub fn or(self, other: Filter) -> Filter {
        Filter::Or(Box::new(self), Box::new(other))
    }

    /// Convenience negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Filter {
        Filter::Not(Box::new(self))
    }

    /// Evaluate against a record.
    ///
    /// Comparisons against nulls are false (three-valued logic
    /// collapsed to two, like most practical engines' WHERE).
    pub(crate) fn eval(&self, record: &Record) -> bool {
        match self {
            Filter::True => true,
            Filter::Cmp { col, op, value } => {
                let cell = record.get(*col);
                if cell.is_null() || value.is_null() {
                    return false;
                }
                op.test(cell.cmp_total(value))
            }
            Filter::Contains { col, needle } => {
                let hay = record.get(*col).display_string().to_lowercase();
                hay.contains(&needle.to_lowercase())
            }
            Filter::IsNull { col } => record.get(*col).is_null(),
            Filter::And(a, b) => a.eval(record) && b.eval(record),
            Filter::Or(a, b) => a.eval(record) || b.eval(record),
            Filter::Not(f) => !f.eval(record),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record::new(vec![
            Value::Text("Galactic Raiders".into()),
            Value::Float(49.99),
            Value::Int(12),
            Value::Null,
        ])
    }

    #[test]
    fn cmp_ops() {
        let r = rec();
        assert!(Filter::cmp(2, CmpOp::Eq, Value::Int(12)).eval(&r));
        assert!(Filter::cmp(2, CmpOp::Ne, Value::Int(13)).eval(&r));
        assert!(Filter::cmp(1, CmpOp::Lt, Value::Float(50.0)).eval(&r));
        assert!(Filter::cmp(1, CmpOp::Le, Value::Float(49.99)).eval(&r));
        assert!(Filter::cmp(1, CmpOp::Gt, Value::Int(49)).eval(&r));
        assert!(Filter::cmp(1, CmpOp::Ge, Value::Float(49.99)).eval(&r));
        assert!(!Filter::cmp(1, CmpOp::Gt, Value::Int(50)).eval(&r));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = rec();
        assert!(!Filter::eq(3, Value::Int(0)).eval(&r));
        assert!(!Filter::cmp(3, CmpOp::Ne, Value::Int(0)).eval(&r));
        assert!(!Filter::eq(0, Value::Null).eval(&r));
        assert!(Filter::IsNull { col: 3 }.eval(&r));
        assert!(!Filter::IsNull { col: 0 }.eval(&r));
    }

    #[test]
    fn contains_is_case_insensitive() {
        let r = rec();
        assert!(Filter::Contains {
            col: 0,
            needle: "galactic".into()
        }
        .eval(&r));
        assert!(!Filter::Contains {
            col: 0,
            needle: "puzzle".into()
        }
        .eval(&r));
    }

    #[test]
    fn boolean_combinators() {
        let r = rec();
        let a = Filter::eq(2, Value::Int(12));
        let b = Filter::eq(2, Value::Int(99));
        assert!(a.clone().and(Filter::True).eval(&r));
        assert!(!a.clone().and(b.clone()).eval(&r));
        assert!(a.clone().or(b.clone()).eval(&r));
        assert!(b.clone().not().eval(&r));
        assert!(!a.not().eval(&r));
    }

    #[test]
    fn numeric_cross_type_compare() {
        let r = rec();
        assert!(Filter::eq(2, Value::Float(12.0)).eval(&r));
    }
}
