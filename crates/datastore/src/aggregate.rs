//! Aggregation queries: grouped COUNT / SUM / AVG / MIN / MAX.
//!
//! Part of the "richer querying of structured data" the paper lists as
//! future work (§IV): dashboards over proprietary tables (inventory by
//! genre, average price per region). No serving path calls it yet, so
//! the crate compiles it for its tests only.

use crate::error::StoreError;
use crate::filter::Filter;
use crate::indexed::IndexedTable;
use crate::indexes::OrdValue;
use crate::value::Value;
use std::collections::BTreeMap;

/// One aggregate function over a named column (except `Count`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Aggregate {
    /// Row count.
    Count,
    /// Numeric sum (nulls and non-numerics skipped).
    Sum(String),
    /// Numeric mean (nulls and non-numerics skipped; null when no
    /// numeric input).
    Avg(String),
    /// Minimum by total value order.
    Min(String),
    /// Maximum by total value order.
    Max(String),
}

impl Aggregate {
    fn column(&self) -> Option<&str> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(c) | Aggregate::Avg(c) | Aggregate::Min(c) | Aggregate::Max(c) => {
                Some(c)
            }
        }
    }
}

/// One output row of an aggregation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupRow {
    /// Group key (`None` for the global group).
    pub key: Option<Value>,
    /// One value per requested aggregate, in request order.
    pub values: Vec<Value>,
}

#[derive(Debug, Default)]
struct Accumulator {
    count: u64,
    sum: f64,
    numeric_count: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    fn feed(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum += *i as f64;
                self.numeric_count += 1;
            }
            Value::Float(f) => {
                self.sum += f;
                self.numeric_count += 1;
            }
            _ => {}
        }
        if !v.is_null() {
            let better_min = self
                .min
                .as_ref()
                .map(|m| v.cmp_total(m) == std::cmp::Ordering::Less)
                .unwrap_or(true);
            if better_min {
                self.min = Some(v.clone());
            }
            let better_max = self
                .max
                .as_ref()
                .map(|m| v.cmp_total(m) == std::cmp::Ordering::Greater)
                .unwrap_or(true);
            if better_max {
                self.max = Some(v.clone());
            }
        }
    }
}

/// Run a grouped aggregation over an [`IndexedTable`].
///
/// * `filter` — rows considered (uses the same planner as
///   [`IndexedTable::query`]).
/// * `group_by` — optional column name; `None` produces one global
///   row.
/// * `aggs` — the aggregates to compute per group.
///
/// Groups are returned in ascending key order (total value order).
pub(crate) fn aggregate(
    table: &IndexedTable,
    filter: &Filter,
    group_by: Option<&str>,
    aggs: &[Aggregate],
) -> Result<Vec<GroupRow>, StoreError> {
    let schema = table.table().schema();
    let group_col = match group_by {
        Some(name) => Some(
            schema
                .col(name)
                .ok_or_else(|| StoreError::UnknownColumn(name.to_string()))?,
        ),
        None => None,
    };
    let agg_cols: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match a.column() {
            Some(name) => schema
                .col(name)
                .map(Some)
                .ok_or_else(|| StoreError::UnknownColumn(name.to_string())),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;

    // One accumulator per (group, aggregate).
    let mut groups: BTreeMap<Option<OrdValue>, Vec<Accumulator>> = BTreeMap::new();
    let rows = table.query(&crate::indexed::TableQuery::filtered(filter.clone()));
    for (_, record) in rows {
        let key = group_col.map(|c| OrdValue(record.get(c).clone()));
        let accs = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|_| Accumulator::default()).collect());
        for (acc, col) in accs.iter_mut().zip(&agg_cols) {
            match col {
                Some(c) => acc.feed(record.get(*c)),
                None => acc.count += 1,
            }
        }
    }
    // Global aggregation over zero rows still yields one row.
    if group_col.is_none() && groups.is_empty() {
        groups.insert(None, aggs.iter().map(|_| Accumulator::default()).collect());
    }

    Ok(groups
        .into_iter()
        .map(|(key, accs)| GroupRow {
            key: key.map(|k| k.0),
            values: aggs
                .iter()
                .zip(accs)
                .map(|(agg, acc)| match agg {
                    Aggregate::Count => Value::Int(acc.count as i64),
                    Aggregate::Sum(_) => {
                        if acc.numeric_count == 0 {
                            Value::Null
                        } else {
                            Value::Float(acc.sum)
                        }
                    }
                    Aggregate::Avg(_) => {
                        if acc.numeric_count == 0 {
                            Value::Null
                        } else {
                            Value::Float(acc.sum / acc.numeric_count as f64)
                        }
                    }
                    Aggregate::Min(_) => acc.min.unwrap_or(Value::Null),
                    Aggregate::Max(_) => acc.max.unwrap_or(Value::Null),
                })
                .collect(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CmpOp;
    use crate::schema::{FieldType, Schema};
    use crate::table::{Record, Table};

    fn inventory() -> IndexedTable {
        let schema = Schema::of(&[
            ("title", FieldType::Text),
            ("genre", FieldType::Text),
            ("price", FieldType::Float),
            ("stock", FieldType::Int),
        ]);
        let mut t = IndexedTable::new(Table::new("inv", schema));
        for (title, genre, price, stock) in [
            ("Galactic Raiders", "shooter", 49.99, 3),
            ("Laser Golf", "sports", 9.99, 0),
            ("Farm Story", "sim", 19.99, 7),
            ("Space Trader", "sim", 29.99, 2),
            ("Puzzle Palace", "puzzle", 14.99, 5),
        ] {
            t.insert(Record::new(vec![
                Value::Text(title.into()),
                Value::Text(genre.into()),
                Value::Float(price),
                Value::Int(stock),
            ]));
        }
        t
    }

    #[test]
    fn global_aggregates() {
        let t = inventory();
        let rows = aggregate(
            &t,
            &Filter::True,
            None,
            &[
                Aggregate::Count,
                Aggregate::Sum("price".into()),
                Aggregate::Avg("stock".into()),
                Aggregate::Min("price".into()),
                Aggregate::Max("price".into()),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.key, None);
        assert_eq!(r.values[0], Value::Int(5));
        assert!(matches!(r.values[1], Value::Float(s) if (s - 124.95).abs() < 1e-9));
        assert!(matches!(r.values[2], Value::Float(a) if (a - 3.4).abs() < 1e-9));
        assert_eq!(r.values[3], Value::Float(9.99));
        assert_eq!(r.values[4], Value::Float(49.99));
    }

    #[test]
    fn group_by_genre_ordered_by_key() {
        let t = inventory();
        let rows = aggregate(
            &t,
            &Filter::True,
            Some("genre"),
            &[Aggregate::Count, Aggregate::Sum("price".into())],
        )
        .unwrap();
        let keys: Vec<String> = rows
            .iter()
            .map(|r| r.key.as_ref().unwrap().display_string())
            .collect();
        assert_eq!(keys, vec!["puzzle", "shooter", "sim", "sports"]);
        let sim = rows
            .iter()
            .find(|r| r.key == Some(Value::Text("sim".into())))
            .unwrap();
        assert_eq!(sim.values[0], Value::Int(2));
        assert!(matches!(sim.values[1], Value::Float(s) if (s - 49.98).abs() < 1e-9));
    }

    #[test]
    fn filter_applies_before_grouping() {
        let t = inventory();
        let in_stock = Filter::cmp(3, CmpOp::Gt, Value::Int(0));
        let rows = aggregate(&t, &in_stock, Some("genre"), &[Aggregate::Count]).unwrap();
        // sports (stock 0) disappears entirely.
        assert!(rows
            .iter()
            .all(|r| r.key != Some(Value::Text("sports".into()))));
    }

    #[test]
    fn empty_input_global_row() {
        let t = inventory();
        let none = Filter::cmp(2, CmpOp::Gt, Value::Float(1000.0));
        let rows = aggregate(
            &t,
            &none,
            None,
            &[
                Aggregate::Count,
                Aggregate::Sum("price".into()),
                Aggregate::Min("price".into()),
            ],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[0], Value::Int(0));
        assert_eq!(rows[0].values[1], Value::Null);
        assert_eq!(rows[0].values[2], Value::Null);
        // Grouped over empty input: no rows at all.
        let grouped = aggregate(&t, &none, Some("genre"), &[Aggregate::Count]).unwrap();
        assert!(grouped.is_empty());
    }

    #[test]
    fn unknown_columns_error() {
        let t = inventory();
        assert_eq!(
            aggregate(&t, &Filter::True, Some("nope"), &[Aggregate::Count]).unwrap_err(),
            StoreError::UnknownColumn("nope".into())
        );
        assert_eq!(
            aggregate(&t, &Filter::True, None, &[Aggregate::Sum("nope".into())]).unwrap_err(),
            StoreError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn sum_over_text_column_is_null() {
        let t = inventory();
        let rows = aggregate(&t, &Filter::True, None, &[Aggregate::Sum("title".into())]).unwrap();
        assert_eq!(rows[0].values[0], Value::Null);
        // But min/max still work via total order.
        let rows = aggregate(&t, &Filter::True, None, &[Aggregate::Min("title".into())]).unwrap();
        assert_eq!(rows[0].values[0], Value::Text("Farm Story".into()));
    }
}
