//! Schemas and schema inference.
//!
//! Uploaded files carry no declared types, so the ingest pipeline
//! infers a [`Schema`] by sniffing every cell and widening per column:
//! `Null < Bool < Int < Float < DateTime < Url < Text`, where `Text`
//! absorbs everything.

use crate::value::Value;

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldType {
    /// Only nulls seen (degenerate; widened to Text on use).
    Null,
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Float (absorbs Int).
    Float,
    /// Date/time.
    DateTime,
    /// URL.
    Url,
    /// Free text (absorbs everything).
    Text,
}

impl FieldType {
    /// The narrowest type able to represent both inputs.
    pub(crate) fn widen(self, other: FieldType) -> FieldType {
        use FieldType::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Null, x) | (x, Null) => x,
            (Int, Float) | (Float, Int) => Float,
            _ => Text,
        }
    }

    /// Type of a sniffed value.
    pub(crate) fn of(value: &Value) -> FieldType {
        match value {
            Value::Null => FieldType::Null,
            Value::Bool(_) => FieldType::Bool,
            Value::Int(_) => FieldType::Int,
            Value::Float(_) => FieldType::Float,
            Value::Text(_) => FieldType::Text,
            Value::DateTime(_) => FieldType::DateTime,
            Value::Url(_) => FieldType::Url,
        }
    }
}

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Column name (unique within a schema, case-sensitive).
    pub name: String,
    /// Column type.
    pub ty: FieldType,
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names — schemas come from our own
    /// ingest code, so a duplicate is a programming error.
    pub(crate) fn new(fields: Vec<FieldDef>) -> Schema {
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate column {:?}",
                f.name
            );
        }
        Schema { fields }
    }

    /// Convenience constructor from `(&str, FieldType)` pairs.
    pub fn of(cols: &[(&str, FieldType)]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|(n, t)| FieldDef {
                    name: n.to_string(),
                    ty: *t,
                })
                .collect(),
        )
    }

    /// Infer a schema from raw string rows (one `Vec<&str>`-like row
    /// per record, positionally aligned with `names`). Missing cells
    /// count as nulls.
    pub(crate) fn infer(names: &[String], rows: &[Vec<String>]) -> Schema {
        let mut types = vec![FieldType::Null; names.len()];
        for row in rows {
            for (i, ty) in types.iter_mut().enumerate() {
                let raw = row.get(i).map(String::as_str).unwrap_or("");
                *ty = ty.widen(FieldType::of(&Value::sniff(raw)));
            }
        }
        Schema::new(
            names
                .iter()
                .zip(types)
                .map(|(n, ty)| FieldDef {
                    name: n.clone(),
                    ty: if ty == FieldType::Null {
                        FieldType::Text
                    } else {
                        ty
                    },
                })
                .collect(),
        )
    }

    /// Columns in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Parse a raw string into a [`Value`] of column `i`'s type,
    /// falling back to text when the raw form does not parse (data is
    /// dirty; ingest must not fail row-by-row).
    pub(crate) fn parse_cell(&self, i: usize, raw: &str) -> Value {
        let sniffed = Value::sniff(raw);
        match (self.fields[i].ty, &sniffed) {
            (FieldType::Text, Value::Null) => Value::Null,
            (FieldType::Text, _) => Value::Text(raw.trim().to_string()),
            (FieldType::Float, Value::Int(i)) => Value::Float(*i as f64),
            (want, got) if FieldType::of(got) == want || got.is_null() => sniffed,
            // Mismatch: keep the raw text rather than dropping data.
            _ => Value::Text(raw.trim().to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn widen_lattice() {
        use FieldType::*;
        assert_eq!(Int.widen(Float), Float);
        assert_eq!(Float.widen(Int), Float);
        assert_eq!(Null.widen(Int), Int);
        assert_eq!(Int.widen(Text), Text);
        assert_eq!(Bool.widen(Int), Text);
        assert_eq!(Url.widen(Url), Url);
    }

    #[test]
    fn infer_simple() {
        let names: Vec<String> = ["title", "price", "stock"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let schema = Schema::infer(
            &names,
            &rows(&[
                &["Galactic Raiders", "49.99", "12"],
                &["Farm Story", "19.99", "3"],
            ]),
        );
        assert_eq!(schema.fields()[0].ty, FieldType::Text);
        assert_eq!(schema.fields()[1].ty, FieldType::Float);
        assert_eq!(schema.fields()[2].ty, FieldType::Int);
    }

    #[test]
    fn infer_widens_int_to_float_and_mixed_to_text() {
        let names: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let schema = Schema::infer(&names, &rows(&[&["1", "1"], &["2.5", "x"]]));
        assert_eq!(schema.fields()[0].ty, FieldType::Float);
        assert_eq!(schema.fields()[1].ty, FieldType::Text);
    }

    #[test]
    fn infer_nulls_ignored_then_default_text() {
        let names: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let schema = Schema::infer(&names, &rows(&[&["", "5"], &["", ""]]));
        assert_eq!(schema.fields()[0].ty, FieldType::Text); // all-null column
        assert_eq!(schema.fields()[1].ty, FieldType::Int);
    }

    #[test]
    fn infer_handles_short_rows() {
        let names: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let schema = Schema::infer(&names, &rows(&[&["1"]]));
        assert_eq!(schema.len(), 2);
    }

    #[test]
    fn parse_cell_respects_declared_type() {
        let schema = Schema::of(&[("sku", FieldType::Text), ("price", FieldType::Float)]);
        // "42" would sniff as Int, but the column is Text.
        assert_eq!(schema.parse_cell(0, "42"), Value::Text("42".into()));
        assert_eq!(schema.parse_cell(1, "42"), Value::Float(42.0));
        assert_eq!(schema.parse_cell(1, "49.99"), Value::Float(49.99));
    }

    #[test]
    fn parse_cell_dirty_data_falls_back_to_text() {
        let schema = Schema::of(&[("price", FieldType::Float)]);
        assert_eq!(schema.parse_cell(0, "n/a"), Value::Text("n/a".into()));
        assert_eq!(schema.parse_cell(0, ""), Value::Null);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        Schema::of(&[("a", FieldType::Int), ("a", FieldType::Int)]);
    }

    #[test]
    fn col_lookup() {
        let schema = Schema::of(&[("x", FieldType::Int), ("y", FieldType::Text)]);
        assert_eq!(schema.col("y"), Some(1));
        assert_eq!(schema.col("z"), None);
    }
}
