//! Tables and records.

use crate::schema::Schema;
use crate::value::Value;

/// Identifier of a record within one [`Table`]. Dense, never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

impl RecordId {
    /// As a usize for slot indexing.
    #[inline]
    pub(crate) fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// One row, positionally aligned with the table's [`Schema`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Build a record from values (must match the schema width when
    /// inserted; [`Table::insert`] enforces it).
    pub fn new(values: Vec<Value>) -> Record {
        Record { values }
    }

    /// Cell by column index.
    pub fn get(&self, col: usize) -> &Value {
        &self.values[col]
    }
}

/// An in-memory table: schema + slotted rows. Deletion leaves a
/// tombstoned slot so [`RecordId`]s stay stable (secondary indexes and
/// the full-text index reference them).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    slots: Vec<Option<Record>>,
    live: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Table name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Insert a record, returning its id.
    ///
    /// # Panics
    /// Panics when the record width differs from the schema width —
    /// rows are produced by our own parsers, which pad/truncate first.
    pub fn insert(&mut self, record: Record) -> RecordId {
        assert_eq!(
            record.values.len(),
            self.schema.len(),
            "record width {} != schema width {} in table {:?}",
            record.values.len(),
            self.schema.len(),
            self.name
        );
        let id = RecordId(self.slots.len() as u32);
        self.slots.push(Some(record));
        self.live += 1;
        id
    }

    /// Insert from raw strings, parsing each cell against the schema.
    /// Short rows are padded with nulls; long rows are truncated.
    pub(crate) fn insert_raw(&mut self, raw: &[String]) -> RecordId {
        let values: Vec<Value> = (0..self.schema.len())
            .map(|i| {
                raw.get(i)
                    .map(|s| self.schema.parse_cell(i, s))
                    .unwrap_or(Value::Null)
            })
            .collect();
        self.insert(Record::new(values))
    }

    /// Fetch a live record.
    pub fn get(&self, id: RecordId) -> Option<&Record> {
        self.slots.get(id.as_usize()).and_then(|s| s.as_ref())
    }

    /// Delete a record; returns the old record if it was live.
    pub(crate) fn delete(&mut self, id: RecordId) -> Option<Record> {
        let slot = self.slots.get_mut(id.as_usize())?;
        let old = slot.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Replace a live record in place; returns the old record.
    pub(crate) fn update(&mut self, id: RecordId, record: Record) -> Option<Record> {
        assert_eq!(record.values.len(), self.schema.len());
        let slot = self.slots.get_mut(id.as_usize())?;
        if slot.is_none() {
            return None;
        }
        slot.replace(record)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate live records with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RecordId(i as u32), r)))
    }

    /// Cell access by column name (convenience for bindings).
    pub fn cell(&self, id: RecordId, col_name: &str) -> Option<&Value> {
        let col = self.schema.col(col_name)?;
        self.get(id).map(|r| r.get(col))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;

    fn table() -> Table {
        let schema = Schema::of(&[
            ("title", FieldType::Text),
            ("price", FieldType::Float),
            ("stock", FieldType::Int),
        ]);
        Table::new("inventory", schema)
    }

    fn row(t: &str, p: f64, s: i64) -> Record {
        Record::new(vec![Value::Text(t.into()), Value::Float(p), Value::Int(s)])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = table();
        let id = t.insert(row("Galactic Raiders", 49.99, 10));
        assert_eq!(
            t.get(id).unwrap().get(0),
            &Value::Text("Galactic Raiders".into())
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ids_are_stable_across_deletes() {
        let mut t = table();
        let a = t.insert(row("A", 1.0, 1));
        let b = t.insert(row("B", 2.0, 2));
        assert!(t.delete(a).is_some());
        assert_eq!(t.get(b).unwrap().get(0), &Value::Text("B".into()));
        assert!(t.get(a).is_none());
        let c = t.insert(row("C", 3.0, 3));
        assert_eq!(c, RecordId(2), "slots are never reused");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn double_delete_is_none() {
        let mut t = table();
        let a = t.insert(row("A", 1.0, 1));
        assert!(t.delete(a).is_some());
        assert!(t.delete(a).is_none());
    }

    #[test]
    fn update_replaces_live_only() {
        let mut t = table();
        let a = t.insert(row("A", 1.0, 1));
        let old = t.update(a, row("A2", 1.5, 2)).unwrap();
        assert_eq!(old.get(0), &Value::Text("A".into()));
        assert_eq!(t.get(a).unwrap().get(0), &Value::Text("A2".into()));
        t.delete(a);
        assert!(t.update(a, row("A3", 9.0, 9)).is_none());
    }

    #[test]
    fn insert_raw_parses_pads_and_truncates() {
        let mut t = table();
        let id = t.insert_raw(&["X".into(), "9.5".into()]);
        let r = t.get(id).unwrap();
        assert_eq!(r.get(1), &Value::Float(9.5));
        assert_eq!(r.get(2), &Value::Null);
        let id2 = t.insert_raw(&["Y".into(), "1".into(), "2".into(), "extra".into()]);
        assert_eq!(t.get(id2).unwrap().values.len(), 3);
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut t = table();
        let a = t.insert(row("A", 1.0, 1));
        t.insert(row("B", 2.0, 2));
        t.delete(a);
        let names: Vec<String> = t.iter().map(|(_, r)| r.get(0).display_string()).collect();
        assert_eq!(names, vec!["B"]);
    }

    #[test]
    fn cell_by_name() {
        let mut t = table();
        let id = t.insert(row("A", 1.0, 7));
        assert_eq!(t.cell(id, "stock"), Some(&Value::Int(7)));
        assert_eq!(t.cell(id, "missing"), None);
    }

    #[test]
    #[should_panic(expected = "record width")]
    fn wrong_width_panics() {
        let mut t = table();
        t.insert(Record::new(vec![Value::Int(1)]));
    }
}
