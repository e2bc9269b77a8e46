//! Per-tenant private spaces.
//!
//! Paper §II-A: *"Symphony provides private and secure space to store
//! and index proprietary data belonging to the application designer."*
//! A [`Store`] hosts many tenants; each tenant's tables are reachable
//! only with that tenant's access key.

use crate::error::StoreError;
use crate::indexed::IndexedTable;
use std::collections::BTreeMap;

/// Identifier of a tenant (application designer) in a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Opaque bearer credential for a tenant space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccessKey(pub String);

/// A tenant's private table namespace.
#[derive(Debug)]
pub struct TenantSpace {
    tables: BTreeMap<String, IndexedTable>,
}

impl TenantSpace {
    /// Register (or replace) a table under its own name.
    pub fn put_table(&mut self, table: IndexedTable) {
        self.tables.insert(table.table().name().to_string(), table);
    }

    /// Fetch a table by name.
    pub fn table(&self, name: &str) -> Result<&IndexedTable, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Fetch a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut IndexedTable, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Drop a table; returns it if present.
    pub fn drop_table(&mut self, name: &str) -> Option<IndexedTable> {
        self.tables.remove(name)
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Mutably iterate every table (name order). Platform-internal:
    /// used by warmup to optimize full-text views across tenants.
    pub fn tables_mut(&mut self) -> impl Iterator<Item = &mut IndexedTable> {
        self.tables.values_mut()
    }

    /// Total live records across tables (quota accounting).
    pub fn total_records(&self) -> usize {
        self.tables.values().map(|t| t.table().len()).sum()
    }
}

/// The multi-tenant store.
#[derive(Debug, Default)]
pub struct Store {
    spaces: Vec<(AccessKey, TenantSpace)>,
}

impl Store {
    /// Empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// Create a tenant space, returning the id and its access key.
    ///
    /// Keys are derived deterministically but unguessably enough for a
    /// simulation (a real deployment would use a CSPRNG; the
    /// reproduction keeps the store crate dependency-free).
    pub fn create_tenant(&mut self, name: &str) -> (TenantId, AccessKey) {
        let id = TenantId(self.spaces.len() as u32);
        let key = AccessKey(format!("sk-{:08x}-{}", mix(id.0, name), id.0));
        self.spaces.push((
            key.clone(),
            TenantSpace {
                tables: BTreeMap::new(),
            },
        ));
        (id, key)
    }

    /// Authenticate and borrow a space.
    pub fn space(&self, tenant: TenantId, key: &AccessKey) -> Result<&TenantSpace, StoreError> {
        match self.spaces.get(tenant.0 as usize) {
            Some((k, space)) if k == key => Ok(space),
            Some(_) => Err(StoreError::AccessDenied),
            None => Err(StoreError::AccessDenied),
        }
    }

    /// Trusted platform-internal accessor: borrow a space *without*
    /// its key. The hosting layer uses this when executing a tenant's
    /// own published application — the tenant authorized that access
    /// at registration. External callers must use [`Store::space`].
    pub fn space_by_id(&self, tenant: TenantId) -> Option<&TenantSpace> {
        self.spaces.get(tenant.0 as usize).map(|(_, s)| s)
    }

    /// Trusted platform-internal accessor: mutably iterate every
    /// tenant space without keys, in tenant-id order. The hosting
    /// layer uses this for maintenance passes (warmup optimization);
    /// external callers must authenticate via [`Store::space_mut`].
    pub fn spaces_mut(&mut self) -> impl Iterator<Item = &mut TenantSpace> {
        self.spaces.iter_mut().map(|(_, s)| s)
    }

    /// Authenticate and borrow a space mutably.
    pub fn space_mut(
        &mut self,
        tenant: TenantId,
        key: &AccessKey,
    ) -> Result<&mut TenantSpace, StoreError> {
        match self.spaces.get_mut(tenant.0 as usize) {
            Some((k, space)) if k == key => Ok(space),
            Some(_) => Err(StoreError::AccessDenied),
            None => Err(StoreError::AccessDenied),
        }
    }
}

/// Not FNV-1a: 0x1000_0000_01b3 is not the FNV prime. Access keys
/// depend on it, so changing it moves the pinned checksums.
fn mix(id: u32, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes().chain(id.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, Schema};
    use crate::table::Table;

    fn a_table(name: &str) -> IndexedTable {
        IndexedTable::new(Table::new(name, Schema::of(&[("x", FieldType::Int)])))
    }

    #[test]
    fn create_and_access() {
        let mut store = Store::new();
        let (id, key) = store.create_tenant("GamerQueen");
        let space = store.space_mut(id, &key).unwrap();
        space.put_table(a_table("inv"));
        assert_eq!(space.table_names(), vec!["inv"]);
        assert!(store.space(id, &key).unwrap().table("inv").is_ok());
    }

    #[test]
    fn wrong_key_denied() {
        let mut store = Store::new();
        let (id, _key) = store.create_tenant("A");
        let bad = AccessKey("sk-wrong".into());
        assert_eq!(store.space(id, &bad).unwrap_err(), StoreError::AccessDenied);
    }

    #[test]
    fn cross_tenant_key_denied() {
        let mut store = Store::new();
        let (a, key_a) = store.create_tenant("A");
        let (b, key_b) = store.create_tenant("B");
        assert!(store.space(a, &key_b).is_err());
        assert!(store.space(b, &key_a).is_err());
        assert!(store.space(a, &key_a).is_ok());
    }

    #[test]
    fn unknown_tenant_denied() {
        let store = Store::new();
        assert!(store.space(TenantId(9), &AccessKey("sk-x".into())).is_err());
    }

    #[test]
    fn keys_are_distinct() {
        let mut store = Store::new();
        let (_, k1) = store.create_tenant("A");
        let (_, k2) = store.create_tenant("A");
        assert_ne!(k1, k2);
    }

    #[test]
    fn table_lifecycle() {
        let mut store = Store::new();
        let (id, key) = store.create_tenant("A");
        let space = store.space_mut(id, &key).unwrap();
        space.put_table(a_table("t1"));
        space.put_table(a_table("t2"));
        assert_eq!(space.total_records(), 0);
        assert!(space.drop_table("t1").is_some());
        assert!(space.drop_table("t1").is_none());
        assert_eq!(
            space.table("t1").unwrap_err(),
            StoreError::UnknownTable("t1".into())
        );
        assert_eq!(space.table_names(), vec!["t2"]);
    }
}
