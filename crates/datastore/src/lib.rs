//! # symphony-store
//!
//! The structured-data substrate of the Symphony reproduction: private
//! per-tenant storage and indexing for application designers'
//! proprietary data (paper §II-A, "Proprietary Data").
//!
//! * [`value`] / [`schema`] — typed cells, schema inference.
//! * [`table`] — slotted tables with stable record ids.
//! * `indexes` / [`filter`] / [`indexed`] — secondary indexes, the
//!   filter algebra, and the planner-backed [`indexed::IndexedTable`].
//! * `fulltext` — full-text views bridging to `symphony-text`.
//! * [`formats`] — from-scratch CSV/TSV, JSON, XML, RSS, and worksheet
//!   (Excel stand-in) parsers.
//! * [`ingest`] — upload methods, schema inference, and the crawler.
//! * `tenant` — private, access-key-guarded tenant spaces.
//!
//! ## Quick example
//!
//! ```
//! use symphony_store::ingest::{ingest, DataFormat};
//! use symphony_store::indexed::IndexedTable;
//! use symphony_text::Query;
//!
//! let csv = "title,genre,price\nGalactic Raiders,shooter,49.99\nFarm Story,sim,19.99\n";
//! let (table, report) = ingest("inventory", csv, DataFormat::Csv).unwrap();
//! assert_eq!(report.rows, 2);
//!
//! let mut indexed = IndexedTable::new(table);
//! indexed.enable_fulltext(&[("title", 2.0), ("genre", 1.0)]).unwrap();
//! let hits = indexed.search(&Query::parse("shooter"), 10).unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod datetime;
mod error;
pub mod filter;
pub mod formats;
mod fulltext;
pub mod hybrid;
pub mod indexed;
mod indexes;
pub mod ingest;
pub mod schema;
pub mod table;
mod tenant;
pub mod value;

pub use error::StoreError;
pub use filter::{CmpOp, Filter};
pub use hybrid::{HybridPlan, HybridQuery, HybridResult};
pub use indexed::IndexedTable;
pub use indexes::IndexKind;
pub use ingest::{DataFormat, FetchedPage, PageFetcher};
pub use schema::{FieldType, Schema};
pub use table::{Record, RecordId, Table};
pub use tenant::{AccessKey, Store, TenantId, TenantSpace};
pub use value::Value;
