//! Format parsers for uploaded proprietary data.
//!
//! Every parser is written from scratch (see the dependency budget in
//! DESIGN.md) and produces the same shape — header names plus string
//! rows — which [`ingest`](crate::ingest) turns into typed tables via
//! schema inference.

pub mod csv;
pub mod json;
pub(crate) mod rss;
pub(crate) mod worksheet;
pub mod xml;
