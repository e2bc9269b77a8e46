//! # symphony-baselines
//!
//! Working models of the systems Symphony is compared against in the
//! paper's Table I — Yahoo! BOSS, Rollyo, Eurekster, Google Custom
//! Search, and Google Base — plus Symphony itself behind the same
//! probing interface. The Table-I generator (in `symphony-bench`)
//! regenerates the comparison matrix from *live capability probes*
//! of these models, and the E5 experiment compares their answer
//! quality on the GamerQueen scenario.

#![warn(missing_docs)]

mod baselines;
mod matrix;
mod model;
mod relevance;
mod scenario;
mod symphony_model;

pub use baselines::{BossModel, EureksterModel, GoogleBaseModel, GoogleCustomModel, RollyoModel};
pub use matrix::{build_matrix, render_table};
pub use model::SystemModel;
pub use relevance::ndcg_at_k;
pub use scenario::{Scenario, ENTITIES, EVAL_QUERIES, INVENTORY_CSV, REVIEW_SITES};
pub use symphony_model::SymphonyModel;
