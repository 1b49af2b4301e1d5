//! # vamana-core
//!
//! VAMANA — a scalable, cost-driven XPath engine (Raghavan, Deschler &
//! Rundensteiner, ICDE 2005) — reimplemented in Rust on top of the MASS
//! storage structure ([`vamana_mass`]).
//!
//! The crate follows the paper's architecture (Fig 2):
//!
//! * **XPath compiler** — [`vamana_xpath`] parses the expression;
//!   [`plan::builder`] maps each parse-tree node to exactly one operator
//!   of the physical algebra ([`plan`]).
//! * **Cost estimator** ([`cost`]) — `COUNT`/`TC`/`IN`/`OUT` and the
//!   selectivity ratio, fed by live index statistics from MASS (no
//!   histograms; exact under updates).
//! * **Optimizer** ([`opt`]) — clean-up, cost gathering and re-writing
//!   iterated to a fixpoint; the transformation library implements the
//!   paper's rewrites (parent inversion, child push-down, value-index
//!   steps, ancestor context folding). A rewrite is kept only when
//!   re-estimation shows no cost increase, so optimized plans are never
//!   slower than the submitted plan.
//! * **Query execution engine** ([`exec`]) — pull-based, pipelined
//!   cursors with the paper's INITIAL / FETCHING / OUT_OF_TUPLES operator
//!   states; tuples are FLEX keys, materialized lazily.
//!
//! ## Quick start
//!
//! ```
//! use vamana_core::{Engine, MassStore};
//!
//! let mut store = MassStore::open_memory();
//! store.load_xml("auction", "<site><person id='p0'><name>Yung Flach</name></person></site>").unwrap();
//! let engine = Engine::new(store);
//!
//! let hits = engine.query("//person[name = 'Yung Flach']").unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

pub mod cost;
pub mod engine;
pub mod error;
pub mod exec;
pub mod explain;
pub mod opt;
pub mod plan;
pub mod shared;
pub mod views;

pub use cost::EstimateCard;
pub use engine::{Engine, EngineOptions, Explain, QueryStream, UpdateOp, UpdateOutcome};
pub use error::{EngineError, Result};
pub use exec::finish_node_set;
pub use exec::parallel::ParallelScanStats;
pub use exec::stats::{ExecStats, ExecStatsSnapshot, OpActualsSnapshot, OrderVerdict};
pub use exec::value::Value;
pub use explain::{qerror, Analysis, Misestimate};
pub use opt::{OptEvent, OptTrace, OptimizeOutcome, OptimizerOptions, RuleDecision};
pub use plan::{builder::build_plan, display::render, OpId, Operator, ParallelChoice, QueryPlan};
pub use shared::{QueryProfile, SharedEngine};
pub use views::{ViewCache, ViewStatsSnapshot};

// Re-export the storage entry points so `vamana_core` is usable alone.
pub use vamana_mass::{DocId, MassStore, NodeEntry};
