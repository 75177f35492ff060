//! # hiperrf-bench — reproduction harness for every table and figure
//!
//! The `repro` binary regenerates the paper's evaluation artifacts
//! (Tables I–IV, Figure 14, the full-chip result, the Fig. 15 loopback
//! report, and the robustness margin/fault reports). This library holds
//! the shared report builders so the binary and the integration tests
//! compute tables the same way. Performance is measured by the separate
//! `perfbench/` workspace, not here.

pub mod ablations;
pub mod cosim;
pub mod figure14;
pub mod lint;
pub mod reports;
pub mod robustness;
pub mod serve_smoke;
pub mod timing_diagrams;

pub use cosim::{cosim_rows, run_cosim, CosimRow};
pub use figure14::{figure14, Figure14Row};
pub use reports::{table1, table2, table3, table4_report, TableRow};
