//! # flat-bench
//!
//! The evaluation harness: one binary per figure/table of the paper
//! (`fig2_matmul`, `fig5_tree`, `fig7_locvolcalib`, `fig8_bulk`,
//! `table1_datasets`, `code_size`, `ablation_fullflat`, `tuner_stats`),
//! plus Criterion microbenchmarks of the compiler pipeline itself.
//!
//! Each binary prints a human-readable table (with ASCII bars where the
//! paper has bar charts) and writes the raw measurements as JSON under
//! `results/`, mirroring the paper artifact's "raw measurement data in a
//! simple JSON format".

pub mod baseline;
pub mod report;

pub use baseline::{
    backend_of, check_same_backend, compare, measure_suite, measure_suite_vm,
    render_comparison, Baseline, BaselineEntry, Comparison, RunStats,
};
pub use report::{ascii_bar, write_json, Row};
