//! Experiment modules — one per table/figure of the paper's evaluation,
//! and one per extension beyond it (the per-experiment index lives in
//! DESIGN.md §4).

pub mod ab_tables;
pub mod ablation;
pub mod attack_matrix;
pub mod crash_rct;
pub mod delays;
pub mod fig01;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig10;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fleet_rct;
pub mod impairment_sweep;
pub mod pop_drain;
