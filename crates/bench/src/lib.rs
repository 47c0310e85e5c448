#![warn(missing_docs)]

//! # oda-bench — experiment harnesses
//!
//! This crate regenerates every table and figure of the paper plus the
//! quantitative demonstration experiments defined in `DESIGN.md`:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (survey classification) + corpus statistics |
//! | `figure3` | Fig. 3 (complex ODA systems on the grid) |
//! | `cells` | E8 — all sixteen reference capabilities on one trace |
//! | `proactive` | E5 — §V-A reactive vs proactive control |
//! | `multipillar` | E6 — §V-B single- vs multi-pillar ODA |
//! | `llnl` | E7 — §V-C Fourier power-fluctuation forecasting |
//! | `cs_ablation` | E9 — compressed-sensing vs raw feature ablation |
//! | `chaos` | fault-injection soak with a replay-determinism digest |
//! | `scale` | scheduler worker sweep 1/2/4/8 (CI writes `target/BENCH_scale.json`) |
//!
//! (Fig. 1 and Fig. 2 are conceptual diagrams; `examples/framework_tour`
//! prints them.)
//!
//! **Timings live in the end-to-end benchmark** (`benchmark/`, four seeded
//! workloads timed in alternating parent/change pairs). A harness here
//! survives only where no e2e workload runs the code it times: every e2e
//! workload runs the ODA pass serially, so `scale`'s worker sweep is the
//! one timing harness left. Ingest, storage, serving and shard-count
//! behaviour are timed by `hot_site`, `durable_site`, `serve_mixed` and
//! `sharded_site`; their structural gates are tier-1 tests.
//!
//! The experiment logic lives in this library so the binaries stay thin
//! and the integration tests can assert the experiments' *directional*
//! claims (who wins) without parsing stdout.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod control;
pub mod e5_proactive;
pub mod e6_multipillar;
pub mod e7_llnl;
pub mod e8_cells;
pub mod e9_cs_ablation;
pub mod scale;
