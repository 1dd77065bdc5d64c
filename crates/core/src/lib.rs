//! **Beyond Induction Variables** — the classification algorithm of
//! Michael Wolfe's PLDI 1992 paper, implemented over the `biv` SSA
//! substrate.
//!
//! One non-iterative pass of Tarjan's algorithm over a loop's SSA graph
//! classifies every integer scalar in the loop as one of:
//!
//! - **invariant** — no definition cycles in the loop;
//! - **linear / polynomial / geometric induction variable** — a cyclic SCR
//!   whose cumulative effect per iteration is `v ← v + step`,
//!   `v ← v + (induction of order n)`, or `v ← g·v + …`; closed forms are
//!   recovered exactly by rational basis-matrix inversion (§4.3);
//! - **wrap-around variable** of any order (§4.1) — a loop-header φ alone
//!   in a trivial SCR;
//! - **periodic / flip-flop variable** (§4.2) — copy-only SCRs threading
//!   several header φs, or `j = c − j` cycles;
//! - **monotonic variable** (§4.4) — conditional updates with
//!   sign-consistent offsets, with the §5.4 strictness refinement.
//!
//! Loops are processed inner-to-outer with trip counts and exit values
//! (§5.2–§5.3), so multi-loop induction variables — including the
//! triangular-loop case of Figure 9 — come out as nested tuples.
//!
//! # Quick start
//!
//! ```
//! use biv_core::analyze_source;
//!
//! let analysis = analyze_source(
//!     r#"
//!     func fig1(n, c, k) {
//!         j = n
//!         L7: loop {
//!             i = j + c
//!             j = i + k
//!             if j > 1000 { break }
//!         }
//!     }
//!     "#,
//! )?;
//! // j2, the loop-header phi, is the linear induction variable
//! // (L7, n1, c1+k1) from the paper's Figure 1.
//! let tuple = analysis.describe_by_name("j2").unwrap();
//! assert_eq!(tuple, "(L7, n1, c1 + k1)");
//! # Ok::<(), biv_core::AnalyzeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
pub mod cache;
mod class;
mod classify;
mod config;
mod display;
mod driver;
mod faults;
mod invariants;
mod scc;
mod symbols;
mod tripcount;
pub mod validate;

pub use batch::{
    analyze_batch, analyze_batch_shared, analyze_batch_shared_backend, analyze_batch_with_backend,
    analyze_batch_with_cache, cold_batch_stats, render_grouped, render_grouped_with, resolve_jobs,
    structural_hash, summary_key, BatchOptions, BatchReport, BatchStats, FunctionSummary,
    LoopSummary, StructuralCache, StructuralSummary,
};
pub use budget::{Budget, BudgetBreach, BudgetMeter};
pub use cache::{analysis_fingerprint, CacheBackend, StoreGauges, FORMAT_VERSION};
pub use class::{Class, ClosedForm, Direction, FamilyAnchor, Monotonic, Periodic};
pub use classify::{
    class_of_sympoly, classify_loop, classify_loop_metered, combine_classes, negate_class,
    operand_class, resolve_copies, ClassLookup,
};
pub use config::AnalysisConfig;
pub use display::{
    canonical_value_name, describe_class, describe_class_with, describe_closed_form,
    describe_closed_form_with, ValueNamer,
};

pub use driver::{
    analyze, analyze_protected, analyze_source, analyze_ssa_with, analyze_with, analyze_with_times,
    Analysis, AnalysisError, AnalyzeError, LoopInfo, PhaseTimes,
};
pub use scc::{strongly_connected_regions, strongly_connected_regions_into, Scr, ScrPool};
pub use symbols::{sym_of_value, value_of_sym};
pub use tripcount::{max_trip_count, trip_count, trip_count_metered, TripCount};
pub use validate::{
    differential_check, differential_check_on, seeded_inputs, ObservableState, ValidationOptions,
    Verdict,
};
