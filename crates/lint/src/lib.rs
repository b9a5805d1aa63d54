//! # dayu-lint
//!
//! Static analysis for the DaYu stack: every pass here runs **without
//! executing the simulator**, answering "is this workflow / trace / file
//! safe?" from structure alone. The passes share one diagnostic model
//! ([`Finding`] / [`Report`]):
//!
//! 1. **Dataflow-hazard analysis** ([`hazard`]) — over a replay plan
//!    (`SimTask`s), a declared [`WorkflowSpec`](dayu_workflow::WorkflowSpec),
//!    or a recorded [`TraceBundle`](dayu_trace::TraceBundle): write-write
//!    races, reads before any ordered producer, reads after stage-out/drop,
//!    and references to files nothing produces. Recorded traces that carry
//!    stage membership are judged by the happens-before engine ([`hb`]) at
//!    byte-extent granularity ([`extent`]): only *concurrent* tasks whose
//!    raw-data extents overlap race — disjoint-extent parallelism is safe
//!    by construction and never flagged.
//!    1b. **Dataset lifetime analysis** ([`lifetime`]) — use-after-close,
//!    dataset-granularity read-before-write, and (opt-in) dead datasets
//!    and redundant full overwrites, the waste class the advisor turns
//!    into elision suggestions.
//! 2. **Transform semantics-preservation verification** ([`verify`]) — the
//!    optimizer's plan rewrites (`dayu_workflow::transform`) are checked to
//!    introduce no new hazards and break no producer→consumer ordering;
//!    violating transforms are rolled back. `dayu_core::auto::optimize`
//!    applies every rewrite through this gate.
//! 3. **Format fsck** ([`fsck`]) — a structural walk of a raw `dayu-hdf`
//!    file image: superblock/object-header invariants, chunk-index entries
//!    inside the allocated file, live global-heap references, and no two
//!    structures claiming the same bytes.
//!    3b. **Format repair** ([`repair`]) — best-effort in-place reconstruction
//!    of a damaged image: journal roll-forward/back, superblock surgery,
//!    then an iterative prune that detaches whatever fsck still flags.
//! 4. **Symbolic contract passes** ([`symbolic`], [`contract`]) — declared
//!    [`IoContract`](dayu_workflow::IoContract) footprints compiled to a
//!    hull algebra ([`ContractCatalog`]). Statically ([`analyze_contracts`])
//!    they prove or refute extent races, read-before-write and
//!    use-after-dispose from the spec alone — before any VFD is opened;
//!    dynamically ([`ConformanceChecker`]) a recorded trace is replayed
//!    against them to flag out-of-footprint I/O and never-exercised
//!    declarations. The contract catalog exposes the same disjointness
//!    oracle as the recorded [`ExtentCatalog`], so the transform verifier
//!    can discharge a `parallelize` from semantics alone.
//! 5. **Static dataflow prediction** ([`static_graph`], [`cost`]) — the
//!    contracts, interpreted abstractly, predict the analyzer's graphs
//!    before any run: a static FTG/sSDG with producer→consumer flows and
//!    dataset live ranges ([`StaticPrediction`]), annotated by an abstract
//!    cost model ([`cost_model`]) with per-task/per-stage bytes, op counts
//!    under a chosen I/O engine, working sets vs cache capacity and the
//!    symbolic critical path. Recorded SDGs validate against the
//!    prediction ([`StaticPrediction::compare`]): an unpredicted raw-data
//!    edge is a contract hole ([`Finding::IncompleteContract`]), and the
//!    plan-DAG walk ([`plan_critical_path_bytes`]) scores optimizer
//!    candidates by predicted critical-path bytes.
//!
//! CLI entry points: `dayu-analyze check <trace.dtb>` (passes 1 and
//! 1b over a recorded trace, with `--json` / `--deny <class>` for CI
//! gating, plus `--contracts <workload>` for passes 4) and
//! `dayu-h5ls --fsck [--repair] <file>` (passes 3/3b).

pub mod contract;
pub mod cost;
pub mod extent;
pub mod fsck;
pub mod hazard;
pub mod hb;
pub mod lifetime;
pub mod model;
pub mod repair;
pub mod static_graph;
pub mod symbolic;
pub mod verify;

pub use contract::{
    analyze_contracts, check_conformance, check_conformance_stream, ConformanceChecker,
};
pub use cost::{cost_model, plan_critical_path_bytes, CostConfig, CostReport, StageCost, TaskCost};
pub use extent::{Extent, ExtentCatalog, ExtentSet, IntervalTree, TaskFileExtents};
pub use fsck::fsck_bytes;
pub use hazard::{
    analyze_bundle, analyze_plan, analyze_sim_tasks, analyze_spec, analyze_stream,
    plan_from_sim_tasks, plan_from_spec, Access, AccessDecl, LintConfig, PlanTask, TraceChecker,
};
pub use hb::TaskHb;
pub use lifetime::LifetimePass;
pub use model::{Finding, Report};
pub use repair::{repair_bytes, RepairReport};
pub use static_graph::{
    prediction_json, LiveRange, PredictedFlow, PredictedTask, SdgComparison, StaticPrediction,
    TaskAccess, TOP_FOOTPRINT_BYTES,
};
pub use symbolic::{ContractCatalog, FootprintOracle, SymCollision, SymFootprint};
pub use verify::{verified, SemanticsViolation};
