//! Automated optimization — the paper's first future-work item: "further
//! leveraging DaYu's insights to automate optimization strategies."
//!
//! [`optimize`] closes the loop without a human in it: analyze a recorded
//! run, map every finding to its guideline action, apply the actions that
//! are plan-level (scheduling, placement, staging, access elimination,
//! pipelining) to the replay job, and score the optimized plan against the
//! baseline on a simulated cluster. Actions that require regenerating the
//! data itself (layout changes, consolidation) are reported as advisories —
//! they need a re-run of the producing application.

use dayu_advisor::{advise, advise_lint, Action, Recommendation};
use dayu_analyzer::Analysis;
use dayu_lint::{plan_critical_path_bytes, verify, ContractCatalog, ExtentCatalog, LintConfig};
use dayu_sim::cluster::{Cluster, FileLocation, Placement};
use dayu_sim::engine::{Engine, SimError, SimReport};
use dayu_sim::program::SimTask;
use dayu_sim::tiers::TierKind;
use dayu_trace::vfd::IoKind;
use dayu_workflow::{
    file_written_bytes, readers_of, to_sim_tasks, transform, RecordedRun, Schedule,
};
use std::collections::{HashMap, HashSet};

/// The outcome of automatic optimization.
pub struct AutoOutcome {
    /// Baseline replay (round-robin schedule, default shared placement).
    pub baseline: SimReport,
    /// Replay of the automatically derived plan.
    pub optimized: SimReport,
    /// Human-readable description of each applied action.
    pub applied: Vec<String>,
    /// Advisories that could not be applied mechanically (data-layout
    /// changes requiring application re-runs).
    pub advisories: Vec<String>,
    /// Transforms the semantics-preservation verifier rejected and rolled
    /// back (each entry names the transform and the regressions it would
    /// have introduced).
    pub rejected: Vec<String>,
    /// The recommendations the plan was derived from.
    pub recommendations: Vec<Recommendation>,
    /// Predicted critical-path bytes (abstract cost model, engine-blind)
    /// of the baseline replay plan.
    pub predicted_baseline_cp_bytes: u64,
    /// Predicted critical-path bytes of the final optimized plan.
    pub predicted_plan_cp_bytes: u64,
    /// One line per cost-scored candidate action: the predicted
    /// critical-path bytes of the plan with that rewrite applied. Phase-2
    /// application order follows these scores (cheapest predicted path
    /// first), not the advisor's emission order.
    pub plan_scores: Vec<String>,
}

impl AutoOutcome {
    /// Makespan speedup of the optimized plan.
    pub fn speedup(&self) -> f64 {
        self.baseline.makespan_ns as f64 / self.optimized.makespan_ns.max(1) as f64
    }
}

/// The node a task most often ran I/O against (fallback 0).
fn node_of(tasks: &[SimTask], name: &str) -> usize {
    tasks
        .iter()
        .find(|t| t.name == name)
        .map(|t| t.node)
        .unwrap_or(0)
}

/// Bytes the run moved for `file`: what was written, or — for pure inputs
/// written before tracing began — what was read.
fn traced_file_bytes(run: &RecordedRun, file: &str) -> u64 {
    file_written_bytes(run, file).max(
        run.bundle
            .vfd
            .iter()
            .filter(|r| r.file.as_str() == file && r.kind == IoKind::Read)
            .map(|r| r.len)
            .sum(),
    )
}

/// Predicted critical-path bytes of `tasks` with `f` applied to a scratch
/// copy; the real plan is untouched.
fn scored<R>(tasks: &[SimTask], f: impl FnOnce(&mut Vec<SimTask>) -> R) -> u64 {
    let mut scratch = tasks.to_vec();
    f(&mut scratch);
    plan_critical_path_bytes(&scratch).0
}

/// Scores a candidate action by re-running the abstract cost model on the
/// transformed plan: `(label, predicted critical-path bytes)`. `None` for
/// actions with no mechanical plan rewrite to score (advisories, phase-1
/// trace edits, pure placement hints).
fn score_action(tasks: &[SimTask], run: &RecordedRun, action: &Action) -> Option<(String, u64)> {
    match action {
        Action::Parallelize { first, second } => Some((
            format!("parallelize {second} with {first}"),
            scored(tasks, |t| transform::parallelize(t, first, second)),
        )),
        Action::CoSchedule { producer, consumer } => Some((
            format!("co-schedule {consumer} with {producer}"),
            scored(tasks, |t| transform::co_schedule(t, producer, consumer)),
        )),
        Action::PrefetchToNodeLocal { file, .. } => {
            let bytes = traced_file_bytes(run, file);
            if bytes == 0 {
                return None;
            }
            Some((
                format!("prefetch {file}"),
                scored(tasks, |t| {
                    let node = readers_of(t, file).first().map(|&i| t[i].node)?;
                    let mut scratch_placement = Placement::new();
                    transform::stage_in(
                        t,
                        &mut scratch_placement,
                        file,
                        bytes,
                        node,
                        TierKind::NvmeSsd,
                    );
                    Some(())
                }),
            ))
        }
        Action::StageOut { file } => {
            let bytes = file_written_bytes(run, file);
            if bytes == 0 {
                return None;
            }
            Some((
                format!("stage-out {file}"),
                scored(tasks, |t| {
                    let node = readers_of(t, file).first().map(|&i| t[i].node).unwrap_or(0);
                    transform::stage_out_async(t, file, bytes, node);
                }),
            ))
        }
        _ => None,
    }
}

/// Applies an ordering rewrite through two gates: the abstract cost model
/// first — a rewrite whose transformed plan predicts *more* critical-path
/// bytes is rejected before any semantics check (`parallelize` makes the
/// second task inherit the first's prerequisites, which lengthens the
/// weighted path when the advisor mispairs tasks) — then the
/// semantics-preservation verifier.
fn cp_gated<R>(
    tasks: &mut Vec<SimTask>,
    label: &str,
    contracts: Option<&ContractCatalog>,
    catalog: &ExtentCatalog,
    f: impl Fn(&mut Vec<SimTask>) -> R,
) -> Result<R, String> {
    let before = plan_critical_path_bytes(tasks).0;
    let after = scored(tasks, &f);
    if after > before {
        return Err(format!(
            "{label}: predicted critical-path bytes regress ({before} -> {after} B)"
        ));
    }
    verify::verified(tasks, label, contracts, Some(catalog), f).map_err(|v| v.to_string())
}

/// Derives and scores an optimized plan for a recorded run on `cluster`.
pub fn optimize(run: &RecordedRun, cluster: &Cluster) -> Result<AutoOutcome, SimError> {
    optimize_with_contracts(run, cluster, None)
}

/// [`optimize`] with declared contract footprints: every plan rewrite is
/// gated by the declarations *first* (a `parallelize` between tasks whose
/// declared extents are provably disjoint is discharged with no recorded
/// extents at all), falling back to the recorded-extent oracle for tasks
/// the contracts do not cover.
pub fn optimize_with_contracts(
    run: &RecordedRun,
    cluster: &Cluster,
    contracts: Option<&ContractCatalog>,
) -> Result<AutoOutcome, SimError> {
    let analysis = Analysis::run(&run.bundle);
    let mut recommendations = advise(&analysis.findings);
    // Waste findings from the linter's lifetime pass (dead datasets,
    // redundant overwrites) become elision recommendations. They stay
    // advisory here: the linter cannot tell dead data from a final
    // product nobody reads *within* the recorded window.
    let lint_report = dayu_lint::analyze_bundle(
        &run.bundle,
        &LintConfig {
            report_dead_data: true,
            ..LintConfig::default()
        },
    );
    recommendations.extend(advise_lint(&lint_report));

    // Baseline.
    let schedule = Schedule::round_robin(run, cluster.nodes);
    let baseline_tasks = to_sim_tasks(run, &schedule);
    let baseline = Engine::new(cluster, &Placement::new()).run(&baseline_tasks)?;

    let mut applied = Vec::new();
    let mut advisories = Vec::new();
    let mut rejected = Vec::new();

    // Phase 1 — trace-level action: eliminate unused dataset accesses
    // before converting to a replay job.
    let mut bundle = run.bundle.clone();
    for rec in &recommendations {
        if let Action::SkipUnusedDataset { dataset } = &rec.action {
            let Some((file, object)) = dataset.split_once(':') else {
                continue;
            };
            // Every task that touched the object stops moving its content;
            // tasks that genuinely read its data were excluded by the
            // detector, so only writers and metadata-only readers remain.
            let touchers: Vec<String> = bundle
                .vfd
                .iter()
                .filter(|r| r.file.as_str() == file && r.object.as_str() == object)
                .map(|r| r.task.as_str().to_owned())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut dropped = 0;
            for t in touchers {
                dropped += transform::drop_object_ops(&mut bundle, &t, object);
            }
            if dropped > 0 {
                applied.push(format!(
                    "partial file access: eliminated {dropped} ops on unused {dataset}"
                ));
            }
        }
    }
    let opt_run = RecordedRun {
        bundle,
        stage_of: run.stage_of.clone(),
        compute_ns: run.compute_ns.clone(),
        stage_names: run.stage_names.clone(),
        outcomes: run.outcomes.clone(),
    };
    let mut tasks = to_sim_tasks(&opt_run, &schedule);
    let mut placement = Placement::new();

    // Phase 2 — plan-level actions. Every plan rewrite goes through the
    // semantics-preservation verifier (`dayu_lint::verify`): a transform
    // that would introduce a hazard or break a producer→consumer ordering
    // is rolled back and reported in `rejected` instead of applied. The
    // recorded byte extents sharpen the gate in both directions: rewrites
    // whose tasks provably touch disjoint bytes pass even when they share
    // a file, and real collisions are rejected as extent races.
    let catalog = ExtentCatalog::from_bundle(&opt_run.bundle);
    // Several findings on one file (or producer and consumer) each advise
    // the same action; it is applied once.
    let mut staged: HashMap<String, ()> = HashMap::new();
    let mut cached: HashSet<&str> = HashSet::new();
    let mut co_scheduled: HashSet<(&str, &str)> = HashSet::new();

    // Rank the candidates before applying any of them: re-run the abstract
    // cost model (`plan_critical_path_bytes`) on each mechanical rewrite
    // applied to a scratch copy of the plan, and walk phase 2 cheapest
    // predicted critical path first. Unscorable actions keep the advisor's
    // emission order at a neutral score, and ties stay stable.
    let predicted_baseline_cp_bytes = plan_critical_path_bytes(&baseline_tasks).0;
    let start_cp = plan_critical_path_bytes(&tasks).0;
    let mut plan_scores = Vec::new();
    let mut order: Vec<(usize, u64)> = recommendations
        .iter()
        .enumerate()
        .map(
            |(i, rec)| match score_action(&tasks, &opt_run, &rec.action) {
                Some((label, cp)) => {
                    plan_scores.push(format!(
                        "{label}: predicted critical path {start_cp} -> {cp} B"
                    ));
                    (i, cp)
                }
                None => (i, start_cp),
            },
        )
        .collect();
    order.sort_by_key(|&(_, cp)| cp);

    for &(idx, _) in &order {
        let rec = &recommendations[idx];
        match &rec.action {
            Action::CoSchedule { producer, consumer } => {
                let pair = (producer.as_str(), consumer.as_str());
                if co_scheduled.contains(&pair) {
                    continue;
                }
                match cp_gated(&mut tasks, "co_schedule", contracts, &catalog, |t| {
                    transform::co_schedule(t, producer, consumer)
                }) {
                    Ok(()) => {
                        co_scheduled.insert(pair);
                        // The file between them becomes node-local.
                        let node = node_of(&tasks, producer);
                        transform::place_outputs_local(
                            &tasks,
                            &mut placement,
                            producer,
                            TierKind::NvmeSsd,
                        );
                        applied.push(format!(
                            "co-scheduled {consumer} with {producer} on node {node}, outputs on local SSD"
                        ));
                    }
                    Err(v) => rejected.push(v),
                }
            }
            Action::CacheInFastTier { target } => {
                if !cached.insert(target.as_str()) {
                    continue;
                }
                // Home the file on the fastest local tier of its busiest
                // reader's node.
                let readers = readers_of(&tasks, target);
                let node = readers.first().map(|&i| tasks[i].node).unwrap_or(0);
                placement.place(target.clone(), FileLocation::NodeLocal(node, TierKind::Ram));
                applied.push(format!("cached {target} in memory on node {node}"));
            }
            Action::PrefetchToNodeLocal { file, delayed } => {
                if staged.contains_key(file) {
                    continue;
                }
                let bytes = file_written_bytes(&opt_run, file).max(
                    // Pure inputs were written before tracing; size them by
                    // what was read.
                    opt_run
                        .bundle
                        .vfd
                        .iter()
                        .filter(|r| r.file.as_str() == file && r.kind == IoKind::Read)
                        .map(|r| r.len)
                        .sum(),
                );
                if bytes == 0 {
                    continue;
                }
                let readers = readers_of(&tasks, file);
                let Some(&first_reader) = readers.first() else {
                    continue;
                };
                let node = tasks[first_reader].node;
                // A rejected stage-in leaves its replica entry in
                // `placement` (the transform records it before the check);
                // harmless, since after rollback no task references the
                // replica file.
                match verify::verified(&mut tasks, "stage_in", contracts, Some(&catalog), |t| {
                    transform::stage_in(t, &mut placement, file, bytes, node, TierKind::NvmeSsd)
                }) {
                    Ok(_) => {
                        staged.insert(file.clone(), ());
                        applied.push(format!(
                            "{}prefetched {file} ({bytes} B) to node {node} SSD",
                            if *delayed { "(delayed) " } else { "" }
                        ));
                    }
                    Err(v) => rejected.push(v.to_string()),
                }
            }
            Action::Parallelize { first, second } => {
                match cp_gated(&mut tasks, "parallelize", contracts, &catalog, |t| {
                    transform::parallelize(t, first, second)
                }) {
                    Ok(()) => applied.push(format!("pipelined {second} with {first}")),
                    Err(v) => rejected.push(v),
                }
            }
            Action::StageOut { file } => {
                // Only meaningful when the file was placed node-local by an
                // earlier action; the copy back to shared is asynchronous.
                let bytes = file_written_bytes(&opt_run, file);
                if bytes > 0 {
                    let node = readers_of(&tasks, file)
                        .first()
                        .map(|&i| tasks[i].node)
                        .unwrap_or(0);
                    match verify::verified(
                        &mut tasks,
                        "stage_out_async",
                        contracts,
                        Some(&catalog),
                        |t| transform::stage_out_async(t, file, bytes, node),
                    ) {
                        Ok(()) => applied.push(format!("async stage-out of {file}")),
                        Err(v) => rejected.push(v.to_string()),
                    }
                }
            }
            Action::ChangeLayout { dataset, to } => {
                advisories.push(format!(
                    "re-run producer with {to} layout for {dataset} (data-format change)"
                ));
            }
            Action::ConsolidateSmallDatasets { file, count } => {
                advisories.push(format!(
                    "consolidate {count} small datasets in {file} into one (data-format change)"
                ));
            }
            Action::SkipUnusedDataset { .. } => {} // handled in phase 1
            Action::ElideDataset {
                file,
                dataset,
                bytes,
            } => {
                // Never applied mechanically: within the recorded window a
                // final product is indistinguishable from dead data. The
                // cost model still prices the hypothetical so a human can
                // rank which elisions are worth confirming.
                let mut elided = opt_run.bundle.clone();
                let touchers: Vec<String> = elided
                    .vfd
                    .iter()
                    .filter(|r| r.file.as_str() == file && r.object.as_str() == dataset)
                    .map(|r| r.task.as_str().to_owned())
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                for t in &touchers {
                    transform::drop_object_ops(&mut elided, t, dataset);
                }
                let elided_run = RecordedRun {
                    bundle: elided,
                    stage_of: opt_run.stage_of.clone(),
                    compute_ns: opt_run.compute_ns.clone(),
                    stage_names: opt_run.stage_names.clone(),
                    outcomes: opt_run.outcomes.clone(),
                };
                let elided_cp = plan_critical_path_bytes(&to_sim_tasks(&elided_run, &schedule)).0;
                let cur_cp = plan_critical_path_bytes(&tasks).0;
                plan_scores.push(format!(
                    "elide {file}:{dataset}: predicted critical path {cur_cp} -> {elided_cp} B"
                ));
                advisories.push(format!(
                    "elide {file}:{dataset} ({bytes} B written, never read in the \
                     recorded workflow; would take the predicted critical path \
                     from {cur_cp} to {elided_cp} B) — confirm it is not a final product"
                ));
            }
            Action::AuditRecoveredOutputs { task } => {
                // Crash-recovered outputs are already fsck'd by the runner;
                // the plan-level response is advisory: keep journaled
                // durability and treat the task's timing as an outlier.
                advisories.push(format!(
                    "audit {task}'s recovered outputs (retry resumed from \
                     journal-recovered files); keep journaled durability for its stage"
                ));
            }
            Action::AuditContract { task, dataset } => {
                // A contract the trace contradicts poisons every proof
                // discharged from it; plans keep working off recorded
                // extents, so the response is advisory.
                advisories.push(format!(
                    "audit {task}'s I/O contract for {dataset} (trace and declaration \
                     disagree); until they are reconciled, symbolic proofs involving \
                     {task} are unsound"
                ));
            }
            Action::RerunTask { task } => {
                // A salvaged trace fragment under-reports the task's I/O;
                // optimizing against it would bake the gap into the plan.
                advisories.push(format!(
                    "re-record {task} (salvaged trace fragment; plan derived from partial data)"
                ));
            }
            Action::ReingestWorkflow { workflow } => {
                // The live graph is missing quarantined or load-shed
                // sections; a plan built on it optimizes a partial view.
                advisories.push(format!(
                    "re-ingest {workflow} from a clean trace (streaming ingest \
                     degraded; this plan was derived from an incomplete graph)"
                ));
            }
            Action::InvestigateDivergence { task, event_index } => {
                // Two recordings disagree: the trace this plan was derived
                // from may not describe what the workload actually does.
                advisories.push(format!(
                    "investigate {task}'s divergence at event {event_index} before \
                     trusting this plan (cross-run traces disagree)"
                ));
            }
        }
    }

    let optimized = Engine::new(cluster, &placement).run(&tasks)?;
    let predicted_plan_cp_bytes = plan_critical_path_bytes(&tasks).0;
    Ok(AutoOutcome {
        baseline,
        optimized,
        applied,
        advisories,
        rejected,
        recommendations,
        predicted_baseline_cp_bytes,
        predicted_plan_cp_bytes,
        plan_scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_vfd::MemFs;
    use dayu_workloads::{ddmd, pyflextrkr};

    #[test]
    fn auto_optimize_ddmd_beats_baseline() {
        let cfg = ddmd::DdmdConfig {
            sim_tasks: 4,
            iterations: 1,
            contact_map_dim: 64,
            point_cloud_points: 128,
            scalar_series_len: 32,
            compute_ns: 1_000_000,
            ..Default::default()
        };
        let fs = MemFs::new();
        let run = dayu_workflow::record(&ddmd::workflow(&cfg), &fs).unwrap();
        let cluster = Cluster::gpu_cluster(2);
        let out = optimize(&run, &cluster).unwrap();
        assert!(
            out.speedup() > 1.0,
            "auto plan should not be slower: {:.2}x\napplied: {:?}",
            out.speedup(),
            out.applied
        );
        assert!(!out.applied.is_empty(), "something was applied");
        // The unused contact_map elimination fired.
        assert!(
            out.applied.iter().any(|a| a.contains("contact_map")),
            "{:?}",
            out.applied
        );
        // Layout advisories are surfaced, not silently dropped.
        assert!(out
            .advisories
            .iter()
            .any(|a| a.contains("layout") || a.contains("consolidate")));
        // Advisor-derived transforms on a clean run all pass verification.
        assert!(out.rejected.is_empty(), "{:?}", out.rejected);
        // The abstract cost model priced the baseline and the candidates.
        assert!(out.predicted_baseline_cp_bytes > 0);
        assert!(out.predicted_plan_cp_bytes > 0);
        assert!(
            out.plan_scores
                .iter()
                .all(|s| s.contains("predicted critical path")),
            "{:?}",
            out.plan_scores
        );
    }

    #[test]
    fn auto_optimize_pyflextrkr_beats_baseline() {
        let cfg = pyflextrkr::PyflextrkrConfig {
            input_files: 4,
            input_bytes: 128 << 10,
            feature_bytes: 64 << 10,
            small_datasets: 12,
            small_dataset_bytes: 300,
            small_dataset_accesses: 3,
            compute_ns: 2_000_000,
        };
        let fs = MemFs::new();
        pyflextrkr::prepare_inputs_untraced(&fs, &cfg).unwrap();
        let run = dayu_workflow::record(&pyflextrkr::workflow(&cfg), &fs).unwrap();
        let cluster = Cluster::gpu_cluster(2);
        let out = optimize(&run, &cluster).unwrap();
        assert!(
            out.speedup() > 1.0,
            "auto plan regressed: {:.2}x\napplied: {:?}",
            out.speedup(),
            out.applied
        );
        assert!(out.rejected.is_empty(), "{:?}", out.rejected);
    }

    #[test]
    fn illegal_transform_is_rejected_not_applied() {
        use dayu_sim::program::{SimOp, SimTask};

        // Drive the same gate optimize() uses with a transform that breaks
        // the producer→consumer order; the plan must be left untouched.
        let mut tasks = vec![
            SimTask::new("producer").with_program(vec![SimOp::write("out.h5", 1 << 20)]),
            SimTask::new("consumer")
                .after(&[0])
                .with_program(vec![SimOp::read("out.h5", 1 << 20)]),
        ];
        let before = tasks.clone();
        let err = verify::verified(&mut tasks, "parallelize", None, None, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap_err();
        assert_eq!(tasks, before);
        assert!(err.to_string().contains("parallelize"), "{err}");
    }

    #[test]
    fn cost_model_rejects_cp_regressing_parallelize() {
        use dayu_sim::program::{SimOp, SimTask};

        // "first" sits downstream of a heavy producer; "second" is an
        // independent writer whose own path is the critical one. The
        // parallelize rewrite makes `second` inherit `first`'s heavy
        // prerequisite, lengthening the byte-weighted critical path — the
        // cost model rejects the plan before the semantics verifier runs.
        let mut tasks = vec![
            SimTask::new("heavy").with_program(vec![SimOp::write("big.h5", 1 << 20)]),
            SimTask::new("first")
                .after(&[0])
                .with_program(vec![SimOp::read("big.h5", 1 << 20)]),
            SimTask::new("second").with_program(vec![SimOp::write("out.h5", 3 << 20)]),
        ];
        let before = tasks.clone();
        let catalog = ExtentCatalog::default();
        let err = cp_gated(&mut tasks, "parallelize", None, &catalog, |t| {
            transform::parallelize(t, "first", "second")
        })
        .unwrap_err();
        assert!(err.contains("critical-path bytes regress"), "{err}");
        assert_eq!(tasks, before, "plan untouched after cost rejection");
    }
}
