//! Pass 2 — the transform semantics-preservation verifier.
//!
//! The optimization transforms (`dayu_workflow::transform`) rewrite a
//! replay plan for speed; none of them may rewrite its *meaning*. The
//! verifier pins that down as two invariants checked across each call:
//!
//! 1. **No new hazards** — the hazard report of the rewritten plan must
//!    not contain findings the original plan did not already have.
//! 2. **No lost orderings** — every (producer, consumer, file)
//!    happens-before edge of the original plan must survive, unless the
//!    transform redirected the consumer away from the file (stage-in
//!    replicas) or removed one endpoint's access entirely.
//!
//! [`verified`] wraps a transform application in snapshot → apply → check
//! and rolls the plan back when the check fails, so an illegal
//! `parallelize(producer, consumer)` leaves the plan untouched.
//!
//! When the snapshot carries a footprint oracle, the check gains
//! address-level precision in both directions: plan-granularity race
//! regressions between tasks whose footprints are provably disjoint
//! are *discharged* (the rewrite is safe even though both touch the
//! file), while regressions whose footprints really collide are upgraded
//! to [`Finding::ExtentRace`] with the offending byte range — proof the
//! rewrite introduces a new extent race. Two oracles exist: the recorded
//! [`ExtentCatalog`] (dynamics — see [`verified_with_extents`]) and the
//! declared [`ContractCatalog`]
//! (semantics — see [`verified_with_contracts`], which needs no recorded
//! trace at all). A snapshot may carry both; contracts are consulted
//! first, recorded extents settle whatever the declarations left open.

use crate::extent::ExtentCatalog;
use crate::hazard::{analyze_sim_tasks, plan_from_sim_tasks, plan_order, Access, LintConfig};
use crate::model::{Finding, FindingKey, Report};
use crate::symbolic::{ContractCatalog, FootprintOracle};
use dayu_sim::program::SimTask;
use std::collections::BTreeSet;
use std::fmt;

/// The hazard/happens-before state of a plan before a transform runs.
#[derive(Clone, Debug)]
pub struct PlanSnapshot {
    /// Structural keys of findings already present before the transform
    /// (pre-existing defects are not the transform's fault).
    baseline: BTreeSet<FindingKey>,
    /// Every (producer, consumer, file) ordering the plan guarantees.
    orderings: BTreeSet<(String, String, String)>,
    cfg: LintConfig,
    /// Recorded per-(task, file) byte extents, when the plan replays a
    /// recorded trace. Enables extent-level refinement in [`check`].
    catalog: Option<ExtentCatalog>,
    /// Declared contract footprints, when the workflow spec carries
    /// [`IoContract`](dayu_workflow::IoContract)s. Consulted before the
    /// recorded catalog.
    contracts: Option<ContractCatalog>,
}

impl PlanSnapshot {
    /// Attaches recorded extent ground truth to the snapshot.
    pub fn with_extents(mut self, catalog: ExtentCatalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Attaches declared contract footprints to the snapshot.
    pub fn with_contracts(mut self, contracts: ContractCatalog) -> Self {
        self.contracts = Some(contracts);
        self
    }
}

/// All (producer, consumer, file) triples where the producer data-writes
/// the file, the consumer reads it, and the producer happens-before the
/// consumer.
fn orderings(tasks: &[SimTask]) -> BTreeSet<(String, String, String)> {
    let plan = plan_from_sim_tasks(tasks);
    let hb = plan_order(&plan);
    let mut out = BTreeSet::new();
    for (c, consumer) in plan.iter().enumerate() {
        let reads: BTreeSet<&str> = consumer
            .accesses
            .iter()
            .filter(|(_, a)| *a == Access::Read)
            .map(|(f, _)| f.as_str())
            .collect();
        if reads.is_empty() {
            continue;
        }
        for p in (0..plan.len()).filter(|&p| hb.happens_before(p, c)) {
            for (f, a) in &plan[p].accesses {
                if *a == Access::Write && reads.contains(f.as_str()) {
                    out.insert((plan[p].name.clone(), consumer.name.clone(), f.clone()));
                }
            }
        }
    }
    out
}

fn reads_file(tasks: &[SimTask], name: &str, file: &str) -> bool {
    plan_from_sim_tasks(tasks).iter().any(|t| {
        t.name == name
            && t.accesses
                .iter()
                .any(|(f, a)| f == file && *a == Access::Read)
    })
}

fn writes_file(tasks: &[SimTask], name: &str, file: &str) -> bool {
    plan_from_sim_tasks(tasks).iter().any(|t| {
        t.name == name
            && t.accesses
                .iter()
                .any(|(f, a)| f == file && *a == Access::Write)
    })
}

/// Snapshots a plan with the default (permissive) hazard config.
pub fn snapshot(tasks: &[SimTask]) -> PlanSnapshot {
    snapshot_with(tasks, LintConfig::default())
}

/// Snapshots a plan with an explicit hazard config.
pub fn snapshot_with(tasks: &[SimTask], cfg: LintConfig) -> PlanSnapshot {
    let report = analyze_sim_tasks(tasks, &cfg);
    PlanSnapshot {
        baseline: report.findings.iter().map(Finding::key).collect(),
        orderings: orderings(tasks),
        cfg,
        catalog: None,
        contracts: None,
    }
}

/// Checks a rewritten plan against its pre-transform snapshot. The report
/// holds only *regressions*: hazards absent from the baseline, plus an
/// [`Finding::OrderingLost`] for every broken producer→consumer edge
/// whose endpoints still access the file.
pub fn check(snap: &PlanSnapshot, after: &[SimTask]) -> Report {
    let mut report = analyze_sim_tasks(after, &snap.cfg);
    report
        .findings
        .retain(|f| !snap.baseline.contains(&f.key()));

    let now = orderings(after);
    for (producer, consumer, file) in snap.orderings.difference(&now) {
        // A redirected read (stage-in replica) or a removed access is a
        // legitimate rewrite; a surviving read/write pair without the
        // edge is a reorder.
        if reads_file(after, consumer, file) && writes_file(after, producer, file) {
            report.push(Finding::OrderingLost {
                file: file.clone(),
                producer: producer.clone(),
                consumer: consumer.clone(),
            });
        }
    }
    // Semantics first, dynamics second: declarations discharge what they
    // can, recorded extents settle the rest.
    if let Some(contracts) = &snap.contracts {
        report = refine_with_oracle(report, contracts);
    }
    if let Some(cat) = &snap.catalog {
        report = refine_with_oracle(report, cat);
    }
    report
}

/// Re-judges plan-granularity race regressions against a footprint
/// oracle — recorded byte extents or declared contract hulls: provably
/// disjoint pairs are discharged; pairs whose footprints collide become
/// [`Finding::ExtentRace`] carrying the byte range (the plan layer knows
/// files, not datasets, so the dataset list stays empty). Tasks the
/// oracle never saw (transform-synthesized stage-in/out copies,
/// undeclared tasks) keep their conservative plan-level finding.
fn refine_with_oracle(report: Report, cat: &dyn FootprintOracle) -> Report {
    let mut refined = Report::new();
    for f in report.findings {
        match &f {
            Finding::WriteWriteRace {
                file,
                first,
                second,
            } => {
                if cat.provably_disjoint(first, second, file) {
                    continue;
                }
                if let Some(x) = cat.collision(first, second, file) {
                    refined.push(Finding::ExtentRace {
                        file: file.clone(),
                        datasets: Vec::new(),
                        first: first.clone(),
                        second: second.clone(),
                        write_write: true,
                        start: x.start,
                        end: x.end,
                    });
                    continue;
                }
                refined.push(f);
            }
            Finding::ReadBeforeWrite {
                file,
                reader,
                writers,
            } => {
                if writers
                    .iter()
                    .all(|w| cat.provably_disjoint(reader, w, file))
                {
                    continue;
                }
                refined.push(f);
            }
            Finding::OrderingLost {
                file,
                producer,
                consumer,
            } => {
                if cat.provably_disjoint(producer, consumer, file) {
                    continue;
                }
                if let Some(x) = cat.collision(producer, consumer, file) {
                    refined.push(Finding::ExtentRace {
                        file: file.clone(),
                        datasets: Vec::new(),
                        first: producer.clone().min(consumer.clone()),
                        second: producer.clone().max(consumer.clone()),
                        write_write: false,
                        start: x.start,
                        end: x.end,
                    });
                    continue;
                }
                refined.push(f);
            }
            _ => refined.push(f),
        }
    }
    refined
}

/// A transform rejected for breaking dataflow semantics.
#[derive(Clone, Debug)]
pub struct SemanticsViolation {
    /// The offending transform (label supplied by the caller).
    pub transform: String,
    /// The regressions it would have introduced.
    pub report: Report,
}

impl fmt::Display for SemanticsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transform {:?} breaks dataflow semantics: {}",
            self.transform,
            self.report
                .findings
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        )
    }
}

impl std::error::Error for SemanticsViolation {}

/// Applies a transform under verification: snapshot, apply, check. On
/// violation the plan is restored to its pre-transform state and the
/// regressions are returned as the error.
pub fn verified<R>(
    tasks: &mut Vec<SimTask>,
    transform: &str,
    apply: impl FnOnce(&mut Vec<SimTask>) -> R,
) -> Result<R, SemanticsViolation> {
    let snap = snapshot(tasks);
    run_verified(snap, tasks, transform, apply)
}

/// [`verified`], refined by recorded byte extents: a rewrite that makes
/// two tasks concurrent is accepted when their recorded extents on the
/// shared file are provably disjoint, and rejected with a
/// [`Finding::ExtentRace`] when they actually collide.
pub fn verified_with_extents<R>(
    tasks: &mut Vec<SimTask>,
    transform: &str,
    catalog: &ExtentCatalog,
    apply: impl FnOnce(&mut Vec<SimTask>) -> R,
) -> Result<R, SemanticsViolation> {
    let snap = snapshot(tasks).with_extents(catalog.clone());
    run_verified(snap, tasks, transform, apply)
}

/// [`verified`], refined by *declared* contract footprints alone: a
/// rewrite that makes two tasks concurrent is accepted when their
/// declared extents on the shared file are provably disjoint — no
/// recorded trace required. The static half of the paper's
/// semantics+dynamics split.
pub fn verified_with_contracts<R>(
    tasks: &mut Vec<SimTask>,
    transform: &str,
    contracts: &ContractCatalog,
    apply: impl FnOnce(&mut Vec<SimTask>) -> R,
) -> Result<R, SemanticsViolation> {
    let snap = snapshot(tasks).with_contracts(contracts.clone());
    run_verified(snap, tasks, transform, apply)
}

/// [`verified`] with both oracles: declared contracts are consulted
/// first, recorded extents second. Either may be absent.
pub fn verified_with_oracles<R>(
    tasks: &mut Vec<SimTask>,
    transform: &str,
    contracts: Option<&ContractCatalog>,
    catalog: Option<&ExtentCatalog>,
    apply: impl FnOnce(&mut Vec<SimTask>) -> R,
) -> Result<R, SemanticsViolation> {
    let mut snap = snapshot(tasks);
    if let Some(c) = contracts {
        snap = snap.with_contracts(c.clone());
    }
    if let Some(c) = catalog {
        snap = snap.with_extents(c.clone());
    }
    run_verified(snap, tasks, transform, apply)
}

fn run_verified<R>(
    snap: PlanSnapshot,
    tasks: &mut Vec<SimTask>,
    transform: &str,
    apply: impl FnOnce(&mut Vec<SimTask>) -> R,
) -> Result<R, SemanticsViolation> {
    let saved = tasks.clone();
    let out = apply(tasks);
    let report = check(&snap, tasks);
    if report.is_clean() {
        Ok(out)
    } else {
        *tasks = saved;
        Err(SemanticsViolation {
            transform: transform.to_owned(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_sim::cluster::Placement;
    use dayu_sim::program::SimOp;
    use dayu_sim::tiers::TierKind;
    use dayu_workflow::transform;

    fn chain() -> Vec<SimTask> {
        vec![
            SimTask::new("producer").with_program(vec![SimOp::write("f.h5", 1 << 20)]),
            SimTask::new("consumer")
                .after(&[0])
                .with_program(vec![SimOp::read("f.h5", 1 << 20)]),
        ]
    }

    #[test]
    fn co_schedule_is_semantics_preserving() {
        let mut tasks = chain();
        verified(&mut tasks, "co_schedule", |t| {
            transform::co_schedule(t, "producer", "consumer")
        })
        .unwrap();
        assert_eq!(tasks[1].node, tasks[0].node);
    }

    #[test]
    fn stage_in_is_semantics_preserving() {
        let mut tasks = chain();
        let mut placement = Placement::new();
        let staged = verified(&mut tasks, "stage_in", |t| {
            transform::stage_in(t, &mut placement, "f.h5", 1 << 20, 0, TierKind::NvmeSsd)
        })
        .unwrap();
        assert_eq!(staged, "f.h5@node0");
        assert_eq!(tasks.len(), 3);
    }

    #[test]
    fn stage_out_is_semantics_preserving() {
        let mut tasks = chain();
        verified(&mut tasks, "stage_out_async", |t| {
            transform::stage_out_async(t, "f.h5", 1 << 20, 0)
        })
        .unwrap();
        assert_eq!(tasks.len(), 3);
    }

    #[test]
    fn illegal_parallelize_is_rejected_and_rolled_back() {
        let mut tasks = chain();
        let before = tasks.clone();
        let err = verified(&mut tasks, "parallelize", |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap_err();
        assert_eq!(tasks, before, "plan restored on rejection");
        assert!(
            err.report.findings.iter().any(|f| matches!(
                f,
                Finding::OrderingLost { .. } | Finding::ReadBeforeWrite { .. }
            )),
            "{err}"
        );
        assert!(err.to_string().contains("parallelize"));
    }

    #[test]
    fn legal_parallelize_is_accepted() {
        // infer does not read train's output, only the shared input both
        // wait for — removing the barrier between them is safe.
        let mut tasks = vec![
            SimTask::new("sims").with_program(vec![SimOp::write("traj", 100)]),
            SimTask::new("train")
                .after(&[0])
                .with_program(vec![SimOp::read("traj", 100), SimOp::write("model", 10)]),
            SimTask::new("infer")
                .after(&[1])
                .with_program(vec![SimOp::read("traj", 100)]),
        ];
        verified(&mut tasks, "parallelize", |t| {
            transform::parallelize(t, "train", "infer")
        })
        .unwrap();
        assert_eq!(tasks[2].deps, vec![0], "inherited the data dependency");
    }

    /// A catalog where `producer` wrote and `consumer` read the given
    /// ranges of `f.h5`.
    fn catalog(write: (u64, u64), read: (u64, u64)) -> ExtentCatalog {
        use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
        use dayu_trace::{FileKey, ObjectKey, TaskKey, Timestamp};
        let mut b = dayu_trace::TraceBundle::new("wf");
        let mut op = |task: &str, kind: IoKind, (offset, len): (u64, u64)| {
            b.vfd.push(VfdRecord {
                task: TaskKey::new(task),
                file: FileKey::new("f.h5"),
                kind,
                offset,
                len,
                access: AccessType::RawData,
                object: ObjectKey::new("/d"),
                start: Timestamp(0),
                end: Timestamp(1),
            });
        };
        op("producer", IoKind::Write, write);
        op("consumer", IoKind::Read, read);
        ExtentCatalog::from_bundle(&b)
    }

    #[test]
    fn disjoint_recorded_extents_discharge_a_parallelize() {
        // Plan-level, producer→consumer on f.h5 looks like a dependency;
        // the recorded extents show the consumer reads a disjoint region,
        // so breaking the barrier is provably safe.
        let mut tasks = chain();
        let cat = catalog((0, 100), (4096, 100));
        verified_with_extents(&mut tasks, "parallelize", &cat, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap();
        assert!(tasks[1].deps.is_empty());
    }

    #[test]
    fn colliding_recorded_extents_reject_as_extent_race() {
        let mut tasks = chain();
        let before = tasks.clone();
        let cat = catalog((0, 100), (50, 100));
        let err = verified_with_extents(&mut tasks, "parallelize", &cat, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap_err();
        assert_eq!(tasks, before, "plan restored on rejection");
        assert!(
            err.report.findings.iter().any(|f| matches!(
                f,
                Finding::ExtentRace {
                    start: 50,
                    end: 100,
                    ..
                }
            )),
            "{err}"
        );
    }

    /// A contract catalog where `producer` declares writes of one span
    /// and `consumer` declares reads of another, on `f.h5:/d`.
    fn contracts(write: (u64, u64), read: (u64, u64)) -> ContractCatalog {
        use dayu_workflow::contract::{IoContract, SymExtent};
        use dayu_workflow::spec::TaskSpec;
        use dayu_workflow::WorkflowSpec;
        let spec =
            WorkflowSpec::new("wf")
                .stage(
                    "p",
                    vec![TaskSpec::new("producer", |_| Ok(())).with_contract(
                        IoContract::new().writes("f.h5", "/d", SymExtent::bytes(write.0, write.1)),
                    )],
                )
                .stage(
                    "c",
                    vec![TaskSpec::new("consumer", |_| Ok(())).with_contract(
                        IoContract::new().reads("f.h5", "/d", SymExtent::bytes(read.0, read.1)),
                    )],
                );
        ContractCatalog::from_spec(&spec)
    }

    #[test]
    fn disjoint_declared_contracts_discharge_a_parallelize() {
        // No trace was ever recorded — the declarations alone prove the
        // consumer reads a region the producer never writes.
        let mut tasks = chain();
        let cat = contracts((0, 100), (4096, 4196));
        verified_with_contracts(&mut tasks, "parallelize", &cat, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap();
        assert!(tasks[1].deps.is_empty());
    }

    #[test]
    fn colliding_declared_contracts_reject_as_extent_race() {
        let mut tasks = chain();
        let before = tasks.clone();
        let cat = contracts((0, 100), (50, 150));
        let err = verified_with_contracts(&mut tasks, "parallelize", &cat, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .unwrap_err();
        assert_eq!(tasks, before, "plan restored on rejection");
        assert!(
            err.report.findings.iter().any(|f| matches!(
                f,
                Finding::ExtentRace {
                    start: 50,
                    end: 100,
                    ..
                }
            )),
            "{err}"
        );
    }

    #[test]
    fn contracts_first_then_recorded_extents() {
        // Contracts are silent about these tasks; the recorded catalog
        // must still discharge the rewrite.
        let mut tasks = chain();
        let declared = ContractCatalog::default();
        let recorded = catalog((0, 100), (4096, 100));
        verified_with_oracles(
            &mut tasks,
            "parallelize",
            Some(&declared),
            Some(&recorded),
            |t| transform::parallelize(t, "producer", "consumer"),
        )
        .unwrap();
        assert!(tasks[1].deps.is_empty());
    }

    #[test]
    fn unknown_tasks_keep_the_conservative_plan_verdict() {
        // The catalog never saw these tasks, so extents prove nothing and
        // the plan-level rejection must stand.
        let mut tasks = chain();
        let cat = ExtentCatalog::default();
        assert!(verified_with_extents(&mut tasks, "parallelize", &cat, |t| {
            transform::parallelize(t, "producer", "consumer")
        })
        .is_err());
    }

    #[test]
    fn preexisting_hazards_are_not_blamed_on_the_transform() {
        // The plan already races; a harmless transform must still pass.
        let mut tasks = vec![
            SimTask::new("w1").with_program(vec![SimOp::write("shared", 1)]),
            SimTask::new("w2").with_program(vec![SimOp::write("shared", 1)]),
        ];
        verified(&mut tasks, "co_schedule", |t| {
            transform::co_schedule(t, "w1", "w2")
        })
        .unwrap();
    }
}
