//! Pass 1 — the static dataflow-hazard analyzer.
//!
//! DaYu decodes *who* produces and consumes each dataset and *in what
//! order*; this pass checks that a plan's dependency structure actually
//! guarantees that order before anything runs. It works on two inputs:
//!
//! * **Plans** — `SimTask` sets (replayed traces, possibly rewritten by
//!   `transform::*`) or `WorkflowSpec`s with declared access sets. Hazards
//!   are judged against the happens-before relation induced by task
//!   dependencies: two accesses conflict when neither task is an ancestor
//!   of the other.
//! * **Trace bundles** — recorded `.dtb` runs, streamed through
//!   [`TraceChecker`].
//!   When the trace recorded stage membership, conflicts are judged
//!   against the real happens-before relation ([`crate::hb`]) at byte
//!   -extent granularity ([`crate::extent`]): only *concurrent* tasks
//!   whose raw-data extents actually overlap race; disjoint-extent
//!   concurrency — the safe chunk-parallel pattern — is deliberately not
//!   a finding. Stage-less traces (older recordings) fall back to the
//!   wall-clock heuristics: overlapping write intervals race, whole-file.
//!
//! The detected hazards: write-write races between concurrently
//! schedulable tasks, extent-level races in recorded runs, reads with no
//! ordered producer (read-before-write), reads of disposable data after
//! its stage-out task, references to files nothing produces, and the
//! dataset-lifetime class ([`crate::lifetime`]).

use crate::extent::{Extent, IntervalTree};
use crate::hb::TaskHb;
use crate::lifetime::LifetimePass;
use crate::model::{Finding, Report};
use dayu_sim::program::{IoDir, SimOp, SimTask};
use dayu_trace::store::{RecordSink, TraceBundle, TraceMeta};
use dayu_trace::vfd::{AccessType, FileRecord, IoKind, VfdRecord};
use dayu_trace::vol::VolRecord;
use dayu_trace::{FileKey, ObjectKey, SymbolMap, TaskKey};
use dayu_workflow::WorkflowSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead};

/// Direction of a declared or extracted dataset access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Access {
    /// The task reads the file.
    Read,
    /// The task writes the file's data.
    Write,
}

/// A task as the analyzer sees it: a name, dependency edges, and an
/// ordered file-access list.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanTask {
    /// Task name.
    pub name: String,
    /// Indices of tasks that must finish first.
    pub deps: Vec<usize>,
    /// File accesses in program order.
    pub accesses: Vec<(String, Access)>,
}

/// Declared access sets for one task of a `WorkflowSpec` (specs carry
/// opaque I/O closures, so accesses must be declared to lint them).
#[derive(Clone, Debug, Default)]
pub struct AccessDecl {
    /// Files the task reads.
    pub reads: Vec<String>,
    /// Files the task writes.
    pub writes: Vec<String>,
}

/// Analyzer configuration.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Files that exist before the plan starts (inputs produced outside
    /// it). `None` disables the dangling-file check entirely: any file
    /// without an in-plan producer is assumed external. `Some(set)` makes
    /// reads of producer-less files outside the set a
    /// [`Finding::DanglingFileRef`].
    pub external_inputs: Option<BTreeSet<String>>,
    /// Opt-in for the *waste* finding class ([`Finding::DeadDataset`],
    /// [`Finding::RedundantOverwrite`]). Off by default: a workflow's
    /// final outputs are legitimately never read back, so waste findings
    /// are advisory (they feed the advisor's dataset-elision suggestions)
    /// rather than defects.
    pub report_dead_data: bool,
}

/// Extracts the analyzer's view of a replay job. Writes count only when
/// they move data (metadata-only writes — superblock updates by readers,
/// say — are structural, not production), matching `producers_of` in the
/// workflow crate; reads count regardless of access type.
pub fn plan_from_sim_tasks(tasks: &[SimTask]) -> Vec<PlanTask> {
    tasks
        .iter()
        .map(|t| PlanTask {
            name: t.name.clone(),
            deps: t.deps.clone(),
            accesses: t
                .program
                .iter()
                .filter_map(|op| match op {
                    SimOp::Io {
                        file,
                        dir: IoDir::Read,
                        ..
                    } => Some((file.clone(), Access::Read)),
                    SimOp::Io {
                        file,
                        dir: IoDir::Write,
                        metadata: false,
                        ..
                    } => Some((file.clone(), Access::Write)),
                    _ => None,
                })
                .collect(),
        })
        .collect()
}

/// Builds the analyzer's view of a staged spec from declared access sets
/// (`decls` maps task name → declaration; undeclared tasks lint as doing
/// no I/O). Dependencies are the spec's stage barriers: every task of
/// stage *i* depends on every task of stage *i-1*.
pub fn plan_from_spec(spec: &WorkflowSpec, decls: &BTreeMap<String, AccessDecl>) -> Vec<PlanTask> {
    let mut plan = Vec::with_capacity(spec.task_count());
    let mut prev_stage: Vec<usize> = Vec::new();
    for stage in &spec.stages {
        let start = plan.len();
        for task in &stage.tasks {
            let mut accesses = Vec::new();
            if let Some(decl) = decls.get(&task.name) {
                for f in &decl.reads {
                    accesses.push((f.clone(), Access::Read));
                }
                for f in &decl.writes {
                    accesses.push((f.clone(), Access::Write));
                }
            }
            plan.push(PlanTask {
                name: task.name.clone(),
                deps: prev_stage.clone(),
                accesses,
            });
        }
        prev_stage = (start..plan.len()).collect();
    }
    plan
}

/// The plan's task order: task `a` happens-before task `b` when `b`
/// depends on `a`, directly or transitively.
pub(crate) fn plan_order(plan: &[PlanTask]) -> TaskHb {
    let deps: Vec<(&str, Vec<usize>)> = plan
        .iter()
        .map(|t| (t.name.as_str(), t.deps.clone()))
        .collect();
    TaskHb::from_deps(&deps)
}

/// Position of the first read and first write of `file` in a task's
/// access list, if any.
fn first_access(task: &PlanTask, file: &str) -> (Option<usize>, Option<usize>) {
    let mut first_read = None;
    let mut first_write = None;
    for (pos, (f, access)) in task.accesses.iter().enumerate() {
        if f != file {
            continue;
        }
        match access {
            Access::Read if first_read.is_none() => first_read = Some(pos),
            Access::Write if first_write.is_none() => first_write = Some(pos),
            _ => {}
        }
    }
    (first_read, first_write)
}

/// Whether `task` consumes `file`: it reads the file before (or without)
/// writing it itself. A task that writes first and reads its own output
/// back is a producer, not a consumer.
fn consumes(task: &PlanTask, file: &str) -> bool {
    match first_access(task, file) {
        (Some(r), Some(w)) => r < w,
        (Some(_), None) => true,
        _ => false,
    }
}

/// The file a disposal task (`stage_out:<file>` / `drop:<file>`) retires,
/// if the task is one.
fn disposed_file(name: &str) -> Option<&str> {
    name.strip_prefix("stage_out:")
        .or_else(|| name.strip_prefix("drop:"))
}

/// Runs the hazard analysis over a plan.
pub fn analyze_plan(plan: &[PlanTask], cfg: &LintConfig) -> Report {
    let mut report = Report::new();
    let hb = plan_order(plan);
    let ordered = |before: usize, after: usize| hb.happens_before(before, after);

    // Per-file writer and reader index lists, in task order.
    let mut writers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut readers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, task) in plan.iter().enumerate() {
        let mut seen: BTreeSet<(&str, Access)> = BTreeSet::new();
        for (f, access) in &task.accesses {
            if !seen.insert((f.as_str(), *access)) {
                continue;
            }
            match access {
                Access::Write => writers.entry(f.as_str()).or_default().push(i),
                Access::Read => readers.entry(f.as_str()).or_default().push(i),
            }
        }
    }

    // Write-write races: unordered pairs of distinct writers.
    for (file, ws) in &writers {
        for (a_pos, &a) in ws.iter().enumerate() {
            for &b in &ws[a_pos + 1..] {
                if !ordered(a, b) && !ordered(b, a) {
                    let (first, second) = if plan[a].name <= plan[b].name {
                        (plan[a].name.clone(), plan[b].name.clone())
                    } else {
                        (plan[b].name.clone(), plan[a].name.clone())
                    };
                    report.push(Finding::WriteWriteRace {
                        file: (*file).to_owned(),
                        first,
                        second,
                    });
                }
            }
        }
    }

    // Read-before-write and dangling references.
    for (file, rs) in &readers {
        let ws = writers.get(file).map(Vec::as_slice).unwrap_or_default();
        for &r in rs {
            if !consumes(&plan[r], file) {
                continue;
            }
            let foreign: Vec<usize> = ws.iter().copied().filter(|&w| w != r).collect();
            if foreign.is_empty() {
                if let Some(inputs) = &cfg.external_inputs {
                    if !inputs.contains(*file) {
                        report.push(Finding::DanglingFileRef {
                            file: (*file).to_owned(),
                            reader: plan[r].name.clone(),
                        });
                    }
                }
            } else if !foreign.iter().any(|&w| ordered(w, r)) {
                report.push(Finding::ReadBeforeWrite {
                    file: (*file).to_owned(),
                    reader: plan[r].name.clone(),
                    writers: foreign.iter().map(|&w| plan[w].name.clone()).collect(),
                });
            }
        }
    }

    // Use-after-dispose: a reader ordered after the file's disposal task.
    for (d, task) in plan.iter().enumerate() {
        let Some(file) = disposed_file(&task.name) else {
            continue;
        };
        let Some(rs) = readers.get(file) else {
            continue;
        };
        for &r in rs {
            if r != d && ordered(d, r) {
                report.push(Finding::UseAfterDispose {
                    file: file.to_owned(),
                    reader: plan[r].name.clone(),
                    disposer: task.name.clone(),
                });
            }
        }
    }

    report
}

/// [`analyze_plan`] over a replay job.
pub fn analyze_sim_tasks(tasks: &[SimTask], cfg: &LintConfig) -> Report {
    analyze_plan(&plan_from_sim_tasks(tasks), cfg)
}

/// [`analyze_plan`] over a staged spec with declared access sets.
pub fn analyze_spec(
    spec: &WorkflowSpec,
    decls: &BTreeMap<String, AccessDecl>,
    cfg: &LintConfig,
) -> Report {
    analyze_plan(&plan_from_spec(spec, decls), cfg)
}

/// Raw-data extents one task accumulated in one file, with the dataset
/// each op was attributed to.
#[derive(Default)]
struct RawAccess {
    writes: Vec<(Extent, ObjectKey)>,
    reads: Vec<(Extent, ObjectKey)>,
}

/// What one task did to one file.
#[derive(Default)]
struct FileAccess {
    /// Write interval [min start, max end], any access type — writer
    /// existence and the wall-clock fallback.
    write_span: Option<(u64, u64)>,
    /// Earliest read start.
    first_read: Option<u64>,
    /// Raw-data extents, for the happens-before path.
    raw: RawAccess,
}

/// The tasks that read or wrote one file, in task-name order.
type FileGroup<'a> = [(&'a FileKey, &'a TaskKey, &'a FileAccess)];

/// Streaming trace detector: implements [`RecordSink`], so it lints a
/// `.dtb` trace — million-record stores included — without
/// materializing a [`TraceBundle`]. Feed it through
/// [`TraceBundle::stream`] (or [`analyze_stream`]) and call
/// [`TraceChecker::finish`].
///
/// Per-record state is keyed by interned symbols, so folding a record is
/// a few integer-hash probes; [`TraceChecker::finish`] applies name order
/// once, which keeps every report independent of interning order.
pub struct TraceChecker {
    cfg: LintConfig,
    stages: Vec<Vec<TaskKey>>,
    /// Per task: records folded so far, its program-order position.
    seq: SymbolMap<TaskKey, u64>,
    /// Per (file, task) that read or wrote the file.
    files: SymbolMap<(FileKey, TaskKey), FileAccess>,
    lifetime: LifetimePass,
}

impl TraceChecker {
    /// A fresh detector.
    pub fn new(cfg: LintConfig) -> Self {
        Self {
            cfg,
            stages: Vec::new(),
            seq: SymbolMap::default(),
            files: SymbolMap::default(),
            lifetime: LifetimePass::new(),
        }
    }

    /// Adopts recorded stage membership (first section that has any wins,
    /// as in `TraceMeta::merge`).
    fn note_stages(&mut self, stages: Vec<Vec<TaskKey>>) {
        if self.stages.is_empty() {
            self.stages = stages;
        }
    }

    /// Folds one I/O record into the detector.
    pub fn op(&mut self, r: &VfdRecord) {
        let seq = self.seq.entry(r.task.clone()).or_insert(0);
        let my_seq = *seq;
        *seq += 1;
        self.lifetime.op(r, my_seq);
        let write = match r.kind {
            IoKind::Write => true,
            IoKind::Read => false,
            _ => return,
        };
        let acc = self
            .files
            .entry((r.file.clone(), r.task.clone()))
            .or_default();
        let extents = if write {
            let span = acc.write_span.get_or_insert((r.start.0, r.end.0));
            span.0 = span.0.min(r.start.0);
            span.1 = span.1.max(r.end.0);
            &mut acc.raw.writes
        } else {
            let first = acc.first_read.get_or_insert(r.start.0);
            *first = (*first).min(r.start.0);
            &mut acc.raw.reads
        };
        if r.access == AccessType::RawData {
            extents.push((Extent::of(r.offset, r.len), r.object.clone()));
        }
    }

    /// Runs the end-of-trace analyses and returns the combined report.
    pub fn finish(self) -> Report {
        let mut report = Report::new();
        let hb = (!self.stages.is_empty()).then(|| {
            let names: Vec<Vec<&str>> = self
                .stages
                .iter()
                .map(|s| s.iter().map(TaskKey::as_str).collect())
                .collect();
            TaskHb::from_stages(&names)
        });
        // Name order, applied once: files by name, each file's tasks by
        // name.
        let mut sorted: Vec<_> = self.files.iter().map(|((f, t), a)| (f, t, a)).collect();
        sorted.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let by_file: Vec<&FileGroup<'_>> = sorted.chunk_by(|a, b| a.0 == b.0).collect();
        match &hb {
            Some(hb) => Self::extent_races(&by_file, hb, &mut report),
            None => Self::timestamp_races(&by_file, &mut report),
        }
        self.reads_without_producer(&by_file, hb.is_some(), &mut report);
        report.merge(self.lifetime.finish(hb.as_ref(), self.cfg.report_dead_data));
        report
    }

    /// Happens-before + extent path: for each file, every concurrent task
    /// pair is probed for overlapping raw extents through an interval
    /// tree over one side's writes. Tasks the stage map does not cover
    /// are skipped — their order (and hence any race) is unprovable.
    fn extent_races(by_file: &[&FileGroup<'_>], hb: &TaskHb, report: &mut Report) {
        for group in by_file {
            let tasks: Vec<(&TaskKey, &RawAccess)> = group
                .iter()
                .filter(|(_, _, acc)| !acc.raw.writes.is_empty() || !acc.raw.reads.is_empty())
                .map(|&(_, task, acc)| (task, &acc.raw))
                .collect();
            let write_trees: Vec<IntervalTree<&ObjectKey>> = tasks
                .iter()
                .map(|(_, raw)| {
                    IntervalTree::build(raw.writes.iter().map(|(e, o)| (*e, o)).collect())
                })
                .collect();
            // (first, second, write_write) → widest overlap + datasets.
            type Hit = (u64, u64, BTreeSet<String>);
            let mut hits: BTreeMap<(&str, &str, bool), Hit> = BTreeMap::new();
            for (i, &(a, xa)) in tasks.iter().enumerate() {
                for (jo, &(b, xb)) in tasks[i + 1..].iter().enumerate() {
                    let j = i + 1 + jo;
                    let (Some(ia), Some(ib)) = (hb.task(a.as_str()), hb.task(b.as_str())) else {
                        continue;
                    };
                    if !hb.concurrent(ia, ib) {
                        continue;
                    }
                    // Tasks are in name order, so a < b lexicographically.
                    let mut note = |overlap: Extent, o1: &ObjectKey, o2: &ObjectKey, ww: bool| {
                        let hit = hits.entry((a.as_str(), b.as_str(), ww)).or_insert((
                            u64::MAX,
                            0,
                            BTreeSet::new(),
                        ));
                        hit.0 = hit.0.min(overlap.start);
                        hit.1 = hit.1.max(overlap.end);
                        hit.2.insert(o1.as_str().to_owned());
                        hit.2.insert(o2.as_str().to_owned());
                    };
                    for (e, obj) in &xb.writes {
                        write_trees[i].for_each_overlap(*e, |se, so| {
                            if let Some(x) = se.intersection(e) {
                                note(x, so, obj, true);
                            }
                        });
                    }
                    for (e, obj) in &xb.reads {
                        write_trees[i].for_each_overlap(*e, |se, so| {
                            if let Some(x) = se.intersection(e) {
                                note(x, so, obj, false);
                            }
                        });
                    }
                    for (e, obj) in &xa.reads {
                        write_trees[j].for_each_overlap(*e, |se, so| {
                            if let Some(x) = se.intersection(e) {
                                note(x, so, obj, false);
                            }
                        });
                    }
                }
            }
            let file = group[0].0;
            for ((first, second, write_write), (start, end, datasets)) in hits {
                report.push(Finding::ExtentRace {
                    file: file.as_str().to_owned(),
                    datasets: datasets.into_iter().collect(),
                    first: first.to_owned(),
                    second: second.to_owned(),
                    write_write,
                    start,
                    end,
                });
            }
        }
    }

    /// Wall-clock fallback for stage-less traces: two data writes of one
    /// file from different tasks whose observed intervals overlap raced.
    fn timestamp_races(by_file: &[&FileGroup<'_>], report: &mut Report) {
        for group in by_file {
            let spans: Vec<(&TaskKey, u64, u64)> = group
                .iter()
                .filter_map(|&(_, task, acc)| acc.write_span.map(|(s, e)| (task, s, e)))
                .collect();
            for (a_pos, &(a, a_start, a_end)) in spans.iter().enumerate() {
                for &(b, b_start, b_end) in &spans[a_pos + 1..] {
                    if a_start < b_end && b_start < a_end {
                        let (first, second) = if a <= b { (a, b) } else { (b, a) };
                        report.push(Finding::WriteWriteRace {
                            file: group[0].0.as_str().to_owned(),
                            first: first.as_str().to_owned(),
                            second: second.as_str().to_owned(),
                        });
                    }
                }
            }
        }
    }

    /// Dangling references (both modes) and, in wall-clock mode only, the
    /// file-level read-before-write heuristic (the happens-before path
    /// judges reads at dataset granularity instead, via the lifetime
    /// pass).
    fn reads_without_producer(
        &self,
        by_file: &[&FileGroup<'_>],
        hb_mode: bool,
        report: &mut Report,
    ) {
        for group in by_file {
            let writers: Vec<(&TaskKey, u64)> = group
                .iter()
                .filter_map(|&(_, task, acc)| Some((task, acc.write_span?.0)))
                .collect();
            for &(file, task, acc) in *group {
                let Some(read_start) = acc.first_read else {
                    continue;
                };
                if writers.is_empty() {
                    if let Some(inputs) = &self.cfg.external_inputs {
                        if !inputs.contains(file.as_str()) {
                            report.push(Finding::DanglingFileRef {
                                file: file.as_str().to_owned(),
                                reader: task.as_str().to_owned(),
                            });
                        }
                    }
                    continue;
                }
                if hb_mode {
                    continue;
                }
                if !writers.iter().any(|&(_, start)| start <= read_start) {
                    report.push(Finding::ReadBeforeWrite {
                        file: file.as_str().to_owned(),
                        reader: task.as_str().to_owned(),
                        writers: writers
                            .iter()
                            .map(|&(t, _)| t.as_str().to_owned())
                            .collect(),
                    });
                }
            }
        }
    }
}

impl RecordSink for TraceChecker {
    fn meta(&mut self, meta: TraceMeta) -> io::Result<()> {
        self.note_stages(meta.stages);
        Ok(())
    }

    fn vol(&mut self, _rec: VolRecord) -> io::Result<()> {
        Ok(())
    }

    fn vfd(&mut self, rec: VfdRecord) -> io::Result<()> {
        self.op(&rec);
        Ok(())
    }

    fn file(&mut self, _rec: FileRecord) -> io::Result<()> {
        Ok(())
    }
}

/// Hazard analysis over a recorded trace bundle, via [`TraceChecker`].
/// Bundles that recorded stage membership get extent-level happens-before
/// race detection plus the dataset-lifetime checks; stage-less bundles
/// fall back to whole-file wall-clock heuristics.
pub fn analyze_bundle(bundle: &TraceBundle, cfg: &LintConfig) -> Report {
    let mut checker = TraceChecker::new(cfg.clone());
    checker.note_stages(bundle.meta.stages.clone());
    for r in &bundle.vfd {
        checker.op(r);
    }
    checker.finish()
}

/// Streams a `.dtb` trace straight into the detector — no intermediate
/// [`TraceBundle`] — and returns the report plus the number of data
/// records linted.
pub fn analyze_stream<R: BufRead>(r: R, cfg: &LintConfig) -> io::Result<(Report, u64)> {
    let mut checker = TraceChecker::new(cfg.clone());
    let records = TraceBundle::stream(r, &mut checker)?;
    Ok((checker.finish(), records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_sim::program::SimOp;
    use dayu_trace::Timestamp;

    fn task(name: &str, deps: &[usize], program: Vec<SimOp>) -> SimTask {
        SimTask::new(name).after(deps).with_program(program)
    }

    #[test]
    fn ordered_chain_is_clean() {
        let tasks = vec![
            task("producer", &[], vec![SimOp::write("f", 10)]),
            task("consumer", &[0], vec![SimOp::read("f", 10)]),
        ];
        assert!(analyze_sim_tasks(&tasks, &LintConfig::default()).is_clean());
    }

    #[test]
    fn concurrent_writers_race() {
        let tasks = vec![
            task("w1", &[], vec![SimOp::write("shared", 10)]),
            task("w2", &[], vec![SimOp::write("shared", 10)]),
        ];
        let report = analyze_sim_tasks(&tasks, &LintConfig::default());
        assert_eq!(report.len(), 1);
        assert!(matches!(
            &report.findings[0],
            Finding::WriteWriteRace { file, first, second }
                if file == "shared" && first == "w1" && second == "w2"
        ));
    }

    #[test]
    fn ordered_writers_do_not_race() {
        let tasks = vec![
            task("w1", &[], vec![SimOp::write("shared", 10)]),
            task("mid", &[0], vec![SimOp::compute(1)]),
            task("w2", &[1], vec![SimOp::write("shared", 10)]),
        ];
        assert!(analyze_sim_tasks(&tasks, &LintConfig::default()).is_clean());
    }

    #[test]
    fn unordered_read_is_read_before_write() {
        let tasks = vec![
            task("producer", &[], vec![SimOp::write("f", 10)]),
            task("eager", &[], vec![SimOp::read("f", 10)]),
        ];
        let report = analyze_sim_tasks(&tasks, &LintConfig::default());
        assert_eq!(report.len(), 1);
        assert!(matches!(
            &report.findings[0],
            Finding::ReadBeforeWrite { reader, .. } if reader == "eager"
        ));
    }

    #[test]
    fn self_write_then_read_is_production_not_consumption() {
        let tasks = vec![task(
            "scratch",
            &[],
            vec![SimOp::write("tmp", 10), SimOp::read("tmp", 10)],
        )];
        let cfg = LintConfig {
            external_inputs: Some(Default::default()),
            ..LintConfig::default()
        };
        assert!(analyze_sim_tasks(&tasks, &cfg).is_clean());
    }

    #[test]
    fn dangling_reference_needs_declared_inputs() {
        let tasks = vec![task("r", &[], vec![SimOp::read("mystery", 10)])];
        // Without declared inputs, producer-less files are assumed external.
        assert!(analyze_sim_tasks(&tasks, &LintConfig::default()).is_clean());
        // With a declared input set that lacks the file, the read dangles.
        let cfg = LintConfig {
            external_inputs: Some(["known".to_owned()].into()),
            ..LintConfig::default()
        };
        let report = analyze_sim_tasks(&tasks, &cfg);
        assert_eq!(report.len(), 1);
        assert!(matches!(
            &report.findings[0],
            Finding::DanglingFileRef { file, .. } if file == "mystery"
        ));
    }

    #[test]
    fn read_after_stage_out_is_use_after_dispose() {
        let tasks = vec![
            task("producer", &[], vec![SimOp::write("f", 10)]),
            task(
                "stage_out:f",
                &[0],
                vec![SimOp::read("f", 10), SimOp::write("f@archive", 10)],
            ),
            task("late", &[1], vec![SimOp::read("f", 10)]),
        ];
        let report = analyze_sim_tasks(&tasks, &LintConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::UseAfterDispose { reader, .. } if reader == "late")));
    }

    #[test]
    fn metadata_writes_do_not_produce() {
        use dayu_sim::program::IoDir;
        // A reader that bumps metadata (superblock rewrite) must not count
        // as a producer racing other readers.
        let tasks = vec![
            task("w", &[], vec![SimOp::write("f", 10)]),
            task(
                "r1",
                &[0],
                vec![SimOp::read("f", 10), SimOp::metadata("f", IoDir::Write, 64)],
            ),
            task(
                "r2",
                &[0],
                vec![SimOp::read("f", 10), SimOp::metadata("f", IoDir::Write, 64)],
            ),
        ];
        assert!(analyze_sim_tasks(&tasks, &LintConfig::default()).is_clean());
    }

    #[test]
    fn spec_plan_uses_stage_barriers() {
        use dayu_workflow::TaskSpec;
        let spec = WorkflowSpec::new("wf")
            .stage("produce", vec![TaskSpec::new("p", |_| Ok(()))])
            .stage("consume", vec![TaskSpec::new("c", |_| Ok(()))]);
        let mut decls = BTreeMap::new();
        decls.insert(
            "p".to_owned(),
            AccessDecl {
                reads: vec![],
                writes: vec!["f".to_owned()],
            },
        );
        decls.insert(
            "c".to_owned(),
            AccessDecl {
                reads: vec!["f".to_owned()],
                writes: vec![],
            },
        );
        assert!(analyze_spec(&spec, &decls, &LintConfig::default()).is_clean());

        // Same accesses within one stage: the barrier no longer orders
        // them, so the read has no ordered producer.
        let flat = WorkflowSpec::new("wf").stage(
            "both",
            vec![
                TaskSpec::new("p", |_| Ok(())),
                TaskSpec::new("c", |_| Ok(())),
            ],
        );
        let report = analyze_spec(&flat, &decls, &LintConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::ReadBeforeWrite { .. })));
    }

    // ---- trace-level detector ----

    fn vfd(
        task: &str,
        file: &str,
        kind: IoKind,
        offset: u64,
        len: u64,
        access: AccessType,
        object: &str,
    ) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            kind,
            offset,
            len,
            access,
            object: ObjectKey::new(object),
            start: Timestamp(0),
            end: Timestamp(100), // all ops wall-clock-overlap on purpose
        }
    }

    fn staged_bundle(stages: &[&[&str]]) -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        b.meta.stages = stages
            .iter()
            .map(|s| s.iter().map(|t| TaskKey::new(*t)).collect())
            .collect();
        b
    }

    #[test]
    fn concurrent_overlapping_writes_are_an_extent_race() {
        let mut b = staged_bundle(&[&["a", "b"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        b.vfd.push(vfd(
            "b",
            "f.h5",
            IoKind::Write,
            50,
            100,
            AccessType::RawData,
            "/y",
        ));
        let report = analyze_bundle(&b, &LintConfig::default());
        assert_eq!(report.len(), 1, "{report}");
        assert!(matches!(
            &report.findings[0],
            Finding::ExtentRace { file, datasets, first, second, write_write: true, start: 50, end: 100 }
                if file == "f.h5" && first == "a" && second == "b"
                    && datasets == &["/x".to_owned(), "/y".to_owned()]
        ));
    }

    #[test]
    fn disjoint_extent_concurrency_is_not_a_race() {
        // The exact pattern the old whole-file wall-clock detector flagged
        // as a write-write race: same file, same stage, overlapping time —
        // but provably disjoint byte ranges.
        let mut b = staged_bundle(&[&["a", "b"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        b.vfd.push(vfd(
            "b",
            "f.h5",
            IoKind::Write,
            100,
            100,
            AccessType::RawData,
            "/y",
        ));
        assert!(analyze_bundle(&b, &LintConfig::default()).is_clean());

        // Without the stage map the same records fall back to wall-clock
        // judgement and do race (intervals overlap).
        let mut old = TraceBundle::new("wf");
        old.vfd = b.vfd.clone();
        let report = analyze_bundle(&old, &LintConfig::default());
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::WriteWriteRace { .. })));
    }

    #[test]
    fn concurrent_write_read_overlap_is_an_extent_race_both_directions() {
        for (writer, reader) in [("a", "b"), ("b", "a")] {
            let mut b = staged_bundle(&[&["a", "b"]]);
            b.vfd.push(vfd(
                writer,
                "f.h5",
                IoKind::Write,
                0,
                64,
                AccessType::RawData,
                "/d",
            ));
            b.vfd.push(vfd(
                reader,
                "f.h5",
                IoKind::Read,
                32,
                64,
                AccessType::RawData,
                "/d",
            ));
            let report = analyze_bundle(&b, &LintConfig::default());
            assert!(
                report.findings.iter().any(|f| matches!(
                    f,
                    Finding::ExtentRace {
                        write_write: false,
                        start: 32,
                        end: 64,
                        ..
                    }
                )),
                "{report}"
            );
            // The same unordered read also surfaces at dataset granularity.
            assert!(
                report.findings.iter().any(|f| matches!(
                    f,
                    Finding::DatasetReadBeforeWrite { reader: r, .. } if r == reader
                )),
                "{report}"
            );
            assert_eq!(report.len(), 2, "{report}");
        }
    }

    #[test]
    fn stage_ordering_and_metadata_suppress_extent_races() {
        // Overlapping extents, but the writers are in consecutive stages.
        let mut b = staged_bundle(&[&["a"], &["b"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        b.vfd.push(vfd(
            "b",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        assert!(analyze_bundle(&b, &LintConfig::default()).is_clean());

        // Concurrent overlapping *metadata* writes are library-serialized,
        // not races.
        let mut b = staged_bundle(&[&["a", "b"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            8,
            AccessType::Metadata,
            "File-Metadata",
        ));
        b.vfd.push(vfd(
            "b",
            "f.h5",
            IoKind::Write,
            0,
            8,
            AccessType::Metadata,
            "File-Metadata",
        ));
        assert!(analyze_bundle(&b, &LintConfig::default()).is_clean());

        // A task outside the stage map is skipped, not guessed about.
        let mut b = staged_bundle(&[&["a"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        b.vfd.push(vfd(
            "ghost",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        assert!(analyze_bundle(&b, &LintConfig::default()).is_clean());
    }

    #[test]
    fn extent_races_deduplicate_and_widen() {
        // Many clashing ops between one pair collapse to one finding per
        // direction-kind with the widest observed range.
        let mut b = staged_bundle(&[&["a", "b"]]);
        for off in [0u64, 200, 400] {
            b.vfd.push(vfd(
                "a",
                "f.h5",
                IoKind::Write,
                off,
                100,
                AccessType::RawData,
                "/x",
            ));
            b.vfd.push(vfd(
                "b",
                "f.h5",
                IoKind::Write,
                off + 50,
                100,
                AccessType::RawData,
                "/y",
            ));
        }
        let report = analyze_bundle(&b, &LintConfig::default());
        assert_eq!(report.len(), 1, "{report}");
        assert!(matches!(
            &report.findings[0],
            Finding::ExtentRace {
                start: 50,
                end: 500,
                write_write: true,
                ..
            }
        ));
    }

    #[test]
    fn analyze_stream_matches_analyze_bundle() {
        let mut b = staged_bundle(&[&["a", "b"]]);
        b.vfd.push(vfd(
            "a",
            "f.h5",
            IoKind::Write,
            0,
            100,
            AccessType::RawData,
            "/x",
        ));
        b.vfd.push(vfd(
            "b",
            "f.h5",
            IoKind::Write,
            50,
            100,
            AccessType::RawData,
            "/y",
        ));
        let cfg = LintConfig::default();
        let want = analyze_bundle(&b, &cfg);
        let (report, n) = analyze_stream(&b.to_binary_bytes()[..], &cfg).unwrap();
        assert_eq!(report, want);
        assert_eq!(n, 2);
    }
}
