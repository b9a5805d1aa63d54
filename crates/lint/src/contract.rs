//! Contract-driven lint passes: static footprint analysis and trace
//! conformance.
//!
//! Two consumers of the same declarations:
//!
//! * [`analyze_contracts`] — **pre-run**. Combines the compiled
//!   [`ContractCatalog`] with the spec's stage happens-before to emit
//!   extent races, read-before-write and use-after-dispose findings from
//!   declarations alone, before any VFD is opened or byte written.
//! * [`ConformanceChecker`] — **post-run**. Replays a recorded trace
//!   (streaming `.dtb`, via [`RecordSink`], without materializing the
//!   bundle) against the declarations and
//!   reports [`Finding::ContractViolation`]s: raw-data bytes a task
//!   touched outside its declared footprint, and declared clauses the
//!   run never exercised (waste — a stale declaration or dead I/O path).
//!
//! Conformance maps physical trace offsets to dataset-relative logical
//! bytes by anchoring each `(file, dataset)` at the minimum raw-data
//! offset any task touched — exact for the contiguous layouts the
//! bundled workloads use. Coverage is checked against clause *hulls*, an
//! over-approximation that can only under-report, never false-positive.
//!
//! Soundness under partial annotation: tasks without contracts are ⊤.
//! Race findings between two *declared* tasks hold regardless of
//! coverage, but absence-based findings (read-before-write,
//! dangling-file-ref) are only emitted when **every** task declares a
//! contract — otherwise an undeclared task could be the producer the
//! pass failed to see.

use crate::extent::{Extent, ExtentSet, TaskFileExtents};
use crate::hazard::LintConfig;
use crate::hb::TaskHb;
use crate::model::{Finding, Report};
use crate::symbolic::ContractCatalog;
use dayu_trace::{
    AccessType, FileKey, FileRecord, IoKind, ObjectKey, RecordSink, Symbol, SymbolMap, TaskKey,
    TraceBundle, TraceMeta, VfdRecord, VolRecord,
};
use dayu_workflow::WorkflowSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead};

/// Static contract pass: declared footprints × stage happens-before.
///
/// Emits, without consulting any trace:
///
/// * [`Finding::ExtentRace`] — two concurrent tasks declare overlapping
///   (or ⊤) footprints on the same dataset, at least one writing;
/// * [`Finding::ReadBeforeWrite`] — a task declares a read of a file
///   whose declared writers are all unordered with it (full contract
///   coverage only);
/// * [`Finding::DanglingFileRef`] — a declared read of a file nothing
///   produces and no external input declares (full coverage **and**
///   `cfg.external_inputs` present, mirroring the plan pass);
/// * [`Finding::UseAfterDispose`] — a task's clause targets a file an
///   ordered-before task declared it disposes of.
pub fn analyze_contracts(spec: &WorkflowSpec, cfg: &LintConfig) -> Report {
    let cat = ContractCatalog::from_spec(spec);
    let mut report = Report::new();
    if cat.is_empty() {
        return report;
    }
    let stages: Vec<Vec<&str>> = spec
        .stages
        .iter()
        .map(|s| s.tasks.iter().map(|t| t.name.as_str()).collect())
        .collect();
    let hb = TaskHb::from_stages(&stages);
    let names: Vec<&str> = cat.task_names().collect();

    // Declared extent races between unordered pairs. Aggregate per
    // (file, pair, kind) like the trace checker: one finding carrying
    // the union span and every implicated dataset.
    for (i, &a) in names.iter().enumerate() {
        let (Some(ia), files_a) = (hb.task(a), cat.files_of(a)) else {
            continue;
        };
        for &b in &names[i + 1..] {
            let Some(ib) = hb.task(b) else {
                continue;
            };
            if !hb.concurrent(ia, ib) {
                continue;
            }
            for file in &files_a {
                let cols = cat.collisions(a, b, file);
                for write_write in [true, false] {
                    let hits: Vec<_> = cols
                        .iter()
                        .filter(|c| c.write_write == write_write)
                        .collect();
                    let (Some(start), Some(end)) = (
                        hits.iter().map(|c| c.extent.start).min(),
                        hits.iter().map(|c| c.extent.end).max(),
                    ) else {
                        continue;
                    };
                    let datasets: BTreeSet<String> =
                        hits.iter().map(|c| c.dataset.clone()).collect();
                    report.push(Finding::ExtentRace {
                        file: (*file).to_owned(),
                        datasets: datasets.into_iter().collect(),
                        first: a.to_owned(),
                        second: b.to_owned(),
                        write_write,
                        start,
                        end,
                    });
                }
            }
        }
    }

    // Absence-based findings require every task to have declared.
    let full_coverage = cat.len() == spec.task_count();
    if full_coverage {
        for &reader in &names {
            let Some(ir) = hb.task(reader) else { continue };
            for file in cat.files_of(reader) {
                if !cat.reads_file(reader, file) || cat.writes_file(reader, file) {
                    continue;
                }
                let writers: Vec<&str> = names
                    .iter()
                    .copied()
                    .filter(|&w| w != reader && cat.writes_file(w, file))
                    .collect();
                if writers.is_empty() {
                    if let Some(ext) = &cfg.external_inputs {
                        if !ext.contains(file) {
                            report.push(Finding::DanglingFileRef {
                                file: file.to_owned(),
                                reader: reader.to_owned(),
                            });
                        }
                    }
                } else if !writers
                    .iter()
                    .any(|w| hb.task(w).is_some_and(|iw| hb.happens_before(iw, ir)))
                {
                    report.push(Finding::ReadBeforeWrite {
                        file: file.to_owned(),
                        reader: reader.to_owned(),
                        writers: writers.iter().map(|w| (*w).to_owned()).collect(),
                    });
                }
            }
        }
    }

    // Use-after-dispose: a clause on a file an ordered-before task
    // declared it drops.
    for &disposer in &names {
        let Some(id) = hb.task(disposer) else {
            continue;
        };
        for file in cat.disposals_of(disposer) {
            for &task in &names {
                if task == disposer {
                    continue;
                }
                let Some(it) = hb.task(task) else { continue };
                if !hb.happens_before(id, it) {
                    continue;
                }
                if cat.footprints(task, file).is_none_or(BTreeMap::is_empty) {
                    continue;
                }
                report.push(Finding::UseAfterDispose {
                    file: file.clone(),
                    reader: task.to_owned(),
                    disposer: disposer.to_owned(),
                });
            }
        }
    }
    report
}

/// The observed-state key of `(task, file, dataset)`, or `None` when the
/// process never interned one of the names, so no record carried it.
fn interned_key(task: &str, file: &str, dataset: &str) -> Option<(TaskKey, FileKey, ObjectKey)> {
    Some((
        TaskKey::from_symbol(Symbol::lookup(task)?),
        FileKey::from_symbol(Symbol::lookup(file)?),
        ObjectKey::from_symbol(Symbol::lookup(dataset)?),
    ))
}

/// Streaming trace-vs-contract conformance. Feed it records (it is a
/// [`RecordSink`], so [`TraceBundle::stream`] drives it directly), then
/// call [`ConformanceChecker::finish`].
///
/// Its per-record state is keyed by interned symbols; `finish` applies
/// name order once.
pub struct ConformanceChecker {
    cat: ContractCatalog,
    /// Observed raw-data extents per (task, file, dataset), contracted
    /// tasks only — uncontracted tasks are ⊤ and never violate.
    observed: SymbolMap<(TaskKey, FileKey, ObjectKey), TaskFileExtents>,
    /// Minimum raw-data offset any task touched per (file, dataset):
    /// the physical anchor of logical byte 0.
    base: SymbolMap<(FileKey, ObjectKey), u64>,
    /// Every task that appears in the trace at all (gates waste
    /// findings: a task that never ran owes nothing), and whether the
    /// catalog holds its contract.
    seen: SymbolMap<TaskKey, bool>,
    /// Raw-data records inspected.
    records: u64,
}

impl ConformanceChecker {
    /// A checker enforcing `spec`'s declared contracts.
    pub fn new(spec: &WorkflowSpec) -> Self {
        Self::with_catalog(ContractCatalog::from_spec(spec))
    }

    /// A checker over an already-compiled catalog.
    pub fn with_catalog(cat: ContractCatalog) -> Self {
        Self {
            cat,
            observed: SymbolMap::default(),
            base: SymbolMap::default(),
            seen: SymbolMap::default(),
            records: 0,
        }
    }

    /// Number of raw-data records inspected so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Folds one VFD record in.
    pub fn observe(&mut self, rec: &VfdRecord) {
        let cat = &self.cat;
        let contracted = *self
            .seen
            .entry(rec.task.clone())
            .or_insert_with(|| cat.knows(rec.task.as_str()));
        if rec.access != AccessType::RawData || !rec.kind.moves_data() || rec.len == 0 {
            return;
        }
        // Unattributed raw I/O (global-heap payloads, superblock bytes)
        // carries the File-Metadata pseudo-object: contracts describe
        // dataset footprints, not file plumbing, so it is out of scope.
        if rec.object == ObjectKey::file_metadata() {
            return;
        }
        self.records += 1;
        self.base
            .entry((rec.file.clone(), rec.object.clone()))
            .and_modify(|b| *b = (*b).min(rec.offset))
            .or_insert(rec.offset);
        if !contracted {
            return;
        }
        let slot = self
            .observed
            .entry((rec.task.clone(), rec.file.clone(), rec.object.clone()))
            .or_default();
        let e = Extent::of(rec.offset, rec.len);
        match rec.kind {
            IoKind::Write => slot.writes.insert(e),
            _ => slot.reads.insert(e),
        }
    }

    fn shift(set: &ExtentSet, base: u64) -> ExtentSet {
        let mut out = ExtentSet::new();
        for r in set.runs() {
            out.insert(Extent::new(r.start - base, r.end - base));
        }
        out
    }

    /// The logical-byte anchor of `(file, dataset)`.
    fn base_of(&self, file: &FileKey, dataset: &ObjectKey) -> u64 {
        let key = (file.clone(), dataset.clone());
        self.base.get(&key).copied().unwrap_or(0)
    }

    /// Verdict: out-of-footprint accesses and never-exercised clauses.
    pub fn finish(&self) -> Report {
        let mut report = Report::new();
        // Out-of-footprint bytes, in (task, file, dataset) name order.
        let mut observed: Vec<_> = self.observed.iter().collect();
        observed.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for ((task, file, dataset), obs) in observed {
            let base = self.base_of(file, dataset);
            let reads = Self::shift(&obs.reads, base);
            let writes = Self::shift(&obs.writes, base);
            let (task, file, dataset) = (task.as_str(), file.as_str(), dataset.as_str());
            let fp = self.cat.footprint(task, file, dataset);
            // Reads are legal anywhere the task declared *any* access;
            // writes only where it declared writes.
            let (write_uncovered, read_uncovered) = match fp {
                Some(pair) => {
                    let wu = pair.writes.uncovered(&writes);
                    let ru = if pair.reads.top || pair.writes.top {
                        Vec::new()
                    } else {
                        let mut both = pair.reads.hulls.clone();
                        for r in pair.writes.hulls.runs() {
                            both.insert(*r);
                        }
                        reads.subtract(&both)
                    };
                    (wu, ru)
                }
                // A contracted task touching a (file, dataset) it never
                // declared: everything is out of footprint.
                None => (writes.runs().to_vec(), reads.runs().to_vec()),
            };
            for (access, uncovered) in [("write", write_uncovered), ("read", read_uncovered)] {
                let (Some(start), Some(end)) = (
                    uncovered.iter().map(|e| e.start).min(),
                    uncovered.iter().map(|e| e.end).max(),
                ) else {
                    continue;
                };
                report.push(Finding::ContractViolation {
                    task: task.to_owned(),
                    file: file.to_owned(),
                    dataset: dataset.to_owned(),
                    access: access.to_owned(),
                    start,
                    end,
                    undeclared: true,
                });
            }
        }
        // Declared-but-untouched waste, for tasks that did run.
        for task in self.cat.task_names() {
            let ran = Symbol::lookup(task)
                .is_some_and(|t| self.seen.contains_key(&TaskKey::from_symbol(t)));
            if !ran {
                continue;
            }
            for file in self.cat.files_of(task) {
                let Some(fps) = self.cat.footprints(task, file) else {
                    continue;
                };
                for (dataset, pair) in fps {
                    let observed = interned_key(task, file, dataset)
                        .and_then(|k| Some((self.observed.get(&k)?, self.base_of(&k.1, &k.2))));
                    let (reads, writes) = match observed {
                        Some((obs, base)) => (
                            Self::shift(&obs.reads, base),
                            Self::shift(&obs.writes, base),
                        ),
                        None => (ExtentSet::new(), ExtentSet::new()),
                    };
                    for (access, fp, obs) in [
                        ("read", &pair.reads, &reads),
                        ("write", &pair.writes, &writes),
                    ] {
                        if fp.is_empty() || fp.touches(obs) {
                            continue;
                        }
                        let span = if fp.top {
                            Extent::new(0, 0)
                        } else {
                            fp.span().unwrap_or(Extent::new(0, 0))
                        };
                        report.push(Finding::ContractViolation {
                            task: task.to_owned(),
                            file: file.to_owned(),
                            dataset: dataset.clone(),
                            access: access.to_owned(),
                            start: span.start,
                            end: span.end,
                            undeclared: false,
                        });
                    }
                }
            }
        }
        report
    }
}

impl RecordSink for ConformanceChecker {
    fn meta(&mut self, _meta: TraceMeta) -> io::Result<()> {
        Ok(())
    }
    fn vol(&mut self, _rec: VolRecord) -> io::Result<()> {
        Ok(())
    }
    fn vfd(&mut self, rec: VfdRecord) -> io::Result<()> {
        self.observe(&rec);
        Ok(())
    }
    fn file(&mut self, _rec: FileRecord) -> io::Result<()> {
        Ok(())
    }
}

/// Conformance over an in-memory bundle.
pub fn check_conformance(bundle: &TraceBundle, spec: &WorkflowSpec) -> Report {
    let mut c = ConformanceChecker::new(spec);
    for r in &bundle.vfd {
        c.observe(r);
    }
    c.finish()
}

/// Streaming conformance over a `.dtb` trace — the bundle is never
/// materialized. Returns the report and the raw-data record count.
pub fn check_conformance_stream<R: BufRead>(
    reader: R,
    spec: &WorkflowSpec,
) -> io::Result<(Report, u64)> {
    let mut c = ConformanceChecker::new(spec);
    TraceBundle::stream(reader, &mut c)?;
    let n = c.records();
    Ok((c.finish(), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_trace::{FileKey, ObjectKey, TaskKey, Timestamp};
    use dayu_workflow::contract::{AffineExpr, IoContract, SymExtent};
    use dayu_workflow::spec::TaskSpec;

    const CHUNK: i64 = 4096;

    fn chunk_writer(name: &str, idx: i64, overlap: i64) -> TaskSpec {
        let i = AffineExpr::var("i");
        TaskSpec::new(name, |_| Ok(())).with_contract(IoContract::new().bind("i", idx).writes(
            "shared.h5",
            "/raw",
            SymExtent::span(i.clone() * CHUNK, (i + 1) * CHUNK + overlap),
        ))
    }

    fn reducer(name: &str) -> TaskSpec {
        TaskSpec::new(name, |_| Ok(()))
            .with_contract(IoContract::new().reads_all("shared.h5", "/raw"))
    }

    #[test]
    fn disjoint_partition_is_statically_clean() {
        let spec = WorkflowSpec::new("wf")
            .stage(
                "write",
                vec![chunk_writer("w0", 0, 0), chunk_writer("w1", 1, 0)],
            )
            .stage("reduce", vec![reducer("sum")]);
        let report = analyze_contracts(&spec, &LintConfig::default());
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn overlapping_declarations_race_statically() {
        // Each writer spills 64 bytes into its neighbor's chunk.
        let spec = WorkflowSpec::new("wf").stage(
            "write",
            vec![chunk_writer("w0", 0, 64), chunk_writer("w1", 1, 64)],
        );
        let report = analyze_contracts(&spec, &LintConfig::default());
        assert_eq!(report.counts().get("extent-race"), Some(&1), "{report}");
        let Finding::ExtentRace {
            first,
            second,
            write_write,
            start,
            end,
            ..
        } = &report.findings[0]
        else {
            panic!("expected ExtentRace, got {}", report.findings[0]);
        };
        assert_eq!((first.as_str(), second.as_str()), ("w0", "w1"));
        assert!(*write_write);
        assert_eq!((*start, *end), (CHUNK as u64, CHUNK as u64 + 64));
        // The same declarations in *ordered* stages are race-free.
        let ordered = WorkflowSpec::new("wf")
            .stage("a", vec![chunk_writer("w0", 0, 64)])
            .stage("b", vec![chunk_writer("w1", 1, 64)]);
        assert!(analyze_contracts(&ordered, &LintConfig::default()).is_clean());
    }

    #[test]
    fn read_before_write_and_dispose_from_declarations() {
        // Reader runs concurrently with its producer.
        let producer = TaskSpec::new("producer", |_| Ok(()))
            .with_contract(IoContract::new().writes_all("out.h5", "/d"));
        let reader = TaskSpec::new("reader", |_| Ok(()))
            .with_contract(IoContract::new().reads_all("out.h5", "/d"));
        let spec = WorkflowSpec::new("wf").stage("s", vec![producer.clone(), reader.clone()]);
        let report = analyze_contracts(&spec, &LintConfig::default());
        assert_eq!(
            report.counts().get("read-before-write"),
            Some(&1),
            "{report}"
        );

        // Ordered producer → reader is clean; adding a disposer between
        // them flags the late reader.
        let disposer = TaskSpec::new("cleanup", |_| Ok(()))
            .with_contract(IoContract::new().disposes("out.h5"));
        let spec = WorkflowSpec::new("wf")
            .stage("produce", vec![producer])
            .stage("drop", vec![disposer])
            .stage("read", vec![reader]);
        let report = analyze_contracts(&spec, &LintConfig::default());
        assert_eq!(
            report.counts().get("use-after-dispose"),
            Some(&1),
            "{report}"
        );
    }

    #[test]
    fn partial_coverage_suppresses_absence_findings() {
        let reader = TaskSpec::new("reader", |_| Ok(()))
            .with_contract(IoContract::new().reads_all("out.h5", "/d"));
        let mystery = TaskSpec::new("mystery", |_| Ok(())); // no contract
        let spec = WorkflowSpec::new("wf").stage("s", vec![reader, mystery]);
        // "mystery" could be the producer — no read-before-write claim.
        let report = analyze_contracts(&spec, &LintConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    fn rec(task: &str, kind: IoKind, offset: u64, len: u64) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new("shared.h5"),
            kind,
            offset,
            len,
            access: AccessType::RawData,
            object: ObjectKey::new("/raw"),
            start: Timestamp(0),
            end: Timestamp(1),
        }
    }

    #[test]
    fn conformance_flags_out_of_footprint_writes_and_waste() {
        let spec = WorkflowSpec::new("wf").stage(
            "write",
            vec![chunk_writer("w0", 0, 0), chunk_writer("w1", 1, 0)],
        );
        let mut checker = ConformanceChecker::new(&spec);
        // Physical dataset base at 512 — logical 0 anchors there.
        let base = 512;
        checker.observe(&rec("w0", IoKind::Write, base, CHUNK as u64));
        // w1 writes its own chunk plus 64 bytes of w0's.
        checker.observe(&rec(
            "w1",
            IoKind::Write,
            base + CHUNK as u64 - 64,
            CHUNK as u64 + 64,
        ));
        let report = checker.finish();
        assert_eq!(
            report.counts().get("contract-violation"),
            Some(&1),
            "{report}"
        );
        let Finding::ContractViolation {
            task,
            access,
            start,
            end,
            undeclared,
            ..
        } = &report.findings[0]
        else {
            panic!("wrong finding");
        };
        assert_eq!(task, "w1");
        assert_eq!(access, "write");
        assert!(*undeclared);
        assert_eq!((*start, *end), (CHUNK as u64 - 64, CHUNK as u64));

        // A run where w1 never writes at all: its clause is waste.
        let mut checker = ConformanceChecker::new(&spec);
        checker.observe(&rec("w0", IoKind::Write, base, CHUNK as u64));
        checker.observe(&rec("w1", IoKind::Open, 0, 0)); // ran, did no data I/O
        let report = checker.finish();
        assert_eq!(report.len(), 1, "{report}");
        let Finding::ContractViolation {
            task, undeclared, ..
        } = &report.findings[0]
        else {
            panic!("wrong finding");
        };
        assert_eq!(task, "w1");
        assert!(!*undeclared, "declared-but-untouched");
    }

    #[test]
    fn conformant_run_is_clean_and_top_covers_everything() {
        let spec = WorkflowSpec::new("wf")
            .stage(
                "write",
                vec![chunk_writer("w0", 0, 0), chunk_writer("w1", 1, 0)],
            )
            .stage("reduce", vec![reducer("sum")]);
        let mut checker = ConformanceChecker::new(&spec);
        checker.observe(&rec("w0", IoKind::Write, 0, CHUNK as u64));
        checker.observe(&rec("w1", IoKind::Write, CHUNK as u64, CHUNK as u64));
        checker.observe(&rec("sum", IoKind::Read, 0, 2 * CHUNK as u64));
        let report = checker.finish();
        assert!(report.is_clean(), "{report}");
        assert_eq!(checker.records(), 3);
    }

    #[test]
    fn uncontracted_tasks_never_violate() {
        let spec = WorkflowSpec::new("wf").stage("s", vec![TaskSpec::new("anon", |_| Ok(()))]);
        let mut checker = ConformanceChecker::new(&spec);
        checker.observe(&rec("anon", IoKind::Write, 0, 1 << 20));
        assert!(checker.finish().is_clean());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use dayu_trace::rng::cases;
    use dayu_workloads::corner_case;

    /// The planted-defect pair across randomized shapes: overlapping
    /// declarations are refuted statically with no trace at all, and
    /// an out-of-contract write that static analysis cannot see (the
    /// declarations are a clean partition) is caught by replaying the
    /// recorded trace, with the spill localized to the byte.
    #[test]
    fn planted_defects_are_caught_statically_and_dynamically() {
        // Each case records a full workload run; keep the count modest.
        cases(
            "planted_defects_are_caught_statically_and_dynamically",
            8,
            |rng| {
                let writers = rng.range(2, 5) as usize;
                let overlap = rng.range(1, 512);
                let spill = rng.range(1, corner_case::CHUNK_BYTES / 2 + 1);
                let cfg = LintConfig::default();

                let racy = corner_case::racy_workflow(writers, overlap);
                let report = analyze_contracts(&racy, &cfg);
                assert!(
                    report.findings.iter().any(|f| matches!(
                        f,
                        Finding::ExtentRace { file, write_write: true, .. }
                            if file == corner_case::SHARED_FILE
                    )),
                    "static pass refutes the overlapping partition: {:?}",
                    report.findings
                );

                let lying = corner_case::violating_workflow(writers, spill);
                assert!(
                    analyze_contracts(&lying, &cfg).is_clean(),
                    "the liar's declarations are a clean partition"
                );
                let fs = dayu_vfd::MemFs::new();
                let run = dayu_workflow::record(&lying, &fs).unwrap();
                let report = check_conformance(&run.bundle, &lying);
                assert!(
                    report.findings.iter().any(|f| matches!(
                        f,
                        Finding::ContractViolation { task, undeclared: true, start, end, .. }
                            if task == "chunk_writer_0"
                                && *start == corner_case::CHUNK_BYTES
                                && *end == corner_case::CHUNK_BYTES + spill
                    )),
                    "conformance localizes the spill: {:?}",
                    report.findings
                );
            },
        );
    }
}
