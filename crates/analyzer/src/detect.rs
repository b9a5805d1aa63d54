//! Bottleneck and opportunity detectors.
//!
//! Each detector encodes one of the paper's diagnostic observations
//! (Section VI): data reuse, write-after-read, time-dependent inputs,
//! disposable data (PyFLEXTRKR); read-after-write reuse, unused datasets,
//! independent stages, chunked-layout overhead (DDMD); contiguous
//! variable-length data (ARLDM); plus the many-small-datasets and
//! metadata-heavy-file patterns behind Fig. 5 and Fig. 13a. The advisor
//! crate maps these findings to the optimization guidelines of
//! Section III-A.

use crate::build::dataset_label;
use crate::graph::{Graph, NodeKind, Operation};
use dayu_trace::store::TraceBundle;
use dayu_trace::time::Timestamp;
use dayu_trace::vol::{DataType, LayoutKind};
use dayu_trace::{FileKey, ObjectKey, SymbolMap};
use std::collections::{BTreeMap, BTreeSet};

/// Detector thresholds.
#[derive(Clone, Debug)]
pub struct DetectorConfig {
    /// A dataset smaller than this (bytes) is "small" (paper Fig. 5:
    /// "many small datasets (less than 500 bytes)").
    pub small_dataset_bytes: u64,
    /// Minimum number of small datasets in one file to flag scattering.
    pub scatter_min_count: usize,
    /// An input first touched after this fraction of the workflow span is
    /// "time-dependent" (prefetch can be delayed).
    pub late_input_fraction: f64,
    /// Metadata op share above which a file is metadata-heavy.
    pub metadata_heavy_fraction: f64,
    /// Minimum ops for the metadata-heavy detector to fire.
    pub metadata_heavy_min_ops: u64,
    /// A chunked dataset smaller than this should likely be contiguous
    /// (the DDMD finding: chunking small data adds metadata overhead).
    pub small_chunked_bytes: u64,
    /// Sequential fraction below which access counts as random.
    pub random_access_max_sequential: f64,
    /// Minimum raw ops before the random-access detector fires.
    pub random_access_min_ops: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            small_dataset_bytes: 500,
            scatter_min_count: 10,
            late_input_fraction: 0.3,
            metadata_heavy_fraction: 0.5,
            metadata_heavy_min_ops: 16,
            small_chunked_bytes: 1 << 20,
            random_access_max_sequential: 0.3,
            random_access_min_ops: 8,
        }
    }
}

/// One diagnostic finding.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// A file is read by multiple downstream tasks (Fig. 4 orange edges).
    DataReuse {
        /// The reused file.
        file: String,
        /// Its reader tasks.
        readers: Vec<String>,
    },
    /// A task reads a file and later writes it (Fig. 4 circle 1).
    WriteAfterRead {
        /// The task.
        task: String,
        /// The file.
        file: String,
    },
    /// A task writes a file and later reads it back (DDMD training on
    /// embedding files).
    ReadAfterWrite {
        /// The task.
        task: String,
        /// The file.
        file: String,
    },
    /// A pure input file first needed late in the workflow (Fig. 4
    /// circle 2): prefetch can be deferred.
    TimeDependentInput {
        /// The file.
        file: String,
        /// When it is first read, as a fraction of the workflow span.
        first_access_fraction: f64,
    },
    /// A file consumed by at most one downstream task: non-critical once
    /// processed, a stage-out candidate (Fig. 4 blue edges).
    DisposableData {
        /// The file.
        file: String,
        /// When its last read completes.
        after: Timestamp,
    },
    /// Many small datasets scattered in one file (Fig. 5): consolidation
    /// candidate.
    SmallScatteredDatasets {
        /// The file.
        file: String,
        /// How many small datasets it holds.
        dataset_count: usize,
        /// Their mean size in bytes.
        mean_bytes: f64,
    },
    /// A dataset written but never meaningfully read: partial-file-access
    /// candidate (Fig. 7: `contact_map` is metadata-only for training).
    UnusedDataset {
        /// Dataset label (`file:path`).
        dataset: String,
        /// Who wrote it.
        written_by: Vec<String>,
        /// Readers that touched only its metadata.
        metadata_only_readers: Vec<String>,
        /// Whether no task read it at all.
        never_read: bool,
        /// Raw bytes written to it — what skipping the dataset saves.
        bytes: u64,
    },
    /// Two consecutive tasks share no files: parallelizable (DDMD
    /// training/inference).
    IndependentTasks {
        /// Earlier task.
        first: String,
        /// Later task.
        second: String,
    },
    /// Metadata operations dominate a file's I/O.
    MetadataHeavyFile {
        /// The file.
        file: String,
        /// Metadata share of operations, in `[0, 1]`.
        metadata_fraction: f64,
        /// Total data-moving ops observed.
        total_ops: u64,
    },
    /// A small dataset uses chunked layout: the chunk index costs more than
    /// it buys (DDMD; Fig. 13b motivation).
    ChunkedSmallDataset {
        /// Dataset label.
        dataset: String,
        /// Logical size in bytes.
        bytes: u64,
    },
    /// A variable-length dataset uses contiguous layout: no index metadata
    /// to support efficient random access (ARLDM; Fig. 13c motivation).
    ContiguousVarlenDataset {
        /// Dataset label.
        dataset: String,
        /// Logical payload size in bytes.
        bytes: u64,
    },
    /// A large contiguous dataset is accessed non-sequentially: chunked
    /// layout would index the regions being hit (guideline III-A.4,
    /// "large fixed-length data: select chunked layout to optimize for
    /// random or parallel access").
    RandomAccessContiguous {
        /// Dataset label (`file:path`).
        dataset: String,
        /// Fraction of its raw accesses that were sequential, in `[0, 1]`.
        sequential_fraction: f64,
        /// Raw data ops observed.
        ops: u64,
    },
    /// A single consumer reads exactly one producer's output: co-schedule
    /// them on one node (the Fig. 11 stages 3→4→5 pattern).
    CoSchedulable {
        /// Producing task.
        producer: String,
        /// Consuming task.
        consumer: String,
        /// The file flowing between them.
        file: String,
    },
    /// A task's trace is a salvaged, truncated fragment (the task died or
    /// exhausted its retries mid-session). Every graph edge touching it is
    /// a lower bound, and downstream findings about its files may be
    /// incomplete — the run should be repeated before acting on them.
    DegradedTrace {
        /// The task whose trace was salvaged.
        task: String,
    },
    /// A task crashed mid-write and a retry resumed from journal-recovered
    /// file state. Unlike [`Finding::DegradedTrace`], the trace describes
    /// the *successful* attempt, so graphs are complete — but the crash is
    /// a durability signal: the task's output files depend on the journal
    /// for integrity, and the timing of the recovered attempt includes
    /// replay cost.
    RecoveredTask {
        /// The task whose retry resumed from recovered state.
        task: String,
    },
    /// Two recordings of the same workload diverge: nondeterminism, an
    /// environment change, or a perturbed schedule steered a task off the
    /// reference run's operation stream. Produced by the diff engine
    /// ([`crate::diff::diff_traces`]), not by the single-trace detectors —
    /// the ancestor lists come from the reference run's SDG and bound
    /// where the cause can hide.
    ReplayDivergence {
        /// Task whose stream diverges first.
        task: String,
        /// Index of the divergent event within that task's stream.
        event_index: usize,
        /// The reference run's event (`"<end of stream>"` if it had none).
        expected: String,
        /// The compared run's event at the same index.
        actual: String,
        /// Upstream tasks feeding the divergent task, per the SDG.
        ancestor_tasks: Vec<String>,
        /// Datasets on the backward path (`file:path` labels).
        ancestor_datasets: Vec<String>,
    },
    /// A streaming-ingest tenant is running on an incomplete graph: the
    /// ingest service quarantined corrupt sections or shed load for this
    /// workflow, so its FTG/SDG reflect only the sections that survived.
    /// Produced by `dayu-served`'s watchdog, not by the single-trace
    /// detectors — downstream advice should be re-validated after a clean
    /// re-ingest.
    DegradedIngest {
        /// The workflow whose ingest degraded.
        workflow: String,
        /// Why the watchdog flagged it (e.g. "quarantined sections",
        /// "budget exhausted", "evicted under memory pressure").
        reason: String,
        /// Sections quarantined for this tenant so far.
        quarantined: u64,
        /// Sections dropped by load-shedding (throttle or eviction).
        dropped: u64,
    },
}

impl Finding {
    /// Short machine-readable category tag.
    pub fn category(&self) -> &'static str {
        match self {
            Finding::DataReuse { .. } => "data-reuse",
            Finding::WriteAfterRead { .. } => "write-after-read",
            Finding::ReadAfterWrite { .. } => "read-after-write",
            Finding::TimeDependentInput { .. } => "time-dependent-input",
            Finding::DisposableData { .. } => "disposable-data",
            Finding::SmallScatteredDatasets { .. } => "small-scattered-datasets",
            Finding::UnusedDataset { .. } => "unused-dataset",
            Finding::IndependentTasks { .. } => "independent-tasks",
            Finding::MetadataHeavyFile { .. } => "metadata-heavy-file",
            Finding::ChunkedSmallDataset { .. } => "chunked-small-dataset",
            Finding::ContiguousVarlenDataset { .. } => "contiguous-varlen-dataset",
            Finding::RandomAccessContiguous { .. } => "random-access-contiguous",
            Finding::CoSchedulable { .. } => "co-schedulable",
            Finding::DegradedTrace { .. } => "degraded-trace",
            Finding::RecoveredTask { .. } => "recovered-task",
            Finding::ReplayDivergence { .. } => "replay-divergence",
            Finding::DegradedIngest { .. } => "degraded-ingest",
        }
    }
}

/// Runs every detector over a trace bundle and its graphs.
pub fn run_detectors(
    bundle: &TraceBundle,
    ftg: &Graph,
    sdg: &Graph,
    cfg: &DetectorConfig,
) -> Vec<Finding> {
    let mut out = Vec::new();
    // Degraded traces first: they qualify every other finding (analysis of
    // a salvaged fragment is a lower bound, not the full dataflow).
    for t in &bundle.meta.degraded_tasks {
        out.push(Finding::DegradedTrace {
            task: t.as_str().to_owned(),
        });
    }
    // Recovered tasks next: their traces are complete (the successful
    // retry), but the crash-and-replay history matters for durability and
    // timing interpretation.
    for t in &bundle.meta.recovered_tasks {
        out.push(Finding::RecoveredTask {
            task: t.as_str().to_owned(),
        });
    }
    detect_file_patterns(ftg, cfg, &mut out);
    detect_scattering(bundle, cfg, &mut out);
    detect_unused_datasets(bundle, sdg, &mut out);
    detect_independent_tasks(bundle, ftg, &mut out);
    detect_metadata_heavy(bundle, cfg, &mut out);
    detect_layout_findings(bundle, cfg, &mut out);
    detect_random_access(bundle, cfg, &mut out);
    detect_coschedulable(ftg, &mut out);
    out
}

fn detect_random_access(bundle: &TraceBundle, cfg: &DetectorConfig, out: &mut Vec<Finding>) {
    use dayu_trace::vfd::AccessType;
    // Per (file, object): raw-data access sequentiality across all tasks.
    #[derive(Default)]
    struct Acc {
        ops: u64,
        sequential: u64,
        last_end: Option<u64>,
    }
    let mut accs: SymbolMap<(FileKey, ObjectKey), Acc> = SymbolMap::default();
    for r in &bundle.vfd {
        if !r.kind.moves_data() || r.access != AccessType::RawData {
            continue;
        }
        let a = accs.entry((r.file.clone(), r.object.clone())).or_default();
        a.ops += 1;
        if a.last_end == Some(r.offset) {
            a.sequential += 1;
        }
        a.last_end = Some(r.offset + r.len);
    }
    // Only large *contiguous* datasets qualify (per the VOL description),
    // in VOL record order, once per dataset label.
    let mut flagged = BTreeSet::new();
    for rec in &bundle.vol {
        if rec.description.layout != Some(LayoutKind::Contiguous)
            || rec.description.logical_size < cfg.small_chunked_bytes
        {
            continue;
        }
        let Some(a) = accs.get(&(rec.file.clone(), rec.object.clone())) else {
            continue;
        };
        if a.ops < cfg.random_access_min_ops {
            continue;
        }
        let frac = a.sequential as f64 / a.ops as f64;
        if frac <= cfg.random_access_max_sequential {
            let label = dataset_label(rec.file.as_str(), rec.object.as_str());
            if flagged.insert(label.clone()) {
                out.push(Finding::RandomAccessContiguous {
                    dataset: label,
                    sequential_fraction: frac,
                    ops: a.ops,
                });
            }
        }
    }
}

fn workflow_span(ftg: &Graph) -> (Timestamp, Timestamp) {
    let start = ftg.nodes.iter().map(|n| n.start).min().unwrap_or_default();
    let end = ftg.nodes.iter().map(|n| n.end).max().unwrap_or_default();
    (start, end)
}

fn detect_file_patterns(ftg: &Graph, cfg: &DetectorConfig, out: &mut Vec<Finding>) {
    let (wf_start, wf_end) = workflow_span(ftg);
    let span = wf_end.since(wf_start).max(1);

    for file in ftg.nodes_of(NodeKind::File) {
        let readers: Vec<(&str, Timestamp, Timestamp)> = ftg
            .out_edges(file.id)
            .filter(|e| e.op == Operation::ReadOnly)
            .map(|e| (ftg.nodes[e.to].label.as_str(), e.stats.first, e.stats.last))
            .collect();
        let writers: Vec<(&str, Timestamp)> = ftg
            .in_edges(file.id)
            .filter(|e| e.op == Operation::WriteOnly)
            .map(|e| (ftg.nodes[e.from].label.as_str(), e.stats.first))
            .collect();

        if readers.len() >= 2 {
            out.push(Finding::DataReuse {
                file: file.label.clone(),
                readers: readers.iter().map(|(t, _, _)| (*t).to_owned()).collect(),
            });
        }

        // Write-after-read / read-after-write per task.
        for &(reader, r_first, _) in &readers {
            if let Some(&(_, w_first)) = writers.iter().find(|(w, _)| *w == reader) {
                if r_first <= w_first {
                    out.push(Finding::WriteAfterRead {
                        task: reader.to_owned(),
                        file: file.label.clone(),
                    });
                } else {
                    out.push(Finding::ReadAfterWrite {
                        task: reader.to_owned(),
                        file: file.label.clone(),
                    });
                }
            }
        }

        // Time-dependent pure inputs.
        if writers.is_empty() && !readers.is_empty() {
            let first_read = readers.iter().map(|(_, f, _)| *f).min().expect("nonempty");
            let frac = first_read.since(wf_start) as f64 / span as f64;
            if frac >= cfg.late_input_fraction {
                out.push(Finding::TimeDependentInput {
                    file: file.label.clone(),
                    first_access_fraction: frac,
                });
            }
        }

        // Disposable data: ≤1 consumer.
        if readers.len() <= 1 && (!readers.is_empty() || !writers.is_empty()) {
            let after = readers.iter().map(|(_, _, l)| *l).max().unwrap_or(file.end);
            out.push(Finding::DisposableData {
                file: file.label.clone(),
                after,
            });
        }
    }
}

fn detect_scattering(bundle: &TraceBundle, cfg: &DetectorConfig, out: &mut Vec<Finding>) {
    // Per-dataset *logical* size: prefer the VOL description (the last
    // record that gives one); fall back to raw-data bytes written (traffic
    // volume would be inflated by metadata churn and re-reads, masking
    // exactly the small datasets we look for). The flag marks a VOL size.
    let mut sizes: SymbolMap<(FileKey, ObjectKey), (u64, bool)> = SymbolMap::default();
    for rec in &bundle.vol {
        if rec.description.logical_size > 0 {
            let key = (rec.file.clone(), rec.object.clone());
            sizes.insert(key, (rec.description.logical_size, true));
        }
    }
    for rec in &bundle.vfd {
        if rec.kind == dayu_trace::vfd::IoKind::Write
            && rec.access == dayu_trace::vfd::AccessType::RawData
        {
            let key = (rec.file.clone(), rec.object.clone());
            let (size, sized_by_vol) = sizes.entry(key).or_insert((0, false));
            if !*sized_by_vol {
                *size += rec.len;
            }
        }
    }
    // Per file: count and total of its small datasets.
    let mut per_file: SymbolMap<FileKey, (usize, u64)> = SymbolMap::default();
    for ((file, object), &(size, _)) in &sizes {
        if *object == ObjectKey::file_metadata() {
            continue;
        }
        let small = per_file.entry(file.clone()).or_default();
        if size > 0 && size < cfg.small_dataset_bytes {
            small.0 += 1;
            small.1 += size;
        }
    }
    let mut per_file: Vec<_> = per_file.into_iter().collect();
    per_file.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (file, (count, total)) in per_file {
        if count >= cfg.scatter_min_count {
            out.push(Finding::SmallScatteredDatasets {
                file: file.as_str().to_owned(),
                dataset_count: count,
                mean_bytes: total as f64 / count as f64,
            });
        }
    }
}

fn detect_unused_datasets(bundle: &TraceBundle, sdg: &Graph, out: &mut Vec<Finding>) {
    // Groups are structural containers: they are "metadata-only" by nature
    // and must not be reported as unused datasets.
    let group_labels: BTreeSet<String> = bundle
        .vol
        .iter()
        .filter(|r| r.kind == dayu_trace::vol::ObjectKind::Group)
        .map(|r| dataset_label(r.file.as_str(), r.object.as_str()))
        .collect();
    for d in sdg.nodes_of(NodeKind::Dataset) {
        if d.label.ends_with(":File-Metadata") || group_labels.contains(&d.label) {
            continue;
        }
        let mut bytes = 0u64;
        let written_by: Vec<String> = sdg
            .in_edges(d.id)
            .filter(|e| e.op == Operation::WriteOnly)
            .map(|e| {
                bytes += e.stats.data_access_volume;
                sdg.nodes[e.from].label.clone()
            })
            .collect();
        if written_by.is_empty() {
            continue;
        }
        let mut metadata_only = Vec::new();
        let mut real_read = false;
        for e in sdg.out_edges(d.id).filter(|e| e.op == Operation::ReadOnly) {
            if e.stats.data_access_count == 0 && e.stats.metadata_access_count > 0 {
                metadata_only.push(sdg.nodes[e.to].label.clone());
            } else if e.stats.access_count > 0 {
                real_read = true;
            }
        }
        let never_read = !real_read && metadata_only.is_empty();
        if never_read || (!real_read && !metadata_only.is_empty()) {
            out.push(Finding::UnusedDataset {
                dataset: d.label.clone(),
                written_by,
                metadata_only_readers: metadata_only,
                never_read,
                bytes,
            });
        }
    }
}

fn detect_independent_tasks(bundle: &TraceBundle, ftg: &Graph, out: &mut Vec<Finding>) {
    // "Independent" means no producer→consumer relation in either
    // direction: neither task reads data the other wrote. Shared *inputs*
    // (both reading the same upstream file) do not create a dependency —
    // the paper's training task reads one simulation file that inference
    // also reads, yet the two are still pipelinable.
    let mut reads_of: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut writes_of: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for t in ftg.nodes_of(NodeKind::Task) {
        let reads = ftg
            .in_edges(t.id)
            .filter(|e| e.op == Operation::ReadOnly)
            .map(|e| ftg.nodes[e.from].label.as_str())
            .collect();
        // Only raw-data writes make a task a producer; metadata-only writes
        // (superblock updates, header touches) do not.
        let writes = ftg
            .out_edges(t.id)
            .filter(|e| e.op == Operation::WriteOnly && e.stats.data_access_count > 0)
            .map(|e| ftg.nodes[e.to].label.as_str())
            .collect();
        reads_of.insert(t.label.as_str(), reads);
        writes_of.insert(t.label.as_str(), writes);
    }
    let order = &bundle.meta.task_order;
    for pair in order.windows(2) {
        let (a, b) = (pair[0].as_str(), pair[1].as_str());
        let (Some(ra), Some(rb)) = (reads_of.get(a), reads_of.get(b)) else {
            continue;
        };
        let (Some(wa), Some(wb)) = (writes_of.get(a), writes_of.get(b)) else {
            continue;
        };
        let a_feeds_b = rb.intersection(wa).next().is_some();
        let b_feeds_a = ra.intersection(wb).next().is_some();
        let a_active = !(ra.is_empty() && wa.is_empty());
        let b_active = !(rb.is_empty() && wb.is_empty());
        let both_active = a_active && b_active;
        if both_active && !a_feeds_b && !b_feeds_a {
            out.push(Finding::IndependentTasks {
                first: a.to_owned(),
                second: b.to_owned(),
            });
        }
    }
}

fn detect_metadata_heavy(bundle: &TraceBundle, cfg: &DetectorConfig, out: &mut Vec<Finding>) {
    let mut per_file: SymbolMap<FileKey, (u64, u64)> = SymbolMap::default();
    for r in &bundle.vfd {
        if !r.kind.moves_data() {
            continue;
        }
        let e = per_file.entry(r.file.clone()).or_default();
        e.0 += 1;
        if r.access == dayu_trace::vfd::AccessType::Metadata {
            e.1 += 1;
        }
    }
    // Cover trace_io=off runs through file statistics.
    if per_file.is_empty() {
        for fr in &bundle.files {
            let e = per_file.entry(fr.file.clone()).or_default();
            e.0 += fr.stats.total_ops();
            e.1 += fr.stats.metadata_ops;
        }
    }
    let mut per_file: Vec<_> = per_file.into_iter().collect();
    per_file.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    for (file, (total, meta)) in per_file {
        if total >= cfg.metadata_heavy_min_ops {
            let frac = meta as f64 / total as f64;
            if frac >= cfg.metadata_heavy_fraction {
                out.push(Finding::MetadataHeavyFile {
                    file: file.as_str().to_owned(),
                    metadata_fraction: frac,
                    total_ops: total,
                });
            }
        }
    }
}

fn detect_layout_findings(bundle: &TraceBundle, cfg: &DetectorConfig, out: &mut Vec<Finding>) {
    let mut seen = BTreeSet::new();
    for rec in &bundle.vol {
        let label = dataset_label(rec.file.as_str(), rec.object.as_str());
        if !seen.insert(label.clone()) {
            continue;
        }
        let desc = &rec.description;
        match (desc.layout, desc.dtype) {
            (Some(LayoutKind::Chunked), Some(dt)) if !dt.is_varlen() => {
                let bytes = desc.logical_size;
                if bytes > 0 && bytes < cfg.small_chunked_bytes {
                    out.push(Finding::ChunkedSmallDataset {
                        dataset: label,
                        bytes,
                    });
                }
            }
            (Some(LayoutKind::Contiguous), Some(DataType::VarLen)) => {
                out.push(Finding::ContiguousVarlenDataset {
                    dataset: label,
                    bytes: desc.logical_size.max(rec.bytes_written()),
                });
            }
            _ => {}
        }
    }
}

fn detect_coschedulable(ftg: &Graph, out: &mut Vec<Finding>) {
    for file in ftg.nodes_of(NodeKind::File) {
        let writers: Vec<&str> = ftg
            .in_edges(file.id)
            .filter(|e| e.op == Operation::WriteOnly)
            .map(|e| ftg.nodes[e.from].label.as_str())
            .collect();
        let readers: Vec<&str> = ftg
            .out_edges(file.id)
            .filter(|e| e.op == Operation::ReadOnly)
            .map(|e| ftg.nodes[e.to].label.as_str())
            .collect();
        if writers.len() == 1 && readers.len() == 1 && writers[0] != readers[0] {
            out.push(Finding::CoSchedulable {
                producer: writers[0].to_owned(),
                consumer: readers[0].to_owned(),
                file: file.label.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_ftg, build_sdg, SdgOptions};
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
    use dayu_trace::vol::{ObjectDescription, ObjectKind, VolRecord};

    fn rec(
        task: &str,
        file: &str,
        object: &str,
        kind: IoKind,
        len: u64,
        access: AccessType,
        at: u64,
    ) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            kind,
            offset: 0,
            len,
            access,
            object: ObjectKey::new(object),
            start: Timestamp(at),
            end: Timestamp(at + 5),
        }
    }

    fn detect(bundle: &TraceBundle) -> Vec<Finding> {
        let ftg = build_ftg(bundle);
        let sdg = build_sdg(bundle, &SdgOptions::default());
        run_detectors(bundle, &ftg, &sdg, &DetectorConfig::default())
    }

    fn has(findings: &[Finding], cat: &str) -> bool {
        findings.iter().any(|f| f.category() == cat)
    }

    #[test]
    fn data_reuse_and_disposable() {
        let mut b = TraceBundle::new("wf");
        for t in ["w", "r1", "r2"] {
            b.push_task(TaskKey::new(t));
        }
        b.vfd = vec![
            rec(
                "w",
                "shared.h5",
                "/d",
                IoKind::Write,
                100,
                AccessType::RawData,
                0,
            ),
            rec(
                "r1",
                "shared.h5",
                "/d",
                IoKind::Read,
                100,
                AccessType::RawData,
                10,
            ),
            rec(
                "r2",
                "shared.h5",
                "/d",
                IoKind::Read,
                100,
                AccessType::RawData,
                20,
            ),
            rec(
                "w",
                "single.h5",
                "/d",
                IoKind::Write,
                100,
                AccessType::RawData,
                5,
            ),
            rec(
                "r1",
                "single.h5",
                "/d",
                IoKind::Read,
                100,
                AccessType::RawData,
                30,
            ),
        ];
        let f = detect(&b);
        let reuse = f
            .iter()
            .find_map(|x| match x {
                Finding::DataReuse { file, readers } => Some((file.clone(), readers.len())),
                _ => None,
            })
            .expect("reuse finding");
        assert_eq!(reuse, ("shared.h5".to_owned(), 2));
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::DisposableData { file, .. } if file == "single.h5"
        )));
    }

    #[test]
    fn write_after_read_vs_read_after_write() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("war"));
        b.push_task(TaskKey::new("raw"));
        b.vfd = vec![
            // war: reads at t=0, writes at t=10.
            rec(
                "war",
                "a.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                0,
            ),
            rec(
                "war",
                "a.h5",
                "/d",
                IoKind::Write,
                10,
                AccessType::RawData,
                10,
            ),
            // raw: writes at t=0, reads at t=10.
            rec(
                "raw",
                "b.h5",
                "/d",
                IoKind::Write,
                10,
                AccessType::RawData,
                0,
            ),
            rec(
                "raw",
                "b.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                10,
            ),
        ];
        let f = detect(&b);
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::WriteAfterRead { task, file } if task == "war" && file == "a.h5"
        )));
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::ReadAfterWrite { task, file } if task == "raw" && file == "b.h5"
        )));
    }

    #[test]
    fn time_dependent_input() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        b.vfd = vec![
            rec(
                "t",
                "early_in.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                0,
            ),
            rec(
                "t",
                "out.h5",
                "/d",
                IoKind::Write,
                10,
                AccessType::RawData,
                50,
            ),
            rec(
                "t",
                "late_in.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                90,
            ),
        ];
        let f = detect(&b);
        let late: Vec<&str> = f
            .iter()
            .filter_map(|x| match x {
                Finding::TimeDependentInput { file, .. } => Some(file.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(late, vec!["late_in.h5"]);
    }

    #[test]
    fn small_scattered_datasets() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        for i in 0..15 {
            b.vfd.push(rec(
                "t",
                "scatter.h5",
                &format!("/small{i}"),
                IoKind::Write,
                100,
                AccessType::RawData,
                i,
            ));
        }
        // One big dataset should not count.
        b.vfd.push(rec(
            "t",
            "scatter.h5",
            "/big",
            IoKind::Write,
            1 << 20,
            AccessType::RawData,
            99,
        ));
        let scatter = |b: &TraceBundle| {
            detect(b)
                .iter()
                .find_map(|x| match x {
                    Finding::SmallScatteredDatasets {
                        file,
                        dataset_count,
                        mean_bytes,
                    } => Some((file.clone(), *dataset_count, *mean_bytes)),
                    _ => None,
                })
                .expect("scatter finding")
        };
        let (file, count, mean) = scatter(&b);
        assert_eq!(file, "scatter.h5");
        assert_eq!(count, 15);
        assert!((mean - 100.0).abs() < 1e-9);

        // One file mixing every sizing rule.
        let mut m = TraceBundle::new("wf");
        m.push_task(TaskKey::new("t"));
        m.push_task(TaskKey::new("u"));
        let sized = |task: &str, object: &str, logical_size: u64| VolRecord {
            task: TaskKey::new(task),
            file: FileKey::new("mixed.h5"),
            object: ObjectKey::new(object),
            kind: ObjectKind::Dataset,
            lifetimes: vec![],
            description: ObjectDescription {
                logical_size,
                ..Default::default()
            },
            accesses: vec![],
        };
        let write = |object: &str, len: u64, at: u64| {
            rec(
                "t",
                "mixed.h5",
                object,
                IoKind::Write,
                len,
                AccessType::RawData,
                at,
            )
        };
        // VOL-sized: the logical 40 bytes win over 900 raw bytes written.
        for i in 0..6 {
            m.vol.push(sized("t", &format!("/vol{i}"), 40));
            m.vfd.push(write(&format!("/vol{i}"), 900, i));
        }
        // Two VOL records: the last size (300) wins over the first (9000).
        m.vol.push(sized("t", "/twice", 9000));
        m.vol.push(sized("u", "/twice", 300));
        m.vfd.push(write("/twice", 5000, 10));
        // Raw-write-only: 60 + 60 bytes summed to 120.
        for i in 0..4 {
            m.vfd.push(write(&format!("/raw{i}"), 60, 20 + i));
            m.vfd.push(write(&format!("/raw{i}"), 60, 30 + i));
        }
        // Unattributed raw bytes are not a dataset.
        m.vfd.push(write("File-Metadata", 10, 40));
        let (file, count, mean) = scatter(&m);
        assert_eq!(file, "mixed.h5");
        assert_eq!(count, 11);
        assert!((mean - (6.0 * 40.0 + 300.0 + 4.0 * 120.0) / 11.0).abs() < 1e-9);
    }

    #[test]
    fn unused_dataset_metadata_only_reader() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("agg"));
        b.push_task(TaskKey::new("train"));
        b.vfd = vec![
            rec(
                "agg",
                "agg.h5",
                "/contact_map",
                IoKind::Write,
                1 << 20,
                AccessType::RawData,
                0,
            ),
            // Training touches only the dataset's metadata (Fig. 7 pop-up).
            rec(
                "train",
                "agg.h5",
                "/contact_map",
                IoKind::Read,
                512,
                AccessType::Metadata,
                10,
            ),
            rec(
                "agg",
                "agg.h5",
                "/rmsd",
                IoKind::Write,
                4096,
                AccessType::RawData,
                1,
            ),
            rec(
                "train",
                "agg.h5",
                "/rmsd",
                IoKind::Read,
                4096,
                AccessType::RawData,
                11,
            ),
        ];
        let f = detect(&b);
        let unused = f
            .iter()
            .find_map(|x| match x {
                Finding::UnusedDataset {
                    dataset,
                    metadata_only_readers,
                    never_read,
                    ..
                } => Some((dataset.clone(), metadata_only_readers.clone(), *never_read)),
                _ => None,
            })
            .expect("unused finding");
        assert_eq!(unused.0, "agg.h5:/contact_map");
        assert_eq!(unused.1, vec!["train"]);
        assert!(!unused.2);
        // rmsd is genuinely read: not flagged.
        assert!(!f.iter().any(|x| matches!(
            x,
            Finding::UnusedDataset { dataset, .. } if dataset.contains("rmsd")
        )));
    }

    #[test]
    fn never_read_dataset() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("w"));
        b.vfd = vec![rec(
            "w",
            "o.h5",
            "/orphan",
            IoKind::Write,
            100,
            AccessType::RawData,
            0,
        )];
        let f = detect(&b);
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::UnusedDataset {
                never_read: true,
                ..
            }
        )));
    }

    #[test]
    fn independent_consecutive_tasks() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("train"));
        b.push_task(TaskKey::new("infer"));
        b.vfd = vec![
            rec(
                "train",
                "model_in.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                0,
            ),
            rec(
                "infer",
                "sim.h5",
                "/d",
                IoKind::Read,
                10,
                AccessType::RawData,
                5,
            ),
        ];
        let f = detect(&b);
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::IndependentTasks { first, second }
                if first == "train" && second == "infer"
        )));
    }

    #[test]
    fn metadata_heavy_file() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        for i in 0..20 {
            b.vfd.push(rec(
                "t",
                "m.h5",
                "/d",
                IoKind::Read,
                12,
                AccessType::Metadata,
                i,
            ));
        }
        b.vfd.push(rec(
            "t",
            "m.h5",
            "/d",
            IoKind::Read,
            4096,
            AccessType::RawData,
            99,
        ));
        let f = detect(&b);
        let m = f
            .iter()
            .find_map(|x| match x {
                Finding::MetadataHeavyFile {
                    file,
                    metadata_fraction,
                    total_ops,
                } => Some((file.clone(), *metadata_fraction, *total_ops)),
                _ => None,
            })
            .expect("metadata-heavy finding");
        assert_eq!(m.0, "m.h5");
        assert_eq!(m.2, 21);
        assert!(m.1 > 0.9);
    }

    #[test]
    fn layout_findings_from_vol_descriptions() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        b.vol.push(VolRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("d.h5"),
            object: ObjectKey::new("/small_chunked"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![],
            description: ObjectDescription {
                shape: vec![100],
                dtype: Some(DataType::Float { width: 8 }),
                logical_size: 800,
                layout: Some(LayoutKind::Chunked),
                chunk_shape: vec![10],
            },
            accesses: vec![],
        });
        b.vol.push(VolRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("d.h5"),
            object: ObjectKey::new("/vl_contig"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![],
            description: ObjectDescription {
                shape: vec![100],
                dtype: Some(DataType::VarLen),
                logical_size: 6 << 20,
                layout: Some(LayoutKind::Contiguous),
                chunk_shape: vec![],
            },
            accesses: vec![],
        });
        let f = detect(&b);
        assert!(has(&f, "chunked-small-dataset"));
        assert!(has(&f, "contiguous-varlen-dataset"));
    }

    #[test]
    fn random_access_on_large_contiguous_dataset() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        // Large contiguous dataset per its VOL description…
        b.vol.push(VolRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("big.h5"),
            object: ObjectKey::new("/grid"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![],
            description: ObjectDescription {
                shape: vec![1 << 21],
                dtype: Some(DataType::Int { width: 1 }),
                logical_size: 2 << 20,
                layout: Some(LayoutKind::Contiguous),
                chunk_shape: vec![],
            },
            accesses: vec![],
        });
        // …hit at scattered offsets.
        for i in 0..20u64 {
            b.vfd.push(VfdRecord {
                task: TaskKey::new("t"),
                file: FileKey::new("big.h5"),
                kind: IoKind::Read,
                offset: (i * 7919 * 131) % (2 << 20),
                len: 512,
                access: AccessType::RawData,
                object: ObjectKey::new("/grid"),
                start: Timestamp(i),
                end: Timestamp(i + 1),
            });
        }
        let f = detect(&b);
        let hit = f.iter().find_map(|x| match x {
            Finding::RandomAccessContiguous {
                dataset,
                sequential_fraction,
                ops,
            } => Some((dataset.clone(), *sequential_fraction, *ops)),
            _ => None,
        });
        let (dataset, frac, ops) = hit.expect("random access flagged");
        assert_eq!(dataset, "big.h5:/grid");
        assert!(frac < 0.3);
        assert_eq!(ops, 20);

        // A second task describing the same dataset is still one finding.
        let mut shared = b.clone();
        let mut other = b.vol[0].clone();
        other.task = TaskKey::new("u");
        shared.push_task(TaskKey::new("u"));
        shared.vol.push(other);
        let flagged = detect(&shared)
            .into_iter()
            .filter(|x| x.category() == "random-access-contiguous")
            .count();
        assert_eq!(flagged, 1);

        // A sequential reader of the same dataset is NOT flagged.
        let mut b2 = b.clone();
        b2.vfd.clear();
        for i in 0..20u64 {
            b2.vfd.push(VfdRecord {
                task: TaskKey::new("t"),
                file: FileKey::new("big.h5"),
                kind: IoKind::Read,
                offset: i * 512,
                len: 512,
                access: AccessType::RawData,
                object: ObjectKey::new("/grid"),
                start: Timestamp(i),
                end: Timestamp(i + 1),
            });
        }
        assert!(!detect(&b2)
            .iter()
            .any(|x| x.category() == "random-access-contiguous"));
    }

    #[test]
    fn coschedulable_chain() {
        let mut b = TraceBundle::new("wf");
        for t in ["s3", "s4", "s5"] {
            b.push_task(TaskKey::new(t));
        }
        b.vfd = vec![
            rec(
                "s3",
                "tracks.h5",
                "/d",
                IoKind::Write,
                100,
                AccessType::RawData,
                0,
            ),
            rec(
                "s4",
                "tracks.h5",
                "/d",
                IoKind::Read,
                100,
                AccessType::RawData,
                10,
            ),
            rec(
                "s4",
                "stats.h5",
                "/d",
                IoKind::Write,
                100,
                AccessType::RawData,
                20,
            ),
            rec(
                "s5",
                "stats.h5",
                "/d",
                IoKind::Read,
                100,
                AccessType::RawData,
                30,
            ),
        ];
        let f = detect(&b);
        let pairs: Vec<(String, String)> = f
            .iter()
            .filter_map(|x| match x {
                Finding::CoSchedulable {
                    producer, consumer, ..
                } => Some((producer.clone(), consumer.clone())),
                _ => None,
            })
            .collect();
        assert!(pairs.contains(&("s3".into(), "s4".into())));
        assert!(pairs.contains(&("s4".into(), "s5".into())));
    }

    #[test]
    fn degraded_tasks_are_reported_first() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("lost"));
        b.vfd = vec![rec(
            "lost",
            "part.h5",
            "/d",
            IoKind::Write,
            64,
            AccessType::RawData,
            0,
        )];
        b.mark_degraded(TaskKey::new("lost"));
        let f = detect(&b);
        assert!(matches!(
            &f[0],
            Finding::DegradedTrace { task } if task == "lost"
        ));
        assert!(has(&f, "degraded-trace"));
        // An intact bundle never produces the finding.
        assert!(!has(&detect(&TraceBundle::new("clean")), "degraded-trace"));
    }

    #[test]
    fn recovered_tasks_are_reported() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("phoenix"));
        b.vfd = vec![rec(
            "phoenix",
            "out.h5",
            "/d",
            IoKind::Write,
            64,
            AccessType::RawData,
            0,
        )];
        b.mark_recovered(TaskKey::new("phoenix"));
        let f = detect(&b);
        assert!(f.iter().any(|x| matches!(
            x,
            Finding::RecoveredTask { task } if task == "phoenix"
        )));
        // Recovered is not degraded: the trace is the complete retry.
        assert!(!has(&f, "degraded-trace"));
        assert!(!has(&detect(&TraceBundle::new("clean")), "recovered-task"));
    }

    #[test]
    fn clean_bundle_produces_no_spurious_findings() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("solo"));
        b.vfd = vec![
            rec(
                "solo",
                "big.h5",
                "/d",
                IoKind::Write,
                8 << 20,
                AccessType::RawData,
                0,
            ),
            rec(
                "solo",
                "big.h5",
                "/d",
                IoKind::Read,
                8 << 20,
                AccessType::RawData,
                10,
            ),
        ];
        let f = detect(&b);
        assert!(!has(&f, "small-scattered-datasets"));
        assert!(!has(&f, "metadata-heavy-file"));
        assert!(!has(&f, "data-reuse"));
        assert!(!has(&f, "independent-tasks"));
    }

    #[test]
    fn end_to_end_with_real_mapper_traces() {
        use dayu_hdf::{DataType as DT, DatasetBuilder, H5File};
        use dayu_mapper::Mapper;
        use dayu_vfd::MemFs;

        let fs = MemFs::new();
        let mapper = Mapper::new("mini");
        mapper.set_task("producer");
        {
            let f = H5File::create(
                mapper.wrap_vfd(fs.create("x.h5"), "x.h5"),
                "x.h5",
                mapper.file_options(),
            )
            .unwrap();
            let mut ds = f
                .root()
                .create_dataset("d", DatasetBuilder::new(DT::Int { width: 8 }, &[64]))
                .unwrap();
            ds.write_u64s(&[7; 64]).unwrap();
            ds.close().unwrap();
            f.close().unwrap();
        }
        for consumer in ["c1", "c2"] {
            mapper.set_task(consumer);
            let f = H5File::open(
                mapper.wrap_vfd(fs.open("x.h5"), "x.h5"),
                "x.h5",
                mapper.file_options(),
            )
            .unwrap();
            let mut ds = f.root().open_dataset("d").unwrap();
            ds.read_u64s().unwrap();
            ds.close().unwrap();
            f.close().unwrap();
        }
        let bundle = mapper.into_bundle();
        let f = detect(&bundle);
        assert!(
            f.iter().any(|x| matches!(
                x,
                Finding::DataReuse { file, readers } if file == "x.h5" && readers.len() == 2
            )),
            "real traces show the reuse: {f:?}"
        );
    }
}
