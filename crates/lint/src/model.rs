//! The diagnostic model shared by all three passes.
//!
//! Mirrors the analyzer's `Finding` idiom: a closed enum of structured
//! findings, each with a stable kebab-case category for aggregation, plus a
//! [`Report`] collecting them. Unlike the analyzer's findings (which are
//! *opportunities*), every lint finding is a defect: a plan, trace or file
//! exhibiting it is unsafe to run, optimize or read.

use dayu_trace::json::{ToJson, Writer};
use dayu_trace::to_json;
use std::fmt;

/// One defect surfaced by a lint pass.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// Two tasks that may run concurrently both write the same file.
    WriteWriteRace {
        /// The contended file.
        file: String,
        /// First writer (lexicographically smaller name).
        first: String,
        /// Second writer.
        second: String,
    },
    /// A task reads a file that is written somewhere in the plan, but no
    /// writer is guaranteed to have finished first.
    ReadBeforeWrite {
        /// The file read too early.
        file: String,
        /// The reading task.
        reader: String,
        /// The writers none of which happen-before the reader.
        writers: Vec<String>,
    },
    /// A task reads a file after its stage-out/drop task has run.
    UseAfterDispose {
        /// The disposed file.
        file: String,
        /// The late reader.
        reader: String,
        /// The disposing task (e.g. `stage_out:<file>`).
        disposer: String,
    },
    /// A task reads a file no plan task produces and that is not declared
    /// as an external input.
    DanglingFileRef {
        /// The unknown file.
        file: String,
        /// The reading task.
        reader: String,
    },
    /// A transform removed the happens-before edge between a producer and
    /// a consumer of the same file (reported by the verifier only).
    OrderingLost {
        /// The file whose ordering broke.
        file: String,
        /// The producing task.
        producer: String,
        /// The consuming task that no longer waits for it.
        consumer: String,
    },
    /// The superblock is missing, undecodable or inconsistent.
    SuperblockInvalid {
        /// What is wrong with it.
        detail: String,
    },
    /// An object header block is undecodable or internally inconsistent.
    ObjectHeaderInvalid {
        /// Path of the object (best effort).
        path: String,
        /// Address of the header block.
        addr: u64,
        /// What is wrong with it.
        detail: String,
    },
    /// Two allocated structures occupy overlapping byte ranges.
    OverlappingExtents {
        /// Label of the first structure.
        a: String,
        /// First structure's address.
        a_addr: u64,
        /// First structure's length.
        a_len: u64,
        /// Label of the second structure.
        b: String,
        /// Second structure's address.
        b_addr: u64,
        /// Second structure's length.
        b_len: u64,
    },
    /// A chunk-index entry points at bytes outside the allocated file.
    ChunkEntryOutOfBounds {
        /// Path of the chunked dataset.
        dataset: String,
        /// Chunk ordinal within the index.
        ordinal: u64,
        /// Recorded chunk address.
        addr: u64,
        /// Recorded chunk size.
        size: u64,
        /// The file's allocated end.
        eof: u64,
    },
    /// A variable-length descriptor references a missing or truncated
    /// global-heap block.
    DanglingHeapRef {
        /// Path of the dataset holding the descriptor.
        dataset: String,
        /// The referenced heap-block address.
        block_addr: u64,
        /// What is wrong with the reference.
        detail: String,
    },
    /// Raw-data storage of two *different* datasets claims the same file
    /// bytes: writing either dataset silently corrupts the other. More
    /// specific than [`Finding::OverlappingExtents`], which covers
    /// metadata-involved or same-dataset collisions.
    SharedRawExtent {
        /// Lexicographically smaller of the two dataset paths.
        a_dataset: String,
        /// Lexicographically larger of the two dataset paths.
        b_dataset: String,
        /// Start of the shared byte range.
        start: u64,
        /// End (exclusive) of the shared byte range.
        end: u64,
    },
    /// Two concurrent tasks touched overlapping raw-data byte extents of
    /// one file, at least one side writing. Disjoint-extent concurrency is
    /// deliberately *not* a finding — that is the safe chunk-parallel
    /// pattern the paper encourages.
    ExtentRace {
        /// The contended file.
        file: String,
        /// Datasets the colliding extents belong to (sorted, deduped).
        datasets: Vec<String>,
        /// First offending task (lexicographically smaller name).
        first: String,
        /// Second offending task.
        second: String,
        /// `true` for write-write, `false` for write-read.
        write_write: bool,
        /// Start of the overlapping byte range (widest observed).
        start: u64,
        /// End (exclusive) of the overlapping byte range.
        end: u64,
    },
    /// A task issued data I/O on a file after closing it.
    UseAfterClose {
        /// The closed file.
        file: String,
        /// The offending task.
        task: String,
        /// Dataset the late op was attributed to.
        dataset: String,
    },
    /// A dataset somebody wrote but nobody — in the entire recorded
    /// workflow — ever read: dead data an in-situ rewrite could elide.
    DeadDataset {
        /// File holding the dataset.
        file: String,
        /// The unread dataset.
        dataset: String,
        /// Tasks that wrote it.
        writers: Vec<String>,
        /// Raw bytes written to it.
        bytes: u64,
    },
    /// A task reads a dataset that is written in the workflow, but no
    /// writer is ordered before the read (dataset-granularity
    /// read-before-write).
    DatasetReadBeforeWrite {
        /// File holding the dataset.
        file: String,
        /// The dataset read too early.
        dataset: String,
        /// The reading task.
        reader: String,
        /// The writers none of which happen-before the reader.
        writers: Vec<String>,
    },
    /// An ordered later writer fully re-covered a dataset's bytes before
    /// anyone read the first version: the first write was wasted I/O.
    RedundantOverwrite {
        /// File holding the dataset.
        file: String,
        /// The overwritten dataset.
        dataset: String,
        /// The task whose write was never consumed.
        first: String,
        /// The overwriting task.
        second: String,
        /// Bytes of the first write that were re-covered.
        bytes: u64,
    },
    /// A recorded run disagreed with a task's declared I/O contract:
    /// either the task touched bytes outside its declared footprint
    /// (`undeclared: true`) or a declared clause was never exercised at
    /// all (`undeclared: false` — declared-but-untouched waste).
    ContractViolation {
        /// The offending task.
        task: String,
        /// File the disagreement is about.
        file: String,
        /// Dataset within the file.
        dataset: String,
        /// `"read"` or `"write"`.
        access: String,
        /// Start of the disputed logical byte range.
        start: u64,
        /// End (exclusive) of the disputed logical byte range.
        end: u64,
        /// `true` when the trace touched bytes the contract never
        /// declared; `false` when the contract declared bytes the trace
        /// never touched.
        undeclared: bool,
    },
    /// A recorded run moved raw bytes along a task↔dataset edge the
    /// contract-predicted sSDG does not contain: the task's declared
    /// contract has a hole, and every static proof about the task
    /// (disjointness, plan cost, elision safety) silently under-counts.
    IncompleteContract {
        /// The task whose contract under-declares.
        task: String,
        /// File the unpredicted flow targets.
        file: String,
        /// Dataset within the file.
        dataset: String,
        /// `"read"` or `"write"`.
        access: String,
        /// Raw bytes observed along the unpredicted edge.
        bytes: u64,
    },
    /// A recorded SDG edge whose *structure* the static prediction cannot
    /// explain at all — e.g. a recorded task the workflow spec never
    /// declares, so no contract could even be consulted for the edge.
    GraphMismatch {
        /// Source node label of the offending recorded edge.
        from: String,
        /// Destination node label of the offending recorded edge.
        to: String,
        /// Why the edge has no static counterpart.
        detail: String,
    },
}

to_json!(enum Finding {
    WriteWriteRace { file, first, second },
    ReadBeforeWrite { file, reader, writers },
    UseAfterDispose { file, reader, disposer },
    DanglingFileRef { file, reader },
    OrderingLost { file, producer, consumer },
    SuperblockInvalid { detail },
    ObjectHeaderInvalid { path, addr, detail },
    OverlappingExtents { a, a_addr, a_len, b, b_addr, b_len },
    ChunkEntryOutOfBounds { dataset, ordinal, addr, size, eof },
    DanglingHeapRef { dataset, block_addr, detail },
    SharedRawExtent { a_dataset, b_dataset, start, end },
    ExtentRace { file, datasets, first, second, write_write, start, end },
    UseAfterClose { file, task, dataset },
    DeadDataset { file, dataset, writers, bytes },
    DatasetReadBeforeWrite { file, dataset, reader, writers },
    RedundantOverwrite { file, dataset, first, second, bytes },
    ContractViolation { task, file, dataset, access, start, end, undeclared },
    IncompleteContract { task, file, dataset, access, bytes },
    GraphMismatch { from, to, detail },
});

/// Structural identity of a finding: category plus the fields that pin it
/// to a specific defect site, with free-text details (messages, byte
/// counts that vary run to run) left out. The verifier diffs reports by
/// key, so two findings describing the same defect compare equal even if
/// incidental fields differ.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FindingKey {
    /// The finding's stable category label.
    pub category: &'static str,
    /// Identity fields in variant-specific order (file/task/dataset names).
    pub parts: Vec<String>,
    /// Byte span when the variant carries one, else `(0, 0)`.
    pub span: (u64, u64),
    /// Variant-specific flag (`write_write`, `undeclared`), else `false`.
    pub flag: bool,
}

impl Finding {
    /// Stable category label for aggregation and CLI output.
    pub fn category(&self) -> &'static str {
        match self {
            Finding::WriteWriteRace { .. } => "write-write-race",
            Finding::ReadBeforeWrite { .. } => "read-before-write",
            Finding::UseAfterDispose { .. } => "use-after-dispose",
            Finding::DanglingFileRef { .. } => "dangling-file-ref",
            Finding::OrderingLost { .. } => "ordering-lost",
            Finding::SuperblockInvalid { .. } => "superblock-invalid",
            Finding::ObjectHeaderInvalid { .. } => "object-header-invalid",
            Finding::OverlappingExtents { .. } => "overlapping-extents",
            Finding::ChunkEntryOutOfBounds { .. } => "chunk-out-of-bounds",
            Finding::DanglingHeapRef { .. } => "dangling-heap-ref",
            Finding::SharedRawExtent { .. } => "shared-raw-extent",
            Finding::ExtentRace { .. } => "extent-race",
            Finding::UseAfterClose { .. } => "use-after-close",
            Finding::DeadDataset { .. } => "dead-dataset",
            Finding::DatasetReadBeforeWrite { .. } => "dataset-read-before-write",
            Finding::RedundantOverwrite { .. } => "redundant-overwrite",
            Finding::ContractViolation { .. } => "contract-violation",
            Finding::IncompleteContract { .. } => "incomplete-contract",
            Finding::GraphMismatch { .. } => "graph-mismatch",
        }
    }

    /// Structural identity key (see [`FindingKey`]). Replaces the old
    /// `format!("{self:?}")` keys, which changed meaning whenever a field
    /// was renamed or a derive reordered output.
    pub fn key(&self) -> FindingKey {
        let mut parts: Vec<String> = Vec::new();
        let mut span = (0u64, 0u64);
        let mut flag = false;
        match self {
            Finding::WriteWriteRace {
                file,
                first,
                second,
            } => parts.extend([file.clone(), first.clone(), second.clone()]),
            Finding::ReadBeforeWrite {
                file,
                reader,
                writers,
            } => {
                parts.extend([file.clone(), reader.clone()]);
                let mut w = writers.clone();
                w.sort_unstable();
                parts.extend(w);
            }
            Finding::UseAfterDispose {
                file,
                reader,
                disposer,
            } => parts.extend([file.clone(), reader.clone(), disposer.clone()]),
            Finding::DanglingFileRef { file, reader } => {
                parts.extend([file.clone(), reader.clone()]);
            }
            Finding::OrderingLost {
                file,
                producer,
                consumer,
            } => parts.extend([file.clone(), producer.clone(), consumer.clone()]),
            Finding::SuperblockInvalid { detail } => parts.push(detail.clone()),
            Finding::ObjectHeaderInvalid { path, addr, detail } => {
                parts.extend([path.clone(), detail.clone()]);
                span = (*addr, 0);
            }
            Finding::OverlappingExtents {
                a,
                a_addr,
                b,
                b_addr,
                ..
            } => {
                parts.extend([a.clone(), b.clone()]);
                span = (*a_addr, *b_addr);
            }
            Finding::ChunkEntryOutOfBounds {
                dataset,
                ordinal,
                addr,
                size,
                ..
            } => {
                parts.extend([dataset.clone(), ordinal.to_string()]);
                span = (*addr, addr.saturating_add(*size));
            }
            Finding::DanglingHeapRef {
                dataset,
                block_addr,
                detail,
            } => {
                parts.extend([dataset.clone(), detail.clone()]);
                span = (*block_addr, 0);
            }
            Finding::SharedRawExtent {
                a_dataset,
                b_dataset,
                start,
                end,
            } => {
                parts.extend([a_dataset.clone(), b_dataset.clone()]);
                span = (*start, *end);
            }
            Finding::ExtentRace {
                file,
                datasets,
                first,
                second,
                write_write,
                start,
                end,
            } => {
                parts.extend([file.clone(), first.clone(), second.clone()]);
                parts.extend(datasets.iter().cloned());
                span = (*start, *end);
                flag = *write_write;
            }
            Finding::UseAfterClose {
                file,
                task,
                dataset,
            } => parts.extend([file.clone(), task.clone(), dataset.clone()]),
            Finding::DeadDataset { file, dataset, .. } => {
                parts.extend([file.clone(), dataset.clone()]);
            }
            Finding::DatasetReadBeforeWrite {
                file,
                dataset,
                reader,
                ..
            } => parts.extend([file.clone(), dataset.clone(), reader.clone()]),
            Finding::RedundantOverwrite {
                file,
                dataset,
                first,
                second,
                ..
            } => parts.extend([file.clone(), dataset.clone(), first.clone(), second.clone()]),
            Finding::ContractViolation {
                task,
                file,
                dataset,
                access,
                start,
                end,
                undeclared,
            } => {
                parts.extend([task.clone(), file.clone(), dataset.clone(), access.clone()]);
                span = (*start, *end);
                flag = *undeclared;
            }
            Finding::IncompleteContract {
                task,
                file,
                dataset,
                access,
                ..
            } => parts.extend([task.clone(), file.clone(), dataset.clone(), access.clone()]),
            Finding::GraphMismatch { from, to, .. } => {
                parts.extend([from.clone(), to.clone()]);
            }
        }
        FindingKey {
            category: self.category(),
            parts,
            span,
            flag,
        }
    }

    /// Every category label the linter can emit, in a stable order. The
    /// CLI validates `--deny` arguments against this list.
    pub fn categories() -> &'static [&'static str] {
        &[
            "write-write-race",
            "read-before-write",
            "use-after-dispose",
            "dangling-file-ref",
            "ordering-lost",
            "superblock-invalid",
            "object-header-invalid",
            "overlapping-extents",
            "chunk-out-of-bounds",
            "dangling-heap-ref",
            "shared-raw-extent",
            "extent-race",
            "use-after-close",
            "dead-dataset",
            "dataset-read-before-write",
            "redundant-overwrite",
            "contract-violation",
            "incomplete-contract",
            "graph-mismatch",
        ]
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::WriteWriteRace {
                file,
                first,
                second,
            } => write!(
                f,
                "tasks {first:?} and {second:?} may write {file:?} concurrently"
            ),
            Finding::ReadBeforeWrite {
                file,
                reader,
                writers,
            } => write!(
                f,
                "task {reader:?} reads {file:?} with no ordered producer (written by {writers:?})"
            ),
            Finding::UseAfterDispose {
                file,
                reader,
                disposer,
            } => write!(
                f,
                "task {reader:?} reads {file:?} after {disposer:?} disposed of it"
            ),
            Finding::DanglingFileRef { file, reader } => write!(
                f,
                "task {reader:?} reads {file:?}, which no task produces and no input declares"
            ),
            Finding::OrderingLost {
                file,
                producer,
                consumer,
            } => write!(
                f,
                "transform reordered producer {producer:?} past consumer {consumer:?} of {file:?}"
            ),
            Finding::SuperblockInvalid { detail } => write!(f, "superblock: {detail}"),
            Finding::ObjectHeaderInvalid { path, addr, detail } => {
                write!(f, "object header {path:?} at {addr}: {detail}")
            }
            Finding::OverlappingExtents {
                a,
                a_addr,
                a_len,
                b,
                b_addr,
                b_len,
            } => write!(
                f,
                "{a} [{a_addr}, {}) overlaps {b} [{b_addr}, {})",
                a_addr + a_len,
                b_addr + b_len
            ),
            Finding::ChunkEntryOutOfBounds {
                dataset,
                ordinal,
                addr,
                size,
                eof,
            } => write!(
                f,
                "chunk {ordinal} of {dataset:?} at [{addr}, {}) lies beyond eof {eof}",
                addr + size
            ),
            Finding::DanglingHeapRef {
                dataset,
                block_addr,
                detail,
            } => write!(
                f,
                "var-len descriptor in {dataset:?} references heap block {block_addr}: {detail}"
            ),
            Finding::SharedRawExtent {
                a_dataset,
                b_dataset,
                start,
                end,
            } => write!(
                f,
                "raw data of {a_dataset:?} and {b_dataset:?} share bytes [{start}, {end})"
            ),
            Finding::ExtentRace {
                file,
                datasets,
                first,
                second,
                write_write,
                start,
                end,
            } => {
                let kind = if *write_write {
                    "both write"
                } else {
                    "write/read"
                };
                write!(
                    f,
                    "tasks {first:?} and {second:?} concurrently {kind} bytes [{start}, {end}) of {file:?} (datasets {datasets:?})"
                )
            }
            Finding::UseAfterClose {
                file,
                task,
                dataset,
            } => write!(
                f,
                "task {task:?} touches {dataset:?} in {file:?} after closing the file"
            ),
            Finding::DeadDataset {
                file,
                dataset,
                writers,
                bytes,
            } => write!(
                f,
                "dataset {dataset:?} in {file:?} ({bytes} B written by {writers:?}) is never read"
            ),
            Finding::DatasetReadBeforeWrite {
                file,
                dataset,
                reader,
                writers,
            } => write!(
                f,
                "task {reader:?} reads {dataset:?} in {file:?} with no ordered producer (written by {writers:?})"
            ),
            Finding::RedundantOverwrite {
                file,
                dataset,
                first,
                second,
                bytes,
            } => write!(
                f,
                "{second:?} fully overwrites the {bytes} B {first:?} wrote to {dataset:?} in {file:?} before anyone read them"
            ),
            Finding::ContractViolation {
                task,
                file,
                dataset,
                access,
                start,
                end,
                undeclared,
            } => {
                if *undeclared {
                    write!(
                        f,
                        "task {task:?} {access}s bytes [{start}, {end}) of {dataset:?} in {file:?} outside its declared contract"
                    )
                } else {
                    write!(
                        f,
                        "task {task:?} declares a {access} of [{start}, {end}) of {dataset:?} in {file:?} but never touched it"
                    )
                }
            }
            Finding::IncompleteContract {
                task,
                file,
                dataset,
                access,
                bytes,
            } => write!(
                f,
                "task {task:?} moved {bytes} raw B ({access}) of {dataset:?} in {file:?} along an edge its contract never predicts"
            ),
            Finding::GraphMismatch { from, to, detail } => write!(
                f,
                "recorded edge {from:?} -> {to:?} has no static counterpart: {detail}"
            ),
        }
    }
}

/// The outcome of a lint pass: zero or more findings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Defects found, in discovery order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the pass found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Whether the report holds no findings (alias of [`Report::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Appends a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Absorbs another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// Findings per category, in stable category order.
    pub fn counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for f in &self.findings {
            *out.entry(f.category()).or_insert(0) += 1;
        }
        out
    }

    /// Findings whose category is in `denied` — the set a CI gate fails
    /// on. An empty `denied` list denies every category (plain
    /// `check` semantics).
    pub fn denied<'a>(&'a self, denied: &[String]) -> Vec<&'a Finding> {
        self.findings
            .iter()
            .filter(|f| denied.is_empty() || denied.iter().any(|d| d == f.category()))
            .collect()
    }

    /// Structured machine-readable export: category + human message +
    /// full structured fields per finding, plus per-category counts.
    /// Stable field order, suitable for byte-exact comparison across trace
    /// formats.
    pub fn to_json(&self) -> String {
        /// One finding: `{"category", "message", "data"}`.
        struct Entry<'a>(&'a Finding);
        impl ToJson for Entry<'_> {
            fn write_json(&self, w: &mut Writer) {
                w.object(|w| {
                    w.field("category", self.0.category());
                    w.field("message", &self.0.to_string());
                    w.field("data", self.0);
                });
            }
        }
        let mut w = Writer::new(true);
        w.object(|w| {
            w.field("total", &self.findings.len());
            w.field("counts", &self.counts());
            w.key("findings");
            w.array(self.findings.iter().map(Entry));
        });
        w.into_string()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "clean: 0 findings");
        }
        writeln!(f, "{} finding(s):", self.findings.len())?;
        for finding in &self.findings {
            writeln!(f, "  [{}] {finding}", finding.category())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_stable() {
        let f = Finding::WriteWriteRace {
            file: "f".into(),
            first: "a".into(),
            second: "b".into(),
        };
        assert_eq!(f.category(), "write-write-race");
        assert!(f.to_string().contains("concurrently"));
    }

    #[test]
    fn report_collects_and_displays() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(r.is_empty());
        r.push(Finding::SuperblockInvalid {
            detail: "bad magic".into(),
        });
        let mut other = Report::new();
        other.push(Finding::DanglingFileRef {
            file: "x".into(),
            reader: "t".into(),
        });
        r.merge(other);
        assert_eq!(r.len(), 2);
        let text = r.to_string();
        assert!(text.contains("superblock-invalid"));
        assert!(text.contains("dangling-file-ref"));
    }

    #[test]
    fn every_variant_category_is_listed() {
        for c in [
            Finding::ExtentRace {
                file: "f".into(),
                datasets: vec!["/d".into()],
                first: "a".into(),
                second: "b".into(),
                write_write: true,
                start: 0,
                end: 8,
            }
            .category(),
            Finding::UseAfterClose {
                file: "f".into(),
                task: "t".into(),
                dataset: "/d".into(),
            }
            .category(),
            Finding::DeadDataset {
                file: "f".into(),
                dataset: "/d".into(),
                writers: vec![],
                bytes: 0,
            }
            .category(),
            Finding::DatasetReadBeforeWrite {
                file: "f".into(),
                dataset: "/d".into(),
                reader: "r".into(),
                writers: vec![],
            }
            .category(),
            Finding::RedundantOverwrite {
                file: "f".into(),
                dataset: "/d".into(),
                first: "a".into(),
                second: "b".into(),
                bytes: 4,
            }
            .category(),
            Finding::SharedRawExtent {
                a_dataset: "/a".into(),
                b_dataset: "/b".into(),
                start: 0,
                end: 8,
            }
            .category(),
            Finding::ContractViolation {
                task: "t".into(),
                file: "f".into(),
                dataset: "/d".into(),
                access: "write".into(),
                start: 0,
                end: 8,
                undeclared: true,
            }
            .category(),
            Finding::IncompleteContract {
                task: "t".into(),
                file: "f".into(),
                dataset: "/d".into(),
                access: "read".into(),
                bytes: 64,
            }
            .category(),
            Finding::GraphMismatch {
                from: "f:/d".into(),
                to: "t".into(),
                detail: "task not in spec".into(),
            }
            .category(),
        ] {
            assert!(Finding::categories().contains(&c), "{c} missing");
        }
    }

    #[test]
    fn structural_keys_ignore_detail_fields() {
        let a = Finding::DeadDataset {
            file: "f".into(),
            dataset: "/d".into(),
            writers: vec!["w1".into()],
            bytes: 100,
        };
        let b = Finding::DeadDataset {
            file: "f".into(),
            dataset: "/d".into(),
            writers: vec!["w2".into(), "w3".into()],
            bytes: 999,
        };
        assert_eq!(a.key(), b.key(), "same defect site, different detail");
        let c = Finding::DeadDataset {
            file: "f".into(),
            dataset: "/other".into(),
            writers: vec![],
            bytes: 0,
        };
        assert_ne!(a.key(), c.key());
        // Cross-variant keys never collide even with identical parts.
        let race = Finding::WriteWriteRace {
            file: "f".into(),
            first: "/d".into(),
            second: "x".into(),
        };
        assert_ne!(a.key().category, race.key().category);
    }

    #[test]
    fn contract_violation_displays_both_directions() {
        let undeclared = Finding::ContractViolation {
            task: "t".into(),
            file: "f.h5".into(),
            dataset: "/raw".into(),
            access: "write".into(),
            start: 4096,
            end: 8192,
            undeclared: true,
        };
        assert!(undeclared
            .to_string()
            .contains("outside its declared contract"));
        let waste = Finding::ContractViolation {
            task: "t".into(),
            file: "f.h5".into(),
            dataset: "/raw".into(),
            access: "read".into(),
            start: 0,
            end: 4096,
            undeclared: false,
        };
        assert!(waste.to_string().contains("never touched"));
        assert_ne!(undeclared.key(), waste.key());
    }

    #[test]
    fn counts_deny_and_json_export() {
        let mut r = Report::new();
        r.push(Finding::ExtentRace {
            file: "f".into(),
            datasets: vec!["/d".into()],
            first: "a".into(),
            second: "b".into(),
            write_write: false,
            start: 16,
            end: 32,
        });
        r.push(Finding::DeadDataset {
            file: "f".into(),
            dataset: "/unused".into(),
            writers: vec!["a".into()],
            bytes: 128,
        });
        assert_eq!(r.counts().get("extent-race"), Some(&1));
        assert_eq!(r.denied(&[]).len(), 2);
        assert_eq!(r.denied(&["extent-race".to_owned()]).len(), 1);
        assert_eq!(r.denied(&["use-after-close".to_owned()]).len(), 0);
        let json = r.to_json();
        assert_eq!(
            json,
            r#"{
  "total": 2,
  "counts": {
    "dead-dataset": 1,
    "extent-race": 1
  },
  "findings": [
    {
      "category": "extent-race",
      "message": "tasks \"a\" and \"b\" concurrently write/read bytes [16, 32) of \"f\" (datasets [\"/d\"])",
      "data": {
        "ExtentRace": {
          "file": "f",
          "datasets": [
            "/d"
          ],
          "first": "a",
          "second": "b",
          "write_write": false,
          "start": 16,
          "end": 32
        }
      }
    },
    {
      "category": "dead-dataset",
      "message": "dataset \"/unused\" in \"f\" (128 B written by [\"a\"]) is never read",
      "data": {
        "DeadDataset": {
          "file": "f",
          "dataset": "/unused",
          "writers": [
            "a"
          ],
          "bytes": 128
        }
      }
    }
  ]
}"#
        );
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"extent-race\""));
        assert!(json.contains("\"ExtentRace\""));
    }
}
