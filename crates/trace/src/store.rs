//! Trace container and persistence.
//!
//! The Data Semantic Mapper accumulates statistics "as entries in a hash
//! table in the duration of the task" and flushes them when files close. The
//! flushed records from every task of a workflow are collected into a
//! [`TraceBundle`], the interchange format consumed by the Workflow Analyzer.
//!
//! Bundles persist in one format, `.dtb` ([`crate::binary`]): varint-framed
//! records over a per-section string table. It streams without buffering
//! the whole trace, and bundles from separately-profiled tasks concatenate
//! by appending files. JSON Lines (one header line, then one line per
//! record) is an export only: [`TraceBundle::write_jsonl`] writes it and
//! nothing reads it back.

use crate::ids::TaskKey;
use crate::intern::SymbolSet;
use crate::json::{self, ToJson, Writer};
use crate::section::SharedSection;
use crate::vfd::{FileRecord, VfdRecord};
use crate::vol::VolRecord;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

/// Bundle-level metadata.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMeta {
    /// Human-readable workflow name.
    pub workflow: String,
    /// Execution order of tasks. The paper notes FTG construction "requires
    /// manual input for task ordering" (future versions integrate with
    /// workflow managers); the workflow engine in this repo supplies it
    /// automatically.
    pub task_order: Vec<TaskKey>,
    /// Page size (bytes) used when bucketing file addresses into regions for
    /// SDG address nodes.
    pub page_size: u64,
    /// Tasks whose trace is truncated: the task died (or exhausted its
    /// retries) mid-session and its records were salvaged at that point.
    /// Graphs built from such a bundle are lower bounds, not the full
    /// dataflow. Absent in pre-salvage traces, hence empty by default.
    pub degraded_tasks: Vec<TaskKey>,
    /// Tasks that resumed from crash recovery: a retry attempt reopened a
    /// journaled file an earlier attempt left unclean and rolled it to its
    /// last committed state before continuing. Their records describe the
    /// *successful* attempt over recovered state, so graphs are complete —
    /// unlike [`TraceMeta::degraded_tasks`] — but timing includes the
    /// recovery pause. Absent in pre-recovery traces, hence the default.
    pub recovered_tasks: Vec<TaskKey>,
    /// Stage membership as recorded by the workflow engine: `stages[i]` lists
    /// the tasks launched in barrier-synchronized stage `i`. This is the
    /// ground truth the lint happens-before engine orders cross-task ops
    /// with; traces written before stages were recorded (default: empty)
    /// carry no cross-task ordering and analyzers must fall back to
    /// wall-clock heuristics.
    pub stages: Vec<Vec<TaskKey>>,
    /// Provenance: which workload (and parameterization) the recording tool
    /// ran, and which tool version produced the trace. Until replay bundles
    /// existed only the CLI knew this; a trace that outlives its invocation
    /// needs it to be reproducible. Traces written before provenance existed
    /// (default: `None`) read as an absent origin; JSONL leaves an absent
    /// origin out.
    pub origin: Option<TraceOrigin>,
}

impl ToJson for TraceMeta {
    fn write_json(&self, w: &mut Writer) {
        w.object(|w| {
            w.field("workflow", &self.workflow);
            w.field("task_order", &self.task_order);
            w.field("page_size", &self.page_size);
            w.field("degraded_tasks", &self.degraded_tasks);
            w.field("recovered_tasks", &self.recovered_tasks);
            w.field("stages", &self.stages);
            if let Some(origin) = &self.origin {
                w.field("origin", origin);
            }
        });
    }
}

/// Provenance of a trace: what produced it and from which inputs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOrigin {
    /// Workload identifier the recorder executed (e.g. `ddmd`).
    pub workload: String,
    /// Human-readable parameterization of the workload (`default` for the
    /// bundled configurations, otherwise a `key=value` list).
    pub params: String,
    /// Version of the tool that wrote the trace (Cargo package version).
    pub tool_version: String,
}

crate::to_json!(TraceOrigin {
    workload,
    params,
    tool_version
});

impl TraceMeta {
    /// Stage index of `task` per the recorded stage membership, or `None`
    /// when stages were not recorded or the task is unknown (e.g. appeared
    /// only in a concatenated fragment).
    pub fn stage_of(&self, task: &TaskKey) -> Option<usize> {
        self.stages.iter().position(|stage| stage.contains(task))
    }

    /// Merges `later`, the meta of a section that follows the ones this
    /// meta stands for. This is the one rule for joining trace sections:
    /// concatenated reads ([`TraceBundle::load`]), [`TraceBundle::merge`]
    /// and the analyzer's incremental `PartialGraph` all call it.
    ///
    /// This meta's workflow, page size and task order stand, and the
    /// tasks `later`'s order names that are not yet present are appended
    /// in order. The degraded and recovered sets become the sorted union
    /// of both, without repeats (traces written by older builds or by
    /// hand may carry them unsorted). Stages and origin keep the first
    /// non-empty value. A join seeds with its first section's meta, by
    /// [`Self::into_first`], and merges every later section.
    ///
    /// When `later`'s order is a prefix of this one, as in every
    /// section [`TraceBundle::split_per_task`] cuts after the first,
    /// nothing can be appended and the order is left as it is. Otherwise
    /// one call hashes `later`'s tasks into a set and probes it once per
    /// task of this order, so it stays cheap when a one-task order joins
    /// a long one.
    pub fn merge(&mut self, later: &TraceMeta) {
        if !self.task_order.starts_with(&later.task_order) {
            let mut missing: SymbolSet<&TaskKey> = later.task_order.iter().collect();
            for t in &self.task_order {
                missing.remove(t);
            }
            for t in &later.task_order {
                if missing.remove(t) {
                    self.task_order.push(t.clone());
                }
            }
        }
        union_sorted(&mut self.degraded_tasks, &later.degraded_tasks);
        union_sorted(&mut self.recovered_tasks, &later.recovered_tasks);
        if self.stages.is_empty() {
            self.stages.clone_from(&later.stages);
        }
        if self.origin.is_none() {
            self.origin.clone_from(&later.origin);
        }
    }

    /// This meta as the first section of a join: its degraded and
    /// recovered sets sorted, without repeats, which is all that
    /// [`Self::merge`] would change in merging it into a copy of itself.
    pub fn into_first(mut self) -> Self {
        for set in [&mut self.degraded_tasks, &mut self.recovered_tasks] {
            set.sort_unstable();
            set.dedup();
        }
        self
    }
}

/// Adds `more` to `set` and leaves `set` sorted, without repeats.
fn union_sorted(set: &mut Vec<TaskKey>, more: &[TaskKey]) {
    if !more.is_empty() {
        set.extend_from_slice(more);
        set.sort_unstable();
        set.dedup();
    }
}

/// Streaming consumer of trace records, fed by [`TraceBundle::stream`] in
/// on-disk order without materializing the whole bundle. Meta headers arrive
/// before the records of their section; concatenated streams deliver one
/// `meta` call per section, and the sink owns the merge policy.
pub trait RecordSink {
    /// One section header.
    fn meta(&mut self, meta: TraceMeta) -> io::Result<()>;
    /// One section header that a [`crate::binary::HeaderMemo`] holds,
    /// already in [`TraceMeta::into_first`] form, which merges as the
    /// header itself would. Only reads through a memo deliver it; by
    /// default the sink takes a copy through [`Self::meta`].
    fn shared_meta(&mut self, meta: Arc<TraceMeta>) -> io::Result<()> {
        self.meta(Arc::unwrap_or_clone(meta))
    }
    /// One object-level (VOL) record.
    fn vol(&mut self, rec: VolRecord) -> io::Result<()>;
    /// One I/O-level (VFD) record.
    fn vfd(&mut self, rec: VfdRecord) -> io::Result<()>;
    /// One per-(task, file) summary record.
    fn file(&mut self, rec: FileRecord) -> io::Result<()>;
}

/// Sink that rebuilds a section's records and meta in memory, merging
/// section metas by [`TraceMeta::merge`]. The first meta is kept as it
/// arrives, so one a [`crate::binary::HeaderMemo`] shares stays shared;
/// only a second one copies it.
#[derive(Default)]
pub(crate) struct Collector {
    meta: Option<Arc<TraceMeta>>,
    records: TraceBundle,
}

impl Collector {
    /// The merged meta (empty if no section arrived) and the records.
    pub(crate) fn finish(self) -> SharedSection {
        SharedSection {
            meta: self.meta.unwrap_or_default(),
            records: self.records,
        }
    }
}

impl RecordSink for Collector {
    fn meta(&mut self, m: TraceMeta) -> io::Result<()> {
        self.shared_meta(Arc::new(m.into_first()))
    }

    fn shared_meta(&mut self, m: Arc<TraceMeta>) -> io::Result<()> {
        match &mut self.meta {
            Some(merged) => Arc::make_mut(merged).merge(&m),
            None => self.meta = Some(m),
        }
        Ok(())
    }

    fn vol(&mut self, rec: VolRecord) -> io::Result<()> {
        self.records.vol.push(rec);
        Ok(())
    }

    fn vfd(&mut self, rec: VfdRecord) -> io::Result<()> {
        self.records.vfd.push(rec);
        Ok(())
    }

    fn file(&mut self, rec: FileRecord) -> io::Result<()> {
        self.records.files.push(rec);
        Ok(())
    }
}

/// All records collected from one workflow execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBundle {
    /// Bundle metadata.
    pub meta: TraceMeta,
    /// Object-level (Table I) records.
    pub vol: Vec<VolRecord>,
    /// Low-level I/O (Table II #5–7) records.
    pub vfd: Vec<VfdRecord>,
    /// Per-(task, file) lifetimes and statistics (Table II #3–4).
    pub files: Vec<FileRecord>,
}

impl TraceBundle {
    /// An empty bundle for the named workflow.
    pub fn new(workflow: impl Into<String>) -> Self {
        Self {
            meta: TraceMeta {
                workflow: workflow.into(),
                task_order: Vec::new(),
                page_size: 4096,
                degraded_tasks: Vec::new(),
                recovered_tasks: Vec::new(),
                stages: Vec::new(),
                origin: None,
            },
            ..Default::default()
        }
    }

    /// Marks `task` as degraded: its records are a salvaged, truncated
    /// fragment of the task's real I/O. The set is kept sorted and deduped,
    /// so marking (and [`Self::is_degraded`]) is a binary search rather than
    /// the linear `contains` scan it used to be.
    pub fn mark_degraded(&mut self, task: TaskKey) {
        if let Err(at) = self.meta.degraded_tasks.binary_search(&task) {
            self.meta.degraded_tasks.insert(at, task);
        }
    }

    /// Whether `task` was marked degraded.
    pub fn is_degraded(&self, task: &TaskKey) -> bool {
        self.meta.degraded_tasks.binary_search(task).is_ok()
    }

    /// Marks `task` as resumed-from-recovery: one of its attempts reopened
    /// a crashed journaled file and continued from its committed state.
    /// Sorted and deduped like the degraded set.
    pub fn mark_recovered(&mut self, task: TaskKey) {
        if let Err(at) = self.meta.recovered_tasks.binary_search(&task) {
            self.meta.recovered_tasks.insert(at, task);
        }
    }

    /// Whether `task` was marked as resumed-from-recovery.
    pub fn is_recovered(&self, task: &TaskKey) -> bool {
        self.meta.recovered_tasks.binary_search(task).is_ok()
    }

    /// Appends all records of `other` to this bundle and merges its meta
    /// by [`TraceMeta::merge`]. Used to join per-task traces into a
    /// workflow-wide trace.
    pub fn merge(&mut self, other: TraceBundle) {
        self.meta.merge(&other.meta);
        self.vol.extend(other.vol);
        self.vfd.extend(other.vfd);
        self.files.extend(other.files);
    }

    /// Registers `task` at the end of the execution order if new.
    pub fn push_task(&mut self, task: TaskKey) {
        if !self.meta.task_order.contains(&task) {
            self.meta.task_order.push(task);
        }
    }

    /// Total bytes of application data moved (VFD raw view), used as the
    /// denominator of the storage-overhead figures (Fig. 9d).
    pub fn application_bytes(&self) -> u64 {
        self.vfd
            .iter()
            .filter(|r| r.kind.moves_data())
            .map(|r| r.len)
            .sum()
    }

    /// Serialized size of only the VOL records, in bytes: each record's
    /// compact JSON plus a newline.
    pub fn vol_storage_bytes(&self) -> u64 {
        json_bytes(&self.vol)
    }

    /// Serialized size of only the VFD records, in bytes. Grows linearly
    /// with I/O operation count (the paper's Fig. 9d), unless I/O tracing is
    /// disabled in the mapper config.
    pub fn vfd_storage_bytes(&self) -> u64 {
        json_bytes(&self.vfd)
    }

    /// Writes the bundle as JSON Lines: `{"Meta":..}`, then one
    /// `{"Vol":..}`, `{"Vfd":..}` or `{"File":..}` line per record.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut line = Writer::new(false);
        let mut emit = |tag: &str, value: &dyn ToJson| -> io::Result<()> {
            line.clear();
            line.tagged(tag, value);
            w.write_all(line.as_str().as_bytes())?;
            w.write_all(b"\n")
        };
        emit("Meta", &self.meta)?;
        for r in &self.vol {
            emit("Vol", r)?;
        }
        for r in &self.vfd {
            emit("Vfd", r)?;
        }
        for r in &self.files {
            emit("File", r)?;
        }
        Ok(())
    }

    /// Streams a `.dtb` trace into `sink` one record at a time, without
    /// ever materializing a full [`TraceBundle`]: the path the lint
    /// detector takes over million-record traces. Returns the number of
    /// data records (vol + vfd + file) delivered. Input that is not `.dtb`,
    /// JSON Lines included, is an error.
    pub fn stream<R: BufRead, S: RecordSink>(r: R, sink: &mut S) -> io::Result<u64> {
        crate::binary::stream_bundles(r, sink)
    }

    /// The JSON Lines export as a byte buffer.
    pub fn to_jsonl_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("Vec<u8> writes are infallible");
        buf
    }

    /// Writes the bundle in the compact `.dtb` binary format
    /// (see [`crate::binary`]). The encoder hands `w` its frames a few KiB
    /// at a time.
    pub fn write_binary<W: Write>(&self, mut w: W) -> io::Result<()> {
        crate::binary::write_bundle(self, &mut w)
    }

    /// Round-trips through the binary encoding into a byte buffer.
    pub fn to_binary_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_binary(&mut buf)
            .expect("Vec<u8> writes are infallible");
        buf
    }

    /// Reads a `.dtb` bundle. Concatenated sections merge: records append
    /// and metas merge by [`TraceMeta::merge`]. A stream with no section
    /// is an error.
    pub fn load<R: BufRead>(r: R) -> io::Result<Self> {
        let mut sink = Collector::default();
        Self::stream(r, &mut sink)?;
        Ok(sink.finish().into_bundle())
    }

    /// All distinct tasks mentioned anywhere in the bundle, in task-order
    /// first, then any stragglers in record order. Dedup is one
    /// symbol-keyed hash probe per run of records naming the same task,
    /// so the scan stays linear in the record count.
    pub fn all_tasks(&self) -> Vec<TaskKey> {
        let mut tasks = self.meta.task_order.clone();
        let mut seen: SymbolSet<TaskKey> = tasks.iter().cloned().collect();
        let mut push = |t: &TaskKey| {
            if seen.insert(t.clone()) {
                tasks.push(t.clone());
            }
        };
        for run in self.vol.chunk_by(|a, b| a.task == b.task) {
            push(&run[0].task);
        }
        for run in self.vfd.chunk_by(|a, b| a.task == b.task) {
            push(&run[0].task);
        }
        for run in self.files.chunk_by(|a, b| a.task == b.task) {
            push(&run[0].task);
        }
        tasks
    }
}

/// Compact JSON bytes of `records`, a newline after each.
fn json_bytes<T: ToJson>(records: &[T]) -> u64 {
    records
        .iter()
        .map(|r| json::to_string(r).len() as u64 + 1)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileKey, ObjectKey};
    use crate::time::{Interval, Timestamp};
    use crate::vfd::{AccessType, IoKind};
    use crate::vol::{ObjectDescription, ObjectKind};

    fn bundle() -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t1"));
        b.vol.push(VolRecord {
            task: TaskKey::new("t1"),
            file: FileKey::new("f.h5"),
            object: ObjectKey::new("/d"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![Interval::new(Timestamp(0), Timestamp(5))],
            description: ObjectDescription::default(),
            accesses: vec![],
        });
        b.vfd.push(VfdRecord {
            task: TaskKey::new("t1"),
            file: FileKey::new("f.h5"),
            kind: IoKind::Write,
            offset: 0,
            len: 128,
            access: AccessType::RawData,
            object: ObjectKey::new("/d"),
            start: Timestamp(1),
            end: Timestamp(2),
        });
        b.files.push(FileRecord {
            task: TaskKey::new("t1"),
            file: FileKey::new("f.h5"),
            lifetimes: vec![Interval::new(Timestamp(0), Timestamp(5))],
            stats: Default::default(),
        });
        b
    }

    #[test]
    fn concatenated_bundles_merge_on_read() {
        let b1 = bundle();
        let mut b2 = bundle();
        b2.meta.task_order = vec![TaskKey::new("t2")];
        b2.mark_degraded(TaskKey::new("t2"));
        let mut bytes = b1.to_binary_bytes();
        bytes.extend(b2.to_binary_bytes());
        let back = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(back.meta.workflow, "wf");
        assert_eq!(
            back.meta.task_order,
            vec![TaskKey::new("t1"), TaskKey::new("t2")]
        );
        assert_eq!(back.meta.degraded_tasks, vec![TaskKey::new("t2")]);
        assert_eq!(back.vol.len(), 2);
        assert_eq!(back.vfd.len(), 2);
        assert_eq!(back.files.len(), 2);
    }

    #[test]
    fn merge_deduplicates_task_order() {
        let mut a = bundle();
        let b = bundle();
        a.merge(b);
        assert_eq!(a.meta.task_order.len(), 1);
        assert_eq!(a.vol.len(), 2);
    }

    #[test]
    fn storage_accounting_positive_and_linear_in_records() {
        let b = bundle();
        let one = b.vfd_storage_bytes();
        assert!(one > 0);
        let mut b2 = b.clone();
        b2.vfd.push(b.vfd[0].clone());
        assert!(b2.vfd_storage_bytes() > one);
        assert!(b.vol_storage_bytes() > 0);
        assert_eq!(b.application_bytes(), 128);
    }

    #[test]
    fn all_tasks_includes_stragglers() {
        let mut b = bundle();
        b.vfd.push(VfdRecord {
            task: TaskKey::new("ghost"),
            ..b.vfd[0].clone()
        });
        let tasks = b.all_tasks();
        assert_eq!(tasks, vec![TaskKey::new("t1"), TaskKey::new("ghost")]);
    }

    #[test]
    fn degraded_marks_survive_round_trip_and_merge() {
        let mut a = bundle();
        a.mark_degraded(TaskKey::new("t1"));
        a.mark_degraded(TaskKey::new("t1")); // idempotent
        assert!(a.is_degraded(&TaskKey::new("t1")));
        let back = TraceBundle::load(&a.to_binary_bytes()[..]).unwrap();
        assert_eq!(back.meta.degraded_tasks, vec![TaskKey::new("t1")]);

        // Merge unions degraded sets without duplicates.
        let mut b = bundle();
        b.meta.task_order = vec![TaskKey::new("t2")];
        b.mark_degraded(TaskKey::new("t2"));
        a.merge(b.clone());
        assert_eq!(
            a.meta.degraded_tasks,
            vec![TaskKey::new("t1"), TaskKey::new("t2")]
        );

        // Concatenated sections union degraded sets too.
        let mut first = bundle();
        first.mark_degraded(TaskKey::new("t1"));
        let mut bytes = first.to_binary_bytes();
        bytes.extend(b.to_binary_bytes());
        let merged = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(
            merged.meta.degraded_tasks,
            vec![TaskKey::new("t1"), TaskKey::new("t2")]
        );
    }

    #[test]
    fn recovered_marks_survive_round_trip_and_merge() {
        let mut a = bundle();
        a.mark_recovered(TaskKey::new("t1"));
        a.mark_recovered(TaskKey::new("t1")); // idempotent
        assert!(a.is_recovered(&TaskKey::new("t1")));
        let back = TraceBundle::load(&a.to_binary_bytes()[..]).unwrap();
        assert_eq!(back.meta.recovered_tasks, vec![TaskKey::new("t1")]);

        // Merge unions recovered sets without duplicates.
        let mut b = bundle();
        b.meta.task_order = vec![TaskKey::new("t2")];
        b.mark_recovered(TaskKey::new("t2"));
        a.merge(b.clone());
        assert_eq!(
            a.meta.recovered_tasks,
            vec![TaskKey::new("t1"), TaskKey::new("t2")]
        );

        // Concatenated sections union recovered sets too, and a section
        // without a recovered set leaves the union as it is.
        let mut bytes = b.to_binary_bytes();
        bytes.extend(TraceBundle::new("old").to_binary_bytes());
        let merged = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(merged.meta.recovered_tasks, vec![TaskKey::new("t2")]);
        assert!(!merged.is_recovered(&TaskKey::new("t1")));
    }

    /// One line per record kind, pinned: `Meta` without and with an
    /// origin, `Vol` with each `DataType` and with none, `Vfd`, `File`.
    #[test]
    fn jsonl_lines_are_pinned() {
        use crate::vol::{DataType, LayoutKind, VolAccess, VolAccessKind};
        let mut b = bundle();
        let dataset = b.vol[0].clone();
        b.vol.clear();
        for (i, dtype) in [
            Some(DataType::Int { width: 4 }),
            Some(DataType::Float { width: 8 }),
            Some(DataType::FixedBytes { len: 16 }),
            Some(DataType::VarLen),
            None,
        ]
        .into_iter()
        .enumerate()
        {
            let mut r = dataset.clone();
            r.description = ObjectDescription {
                shape: vec![4, 2],
                dtype,
                logical_size: 32,
                layout: Some(LayoutKind::Chunked).filter(|_| i == 0),
                chunk_shape: if i == 0 { vec![2, 2] } else { vec![] },
            };
            if i == 0 {
                r.accesses.push(VolAccess {
                    kind: VolAccessKind::Write,
                    count: 1,
                    bytes: 32,
                    sel_offset: vec![0, 0],
                    sel_count: vec![4, 2],
                    at: Timestamp(3),
                });
            }
            b.vol.push(r);
        }
        b.files[0]
            .stats
            .record(IoKind::Write, 0, 128, AccessType::RawData);
        let text = String::from_utf8(b.to_jsonl_bytes()).unwrap();
        let vol = |dtype: &str, layout: &str, chunks: &str, accesses: &str| {
            format!(
                r#"{{"Vol":{{"task":"t1","file":"f.h5","object":"/d","kind":"Dataset","lifetimes":[{{"start":0,"end":5}}],"description":{{"shape":[4,2],"dtype":{dtype},"logical_size":32,"layout":{layout},"chunk_shape":[{chunks}]}},"accesses":[{accesses}]}}}}"#
            )
        };
        let want = [
            r#"{"Meta":{"workflow":"wf","task_order":["t1"],"page_size":4096,"degraded_tasks":[],"recovered_tasks":[],"stages":[]}}"#.to_owned(),
            vol(
                r#"{"Int":{"width":4}}"#,
                r#""Chunked""#,
                "2,2",
                r#"{"kind":"Write","count":1,"bytes":32,"sel_offset":[0,0],"sel_count":[4,2],"at":3}"#,
            ),
            vol(r#"{"Float":{"width":8}}"#, "null", "", ""),
            vol(r#"{"FixedBytes":{"len":16}}"#, "null", "", ""),
            vol(r#""VarLen""#, "null", "", ""),
            vol("null", "null", "", ""),
            r#"{"Vfd":{"task":"t1","file":"f.h5","kind":"Write","offset":0,"len":128,"access":"RawData","object":"/d","start":1,"end":2}}"#.to_owned(),
            r#"{"File":{"task":"t1","file":"f.h5","lifetimes":[{"start":0,"end":5}],"stats":{"read_ops":0,"write_ops":1,"bytes_read":0,"bytes_written":128,"sequential_ops":0,"metadata_ops":0,"metadata_bytes":0,"max_address":128}}}"#.to_owned(),
        ];
        assert_eq!(text.lines().collect::<Vec<_>>(), want);

        b.meta.stages = vec![vec![TaskKey::new("t1")]];
        b.meta.origin = Some(TraceOrigin {
            workload: "ddmd".into(),
            params: "iterations=2".into(),
            tool_version: "0.1.0".into(),
        });
        let text = String::from_utf8(b.to_jsonl_bytes()).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            r#"{"Meta":{"workflow":"wf","task_order":["t1"],"page_size":4096,"degraded_tasks":[],"recovered_tasks":[],"stages":[["t1"]],"origin":{"workload":"ddmd","params":"iterations=2","tool_version":"0.1.0"}}}"#
        );
    }

    #[test]
    fn unsorted_degraded_set_is_normalized_on_read() {
        // Older builds wrote the set as marked; `load` merges it into a
        // sorted set without repeats.
        let mut b = TraceBundle::new("wf");
        b.meta.degraded_tasks = ["zz", "aa", "zz"].map(TaskKey::new).to_vec();
        let back = TraceBundle::load(&b.to_binary_bytes()[..]).unwrap();
        assert_eq!(
            back.meta.degraded_tasks,
            vec![TaskKey::new("aa"), TaskKey::new("zz")]
        );
        assert!(back.is_degraded(&TaskKey::new("aa")));
        assert!(!back.is_degraded(&TaskKey::new("mm")));
    }

    #[test]
    fn stages_survive_load_and_merge() {
        let mut a = bundle();
        a.meta.stages = vec![vec![TaskKey::new("t1")], vec![TaskKey::new("t2")]];
        let back = TraceBundle::load(&a.to_binary_bytes()[..]).unwrap();
        assert_eq!(back.meta.stages, a.meta.stages);
        assert_eq!(back.meta.stage_of(&TaskKey::new("t2")), Some(1));

        // Merging a stage-less fragment into a staged bundle keeps the
        // stages; merging the other way adopts them.
        let mut plain = bundle();
        plain.merge(a.clone());
        assert_eq!(plain.meta.stages, a.meta.stages);
        a.merge(bundle());
        assert_eq!(a.meta.stages.len(), 2);
    }

    #[test]
    fn stream_counts_records() {
        struct Counter(u64);
        impl RecordSink for Counter {
            fn meta(&mut self, _: TraceMeta) -> io::Result<()> {
                Ok(())
            }
            fn vol(&mut self, _: VolRecord) -> io::Result<()> {
                self.0 += 1;
                Ok(())
            }
            fn vfd(&mut self, _: VfdRecord) -> io::Result<()> {
                self.0 += 1;
                Ok(())
            }
            fn file(&mut self, _: FileRecord) -> io::Result<()> {
                self.0 += 1;
                Ok(())
            }
        }
        let b = bundle();
        let bytes = b.to_binary_bytes();
        let mut sink = Counter(0);
        let n = TraceBundle::stream(&bytes[..], &mut sink).unwrap();
        assert_eq!(n, 3);
        assert_eq!(sink.0, 3);
    }

    #[test]
    fn binary_round_trip() {
        let mut b = bundle();
        b.mark_degraded(TaskKey::new("t1"));
        let bytes = b.to_binary_bytes();
        let back = TraceBundle::load(&bytes[..]).unwrap();
        assert_eq!(back, b);
        // An empty stream holds no section: it is not a trace.
        assert!(TraceBundle::load(&b""[..]).is_err());
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let b = bundle();
        assert!(b.to_binary_bytes().len() < b.to_jsonl_bytes().len());
    }

    #[test]
    fn jsonl_is_refused() {
        let err = TraceBundle::load(&bundle().to_jsonl_bytes()[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a DaYu binary trace"), "{err}");
    }
}
