//! Incremental FTG/SDG construction from independently-arriving sections.
//!
//! The batch builders ([`crate::build`]) assume a complete bundle. A
//! long-running ingest service sees the opposite: trace sections trickle in
//! per task flush, out of order, sometimes duplicated by a retrying client.
//! [`PartialGraph`] absorbs sections one at a time and retains their
//! records grouped by task. A snapshot runs the batch build's own writer
//! over those groups, one partition per task in snapshot order, so a
//! snapshot is not merely equivalent to `build_ftg`/`build_sdg` over the
//! union of the absorbed sections: it is the identical graph, node ids
//! and all. A tenant's state is its records, its merged meta, the digests
//! of its sections and a few running counts; no graph is kept between
//! snapshots, so nothing is invalidated when a section lands.
//!
//! A section is absorbed in one pass. [`PartialGraph::absorb_owned`]
//! takes the decoded section by value and moves its records to their
//! tasks; a record vector that names one task becomes that task's empty
//! slot whole. [`PartialGraph::absorb`] and [`PartialGraph::absorb_unique`]
//! clone the section they borrow and delegate. Every
//! [`TraceBundle::split_per_task`] section repeats the full meta; after
//! the first, its order is a prefix of the merged one, which
//! [`TraceMeta::merge`] leaves alone without hashing it, and only the
//! tasks a merge appends become new task nodes. The ingest service
//! decodes each section through its tenant's
//! [`HeaderMemo`](dayu_trace::HeaderMemo) only to absorb it
//! ([`PartialGraph::absorb_unique_shared`]): the records move in, and the
//! meta, which the memo shares between sections, merges by reference.
//! Sections are deduplicated by content digest
//! ([`PartialGraph::absorb_unique`]) so a client retrying over a flaky
//! connection cannot double-count records.
//!
//! ## Equivalence contract
//!
//! A snapshot equals the one-shot batch build of the merged bundle whenever
//! every record-bearing task appears in the merged `task_order` (true for
//! per-task section flushes carrying full meta, the shape
//! [`TraceBundle::split_per_task`](dayu_trace::TraceBundle::split_per_task)
//! produces). Stragglers — tasks that appear only in records — are ordered
//! by first arrival, which matches the batch build exactly when sections
//! arrive in recorded order and is a deterministic (but arrival-dependent)
//! order otherwise.

use crate::build::{self, Partition, Regions, SdgOptions};
use crate::graph::Graph;
use dayu_trace::sha256::Digest;
use dayu_trace::store::{TraceBundle, TraceMeta};
use dayu_trace::vfd::{FileRecord, VfdRecord};
use dayu_trace::vol::VolRecord;
use dayu_trace::{SharedSection, Symbol, SymbolMap, SymbolSet, TaskKey};
use std::collections::HashSet;

/// Records retained for one task, in arrival (= within-task record) order.
#[derive(Default)]
struct TaskState {
    vfd: Vec<VfdRecord>,
    vol: Vec<VolRecord>,
    files: Vec<FileRecord>,
}

/// Incrementally-buildable graph state for one workflow.
#[derive(Default)]
pub struct PartialGraph {
    meta: TraceMeta,
    saw_meta: bool,
    tasks: SymbolMap<TaskKey, TaskState>,
    /// Record-bearing tasks in first-arrival order (straggler ordering).
    arrival: Vec<TaskKey>,
    vfd_total: usize,
    record_total: usize,
    /// Running [`Self::retained_bytes`].
    retained: usize,
    /// Tasks named in `task_order` or by any record: the FTG's task nodes.
    task_nodes: SymbolSet<Symbol>,
    /// Files named by any FileRecord: the FTG's file nodes while no VFD
    /// record has arrived.
    record_files: SymbolSet<Symbol>,
    /// Observed per-file extents (region geometry for SDG region mode).
    /// Its keys are the files of data-moving VFD records: the FTG's file
    /// nodes once any VFD record has arrived.
    file_extent: SymbolMap<Symbol, u64>,
    /// Digests of sections already absorbed via [`Self::absorb_unique`].
    /// Keyed by std's seeded hasher: they are digests of untrusted bytes.
    digests: HashSet<Digest>,
}

impl PartialGraph {
    /// An empty partial graph; the first absorbed section names the
    /// workflow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workflow name from the first absorbed section (empty before any).
    pub fn workflow(&self) -> &str {
        &self.meta.workflow
    }

    /// Total data records retained.
    pub fn records(&self) -> usize {
        self.record_total
    }

    /// Approximate heap footprint of the retained records, for budget
    /// enforcement: [`Self::section_bytes`] summed over every absorbed
    /// section, kept as records arrive.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// What absorbing `section` adds to [`Self::retained_bytes`]. Counts
    /// struct sizes plus the variable-length tails (intervals, accesses,
    /// selection vectors); interned names are process-global and not
    /// attributed.
    pub fn section_bytes(section: &TraceBundle) -> usize {
        let mut bytes = section.vfd.len() * std::mem::size_of::<VfdRecord>();
        bytes += section.files.len() * std::mem::size_of::<FileRecord>();
        bytes += section.vol.len() * std::mem::size_of::<VolRecord>();
        for r in &section.files {
            bytes += r.lifetimes.len() * 16;
        }
        for r in &section.vol {
            bytes += r.lifetimes.len() * 16;
            bytes += r.description.shape.len() * 8;
            bytes += r.description.chunk_shape.len() * 8;
            for a in &r.accesses {
                bytes += std::mem::size_of_val(a);
                bytes += (a.sel_offset.len() + a.sel_count.len()) * 8;
            }
        }
        bytes
    }

    /// Nodes [`Self::snapshot_ftg`] would return, kept as sections
    /// arrive: one per task in the snapshot ordering, plus one per file
    /// of a data-moving VFD record, or, while no VFD record has arrived,
    /// one per file of a FileRecord.
    pub fn ftg_node_count(&self) -> usize {
        let files = if self.vfd_total == 0 {
            self.record_files.len()
        } else {
            self.file_extent.len()
        };
        self.task_nodes.len() + files
    }

    /// Absorbs one decoded section, merging its meta by
    /// [`TraceMeta::merge`], as concatenated-trace reads do, and moving
    /// its records to their tasks. Each run of consecutive same-task
    /// records is moved with one task lookup; a record vector that names
    /// one task moves whole into that task's empty slot.
    pub fn absorb_owned(&mut self, mut section: TraceBundle) {
        let bytes = Self::section_bytes(&section);
        let meta = std::mem::take(&mut section.meta);
        self.absorb_records(&meta, section, bytes);
    }

    /// [`Self::absorb_owned`] of a copy of `section`.
    pub fn absorb(&mut self, section: &TraceBundle) {
        self.absorb_owned(section.clone());
    }

    /// Absorbs a copy of the section unless an identical one (by content
    /// digest) was absorbed before; returns whether it was new. The digest
    /// is the wire-level SHA-256 of the encoded section, computed by the
    /// caller (the ingest service checks it against the frame header
    /// anyway).
    pub fn absorb_unique(&mut self, digest: Digest, section: &TraceBundle) -> bool {
        let new = self.digests.insert(digest);
        if new {
            self.absorb_owned(section.clone());
        }
        new
    }

    /// [`Self::absorb_unique`] of a section decoded through a
    /// [`HeaderMemo`](dayu_trace::HeaderMemo), without the copy: the
    /// records move in and the shared meta merges by reference, which for
    /// a repeated header is one prefix check. `bytes` is the section's
    /// [`Self::section_bytes`], which the caller has already counted
    /// against its budgets.
    pub fn absorb_unique_shared(
        &mut self,
        digest: Digest,
        section: SharedSection,
        bytes: usize,
    ) -> bool {
        debug_assert_eq!(bytes, Self::section_bytes(&section.records));
        let new = self.digests.insert(digest);
        if new {
            self.absorb_records(&section.meta, section.records, bytes);
        }
        new
    }

    /// Reconstructs the merged bundle: full meta, records grouped by task
    /// in snapshot order. This is the bundle a snapshot is equivalent to
    /// batch-building.
    pub fn to_bundle(&self) -> TraceBundle {
        let mut b = TraceBundle {
            meta: self.meta.clone(),
            ..Default::default()
        };
        for task in self.ordering() {
            if let Some(s) = self.tasks.get(&task) {
                b.vfd.extend(s.vfd.iter().cloned());
                b.vol.extend(s.vol.iter().cloned());
                b.files.extend(s.files.iter().cloned());
            }
        }
        b
    }

    /// Snapshots the File-Task Graph over everything absorbed so far.
    pub fn snapshot_ftg(&self) -> Graph {
        build::ftg_of(
            &self.meta.workflow,
            self.vfd_total == 0,
            &self.partitions(None),
        )
    }

    /// Snapshots the Semantic Dataflow Graph; region nodes split each
    /// file's extent as observed so far.
    pub fn snapshot_sdg(&self, opts: &SdgOptions) -> Graph {
        let regions = Regions {
            count: opts.region_count,
            file_extent: &self.file_extent,
            page: self.meta.page_size.max(1),
        };
        let parts = self.partitions(opts.include_regions.then_some(&regions));
        build::sdg_of(&self.meta.workflow, self.vfd_total == 0, &parts)
    }

    /// One partition per task in snapshot order, each task's VFD records
    /// folded under `regions`: what the batch build partitions the merged
    /// bundle into.
    fn partitions(&self, regions: Option<&Regions<'_>>) -> Vec<Partition<'_>> {
        static EMPTY: TaskState = TaskState {
            vfd: Vec::new(),
            vol: Vec::new(),
            files: Vec::new(),
        };
        self.ordering()
            .into_iter()
            .map(|t| {
                let s = self.tasks.get(&t).unwrap_or(&EMPTY);
                Partition::from_slices(t, &s.vfd, &s.vol, &s.files, regions)
            })
            .collect()
    }

    /// Snapshot task ordering: execution order first, record-bearing
    /// stragglers after in first-arrival order — the incremental analogue
    /// of [`TraceBundle::all_tasks`].
    fn ordering(&self) -> Vec<TaskKey> {
        let mut tasks = self.meta.task_order.clone();
        let mut seen: SymbolSet<TaskKey> = tasks.iter().cloned().collect();
        for t in &self.arrival {
            if seen.insert(t.clone()) {
                tasks.push(t.clone());
            }
        }
        tasks
    }

    /// `task`'s records, created (and its arrival noted) on first sight.
    fn task_state(&mut self, task: &TaskKey) -> &mut TaskState {
        self.tasks.entry(task.clone()).or_insert_with(|| {
            self.task_nodes.insert(task.symbol());
            self.arrival.push(task.clone());
            TaskState::default()
        })
    }

    /// Moves `records` to their tasks' slots (`slot` picks the vector),
    /// one task lookup per run of consecutive same-task records. When
    /// every record names one task whose slot is empty, the vector itself
    /// becomes the slot, shrunk to its length so that the slot holds no
    /// more than a copy would.
    fn append<R>(
        &mut self,
        mut records: Vec<R>,
        task: fn(&R) -> &TaskKey,
        slot: fn(&mut TaskState) -> &mut Vec<R>,
    ) {
        let Some(first) = records.first() else {
            return;
        };
        if records.iter().all(|r| task(r) == task(first)) {
            let t = task(first).clone();
            let v = slot(self.task_state(&t));
            if v.is_empty() {
                records.shrink_to_fit();
                *v = records;
            } else {
                v.extend(records);
            }
            return;
        }
        let mut records = records.into_iter().peekable();
        while let Some(r) = records.next() {
            let t = task(&r).clone();
            let v = slot(self.task_state(&t));
            v.push(r);
            v.extend(std::iter::from_fn(|| records.next_if(|r| *task(r) == t)));
        }
    }

    /// Absorbs a section's records under `meta`, the section's meta (the
    /// records' bundle's own is ignored); `bytes` is their
    /// [`Self::section_bytes`].
    fn absorb_records(&mut self, meta: &TraceMeta, records: TraceBundle, bytes: usize) {
        self.retained += bytes;
        let TraceBundle {
            vol, vfd, files, ..
        } = records;
        self.absorb_meta(meta);
        for r in vfd.iter().filter(|r| r.kind.moves_data()) {
            let e = self.file_extent.entry(r.file.symbol()).or_default();
            *e = (*e).max(r.offset.saturating_add(r.len));
        }
        self.vfd_total += vfd.len();
        self.record_files
            .extend(files.iter().map(|r| r.file.symbol()));
        self.record_total += vfd.len() + vol.len() + files.len();
        self.append(vfd, |r| &r.task, |s| &mut s.vfd);
        self.append(vol, |r| &r.task, |s| &mut s.vol);
        self.append(files, |r| &r.task, |s| &mut s.files);
    }

    /// Merges a section's meta. Only the tasks the merge appends to the
    /// order are new task nodes: the first meta's whole order, then what
    /// each later one names that is not yet present.
    fn absorb_meta(&mut self, m: &TraceMeta) {
        let known = self.meta.task_order.len();
        if self.saw_meta {
            self.meta.merge(m);
        } else {
            self.meta = m.clone().into_first();
            self.saw_meta = true;
        }
        self.task_nodes
            .extend(self.meta.task_order[known..].iter().map(TaskKey::symbol));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_ftg, build_sdg};
    use dayu_trace::ids::{FileKey, ObjectKey};
    use dayu_trace::time::{Interval, Timestamp};
    use dayu_trace::vfd::{AccessType, FileStats, IoKind};
    use dayu_trace::vol::{ObjectDescription, ObjectKind, VolAccess, VolAccessKind};

    /// Id-exact graph equality: node and edge vectors compared verbatim
    /// (ids are vector positions), not just the index-insensitive
    /// `PartialEq`.
    fn assert_identical(a: &Graph, b: &Graph) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.workflow, b.workflow);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
    }

    fn vfd(task: &str, file: &str, object: &str, kind: IoKind, offset: u64, at: u64) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            object: ObjectKey::new(object),
            kind,
            offset,
            len: 100,
            access: AccessType::RawData,
            start: Timestamp(at),
            end: Timestamp(at + 5),
        }
    }

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        for t in ["producer", "mid", "consumer"] {
            b.push_task(TaskKey::new(t));
        }
        b.meta.stages = vec![
            vec![TaskKey::new("producer")],
            vec![TaskKey::new("mid"), TaskKey::new("consumer")],
        ];
        b.vfd = vec![
            vfd("producer", "a.h5", "/d1", IoKind::Write, 0, 0),
            vfd("producer", "a.h5", "/d1", IoKind::Write, 4096, 10),
            vfd("mid", "a.h5", "/d1", IoKind::Read, 4096, 50),
            vfd("mid", "b.h5", "/d2", IoKind::Write, 0, 60),
            vfd("consumer", "b.h5", "/d2", IoKind::Read, 0, 90),
        ];
        b.vol.push(VolRecord {
            task: TaskKey::new("producer"),
            file: FileKey::new("a.h5"),
            object: ObjectKey::new("/d1"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![Interval::new(Timestamp(0), Timestamp(20))],
            description: ObjectDescription::default(),
            accesses: vec![VolAccess {
                kind: VolAccessKind::Write,
                count: 1,
                bytes: 200,
                sel_offset: vec![],
                sel_count: vec![],
                at: Timestamp(5),
            }],
        });
        b.files.push(FileRecord {
            task: TaskKey::new("consumer"),
            file: FileKey::new("b.h5"),
            lifetimes: vec![Interval::new(Timestamp(85), Timestamp(95))],
            stats: FileStats::default(),
        });
        b
    }

    fn region_opts() -> SdgOptions {
        SdgOptions {
            include_regions: true,
            region_count: 4,
        }
    }

    #[test]
    fn absorbing_sections_in_reverse_matches_batch_build() {
        let b = sample_bundle();
        let mut pg = PartialGraph::new();
        for s in b.split_per_task().iter().rev() {
            pg.absorb(s);
        }
        assert_identical(&pg.snapshot_ftg(), &build_ftg(&b));
        for opts in [SdgOptions::default(), region_opts()] {
            assert_identical(&pg.snapshot_sdg(&opts), &build_sdg(&b, &opts));
        }
        assert_eq!(pg.to_bundle().meta, b.meta);
        assert_eq!(pg.records(), b.vfd.len() + b.vol.len() + b.files.len());
        assert!(pg.retained_bytes() > 0);
        assert_eq!(pg.workflow(), "wf");
    }

    #[test]
    fn interleaved_snapshots_match_fresh_batch_builds() {
        // Snapshot between every absorb, including across the vfd_empty
        // flip when the first VFD-bearing section lands after a
        // FileRecord-only one.
        let b = sample_bundle();
        let sections = b.split_per_task();
        let mut pg = PartialGraph::new();
        let mut acc = TraceBundle::default();
        let mut first = true;
        // consumer first: its section carries the FileRecord fallback.
        for s in sections.iter().rev() {
            pg.absorb(s);
            assert_eq!(pg.ftg_node_count(), pg.snapshot_ftg().nodes.len());
            if first {
                acc = s.clone();
                first = false;
            } else {
                // Batch reference accumulates with stream-merge semantics.
                let mut bytes = acc.to_binary_bytes();
                bytes.extend(s.to_binary_bytes());
                acc = TraceBundle::load(&bytes[..]).unwrap();
            }
            assert_identical(&pg.snapshot_ftg(), &build_ftg(&acc));
            assert_identical(
                &pg.snapshot_sdg(&region_opts()),
                &build_sdg(&acc, &region_opts()),
            );
        }
    }

    #[test]
    fn duplicate_sections_are_dropped_by_digest() {
        let b = sample_bundle();
        let mut pg = PartialGraph::new();
        for s in b.split_per_task() {
            let digest = dayu_trace::sha256(&s.to_binary_bytes());
            assert!(pg.absorb_unique(digest, &s));
            assert!(!pg.absorb_unique(digest, &s), "duplicate must be dropped");
        }
        assert_identical(&pg.snapshot_ftg(), &build_ftg(&b));
    }

    #[test]
    fn extent_growth_invalidates_region_geometry() {
        // First section writes low offsets; snapshot; second section
        // extends the file 100x — region boundaries move for *already
        // absorbed* records.
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t1"));
        b.push_task(TaskKey::new("t2"));
        b.vfd = vec![
            vfd("t1", "a.h5", "/d", IoKind::Write, 0, 0),
            vfd("t2", "a.h5", "/d", IoKind::Write, 100_000, 10),
        ];
        let sections = b.split_per_task();
        let mut pg = PartialGraph::new();
        pg.absorb(&sections[0]);
        let _ = pg.snapshot_sdg(&region_opts());
        pg.absorb(&sections[1]);
        assert_identical(
            &pg.snapshot_sdg(&region_opts()),
            &build_sdg(&b, &region_opts()),
        );
    }

    #[test]
    fn degraded_and_recovered_marks_union_across_sections() {
        let mut b = sample_bundle();
        b.mark_degraded(TaskKey::new("mid"));
        b.mark_recovered(TaskKey::new("producer"));
        let mut pg = PartialGraph::new();
        for s in b.split_per_task().iter().rev() {
            pg.absorb(s);
        }
        let back = pg.to_bundle();
        assert_eq!(back.meta.degraded_tasks, b.meta.degraded_tasks);
        assert_eq!(back.meta.recovered_tasks, b.meta.recovered_tasks);
        assert_eq!(back.meta.stages, b.meta.stages);
    }

    #[test]
    fn node_count_includes_tasks_named_only_by_records() {
        let mut b = sample_bundle();
        b.meta.task_order.clear();
        let mut pg = PartialGraph::new();
        for s in b.split_per_task() {
            pg.absorb(&s);
            assert_eq!(pg.ftg_node_count(), pg.snapshot_ftg().nodes.len());
        }
        assert_eq!(pg.ftg_node_count(), build_ftg(&b).nodes.len());
    }

    #[test]
    fn interleaved_task_runs_absorb_in_order() {
        // One section whose vfd, vol and file records each run t1, t2, t1:
        // two runs of t1 and one of t2 per record kind.
        let (t1, t2) = (TaskKey::new("t1"), TaskKey::new("t2"));
        let mut b = TraceBundle::new("wf");
        b.push_task(t1.clone());
        b.push_task(t2.clone());
        b.vfd = vec![
            vfd("t1", "a.h5", "/d1", IoKind::Write, 0, 0),
            vfd("t1", "a.h5", "/d1", IoKind::Write, 4096, 10),
            vfd("t2", "a.h5", "/d1", IoKind::Read, 0, 20),
            vfd("t1", "b.h5", "/d2", IoKind::Write, 0, 30),
        ];
        b.vol = [
            ("t1", "a.h5", "/d1"),
            ("t2", "a.h5", "/d1"),
            ("t1", "b.h5", "/d2"),
        ]
        .into_iter()
        .map(|(task, file, object)| VolRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            object: ObjectKey::new(object),
            kind: ObjectKind::Dataset,
            lifetimes: vec![Interval::new(Timestamp(0), Timestamp(40))],
            description: ObjectDescription::default(),
            accesses: vec![],
        })
        .collect();
        b.files = [("t1", "a.h5", 0), ("t2", "a.h5", 20), ("t1", "b.h5", 30)]
            .into_iter()
            .map(|(task, file, at)| FileRecord {
                task: TaskKey::new(task),
                file: FileKey::new(file),
                lifetimes: vec![Interval::new(Timestamp(at), Timestamp(at + 10))],
                stats: FileStats::default(),
            })
            .collect();
        let mut pg = PartialGraph::new();
        pg.absorb(&b);

        // Grouped by task in task order; a stable sort keeps each task's
        // records in section order.
        let mut grouped = b.clone();
        grouped.vfd.sort_by_key(|r| r.task != t1);
        grouped.vol.sort_by_key(|r| r.task != t1);
        grouped.files.sort_by_key(|r| r.task != t1);
        assert_eq!(pg.to_bundle(), grouped);
        assert_identical(&pg.snapshot_ftg(), &build_ftg(&b));
        for opts in [SdgOptions::default(), region_opts()] {
            assert_identical(&pg.snapshot_sdg(&opts), &build_sdg(&b, &opts));
        }

        // A later t2-only section inside a.h5's known extent.
        let mut later = b.clone();
        later.vfd = vec![vfd("t2", "a.h5", "/d1", IoKind::Read, 4096, 50)];
        later.vol.clear();
        later.files.clear();
        pg.absorb(&later);
        let mut all = b.clone();
        all.vfd.extend(later.vfd);
        assert_identical(&pg.snapshot_ftg(), &build_ftg(&all));
        assert_identical(
            &pg.snapshot_sdg(&region_opts()),
            &build_sdg(&all, &region_opts()),
        );
    }

    #[test]
    fn empty_partial_graph_snapshots_empty_graphs() {
        let pg = PartialGraph::new();
        assert_eq!(pg.snapshot_ftg().nodes.len(), 0);
        assert_eq!(pg.snapshot_sdg(&SdgOptions::default()).nodes.len(), 0);
        assert_eq!(pg.records(), 0);
        assert_eq!(pg.retained_bytes(), 0);
    }
}
