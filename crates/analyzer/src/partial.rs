//! Incremental FTG/SDG construction from independently-arriving sections.
//!
//! The batch builders ([`crate::build`]) assume a complete bundle. A
//! long-running ingest service sees the opposite: trace sections trickle in
//! per task flush, out of order, sometimes duplicated by a retrying client.
//! [`PartialGraph`] absorbs sections one at a time, retains records grouped
//! by task, and snapshots a full graph on demand. It keeps one small graph
//! per task, built by the batch path's own per-task passes (the task's VFD
//! records folded, then `build::ftg_records`, `build::sdg_records`),
//! rebuilds only those whose inputs changed, and folds them into the
//! snapshot in task order.
//! Every fold is a min, max or sum, so a snapshot is not merely equivalent
//! to `build_ftg`/`build_sdg` over the union of the absorbed sections: it
//! is the identical graph, node ids and all.
//!
//! A section is absorbed in one pass. [`PartialGraph::absorb_owned`]
//! takes the decoded section by value and moves its records to their
//! tasks; a record vector that names one task becomes that task's empty
//! slot whole. The ingest service decodes each section only to absorb
//! it, so nothing is copied. [`PartialGraph::absorb`] and
//! [`PartialGraph::absorb_unique`] clone the section they borrow and
//! delegate. Every [`TraceBundle::split_per_task`] section repeats the
//! full meta; after the first, its order is a prefix of the merged one,
//! which [`TraceMeta::merge`] leaves alone without hashing it, and only
//! the tasks a merge appends become new task nodes.
//!
//! Two bundle-wide properties gate what a per-task partial looks like and
//! therefore version the caches:
//!
//! * whether the bundle has any VFD records at all (`vfd_empty` selects the
//!   FileRecord/VOL fallbacks), and
//! * in region mode, each file's observed extent (region geometry).
//!
//! Absorbing a section that flips either invalidates every cached partial;
//! absorbing one that only appends records to task *t* invalidates only
//! *t*'s. Sections are deduplicated by content digest
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

use crate::build::{self, LabelCache, Partition, Regions, SdgOptions};
use crate::graph::{Graph, GraphKind, NodeKind};
use dayu_trace::sha256::Digest;
use dayu_trace::store::{TraceBundle, TraceMeta};
use dayu_trace::vfd::{FileRecord, VfdRecord};
use dayu_trace::vol::VolRecord;
use dayu_trace::{Symbol, SymbolMap, TaskKey};
use std::collections::{HashMap, HashSet};

/// Records retained for one task, in arrival (= within-task record) order.
#[derive(Default)]
struct TaskState {
    vfd: Vec<VfdRecord>,
    vol: Vec<VolRecord>,
    files: Vec<FileRecord>,
    /// Bumped on every append; cached partials remember the value they
    /// were built from.
    rev: u64,
}

/// A cached per-task partial graph and the input versions it reflects.
struct CacheEntry {
    task_rev: u64,
    geometry_rev: u64,
    graph: Graph,
}

/// Incrementally-buildable graph state for one workflow.
#[derive(Default)]
pub struct PartialGraph {
    meta: TraceMeta,
    saw_meta: bool,
    tasks: HashMap<TaskKey, TaskState>,
    /// Record-bearing tasks in first-arrival order (straggler ordering).
    arrival: Vec<TaskKey>,
    vfd_total: usize,
    record_total: usize,
    /// Running [`Self::retained_bytes`].
    retained: usize,
    /// Tasks named in `task_order` or by any record: the FTG's task nodes.
    task_nodes: HashSet<Symbol>,
    /// Files named by any FileRecord: the FTG's file nodes while no VFD
    /// record has arrived.
    record_files: HashSet<Symbol>,
    /// Observed per-file extents (region geometry for SDG region mode).
    /// Its keys are the files of data-moving VFD records: the FTG's file
    /// nodes once any VFD record has arrived.
    file_extent: SymbolMap<Symbol, u64>,
    /// Bumped when `vfd_empty` flips or any file extent grows.
    geometry_rev: u64,
    /// Digests of sections already absorbed via [`Self::absorb_unique`].
    digests: HashSet<Digest>,
    ftg_cache: HashMap<TaskKey, CacheEntry>,
    /// SDG cache plus the options fingerprint it was built under; a
    /// snapshot with different options drops the whole cache.
    sdg_cache: HashMap<TaskKey, CacheEntry>,
    sdg_opts: Option<(bool, u64)>,
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
    pub fn absorb_owned(&mut self, section: TraceBundle) {
        self.retained += Self::section_bytes(&section);
        let TraceBundle {
            meta,
            vol,
            vfd,
            files,
        } = section;
        self.absorb_meta(meta);
        for r in &vfd {
            if r.kind.moves_data() {
                let e = self.file_extent.entry(r.file.symbol()).or_default();
                let end = r.offset.saturating_add(r.len);
                if end > *e {
                    *e = end;
                    self.geometry_rev += 1;
                }
            }
            if self.vfd_total == 0 {
                // vfd_empty flips: every fallback-derived partial is stale.
                self.geometry_rev += 1;
            }
            self.vfd_total += 1;
        }
        self.record_files
            .extend(files.iter().map(|r| r.file.symbol()));
        self.record_total += vfd.len() + vol.len() + files.len();
        self.append(vfd, |r| &r.task, |s| &mut s.vfd);
        self.append(vol, |r| &r.task, |s| &mut s.vol);
        self.append(files, |r| &r.task, |s| &mut s.files);
    }

    /// [`Self::absorb_owned`] of a copy of `section`.
    pub fn absorb(&mut self, section: &TraceBundle) {
        self.absorb_owned(section.clone());
    }

    /// Absorbs the section unless an identical one (by content digest) was
    /// absorbed before; returns whether it was new. The digest is the
    /// wire-level SHA-256 of the encoded section, computed by the caller
    /// (the ingest service checks it against the frame header anyway).
    pub fn absorb_unique_owned(&mut self, digest: Digest, section: TraceBundle) -> bool {
        let new = self.digests.insert(digest);
        if new {
            self.absorb_owned(section);
        }
        new
    }

    /// [`Self::absorb_unique_owned`] of a copy of `section`, made only if
    /// the section is new.
    pub fn absorb_unique(&mut self, digest: Digest, section: &TraceBundle) -> bool {
        !self.digests.contains(&digest) && self.absorb_unique_owned(digest, section.clone())
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

    /// Snapshots the File-Task Graph over everything absorbed so far,
    /// rebuilding only the per-task partials invalidated since the last
    /// snapshot.
    pub fn snapshot_ftg(&mut self) -> Graph {
        let vfd_empty = self.vfd_total == 0;
        let ordering = self.ordering();
        let geometry_rev = self.geometry_rev;
        refresh_cache(
            &mut self.ftg_cache,
            &self.tasks,
            &ordering,
            geometry_rev,
            None,
            |part| {
                let mut g = Graph::new(GraphKind::Ftg, "");
                build::ftg_records(&mut g, part, vfd_empty);
                g
            },
        );
        let mut g = Graph::new(GraphKind::Ftg, self.meta.workflow.clone());
        assemble(&mut g, &ordering, &self.ftg_cache);
        g
    }

    /// Snapshots the Semantic Dataflow Graph. Changing `opts` between
    /// snapshots is allowed and rebuilds everything once.
    pub fn snapshot_sdg(&mut self, opts: &SdgOptions) -> Graph {
        let fingerprint = (opts.include_regions, opts.region_count);
        if self.sdg_opts != Some(fingerprint) {
            self.sdg_cache.clear();
            self.sdg_opts = Some(fingerprint);
        }
        let regions = Regions {
            count: opts.region_count,
            file_extent: &self.file_extent,
            page: self.meta.page_size.max(1),
        };
        let vfd_empty = self.vfd_total == 0;
        let ordering = self.ordering();
        refresh_cache(
            &mut self.sdg_cache,
            &self.tasks,
            &ordering,
            self.geometry_rev,
            opts.include_regions.then_some(&regions),
            |part| {
                let mut g = Graph::new(GraphKind::Sdg, "");
                build::sdg_records(&mut g, &mut LabelCache::default(), part, vfd_empty);
                g
            },
        );
        let mut g = Graph::new(GraphKind::Sdg, self.meta.workflow.clone());
        assemble(&mut g, &ordering, &self.sdg_cache);
        g
    }

    /// Snapshot task ordering: execution order first, record-bearing
    /// stragglers after in first-arrival order — the incremental analogue
    /// of [`TraceBundle::all_tasks`].
    fn ordering(&self) -> Vec<TaskKey> {
        let mut tasks = self.meta.task_order.clone();
        let mut seen: HashSet<TaskKey> = tasks.iter().cloned().collect();
        for t in &self.arrival {
            if seen.insert(t.clone()) {
                tasks.push(t.clone());
            }
        }
        tasks
    }

    /// `task`'s records, created (and its arrival noted) on first sight,
    /// with its revision bumped for the records the caller appends.
    fn task_state(&mut self, task: &TaskKey) -> &mut TaskState {
        let state = self.tasks.entry(task.clone()).or_insert_with(|| {
            self.task_nodes.insert(task.symbol());
            self.arrival.push(task.clone());
            TaskState::default()
        });
        state.rev += 1;
        state
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

    /// Merges a section's meta. Only the tasks the merge appends to the
    /// order are new task nodes: the first meta's whole order, then what
    /// each later one names that is not yet present.
    fn absorb_meta(&mut self, m: TraceMeta) {
        let known = self.meta.task_order.len();
        if self.saw_meta {
            self.meta.merge(&m);
        } else {
            self.meta = m.into_first();
            self.saw_meta = true;
        }
        self.task_nodes
            .extend(self.meta.task_order[known..].iter().map(TaskKey::symbol));
    }
}

/// Rebuilds the cache entries that are stale for the current input
/// versions. Each stale task's VFD records are folded under `regions`.
fn refresh_cache<F>(
    cache: &mut HashMap<TaskKey, CacheEntry>,
    tasks: &HashMap<TaskKey, TaskState>,
    ordering: &[TaskKey],
    geometry_rev: u64,
    regions: Option<&Regions<'_>>,
    build: F,
) where
    F: Fn(&Partition<'_>) -> Graph,
{
    static EMPTY: TaskState = TaskState {
        vfd: Vec::new(),
        vol: Vec::new(),
        files: Vec::new(),
        rev: 0,
    };
    for t in ordering {
        let s = tasks.get(t).unwrap_or(&EMPTY);
        let fresh = cache
            .get(t)
            .is_some_and(|c| c.task_rev == s.rev && c.geometry_rev == geometry_rev);
        if fresh {
            continue;
        }
        let part = Partition::from_slices(t.clone(), &s.vfd, &s.vol, &s.files, regions);
        let graph = build(&part);
        cache.insert(
            t.clone(),
            CacheEntry {
                task_rev: s.rev,
                geometry_rev,
                graph,
            },
        );
    }
}

/// Seeds task nodes then folds the cached partials, in snapshot order —
/// the order in which the batch build seeds task nodes and then writes
/// each task's records.
fn assemble(g: &mut Graph, ordering: &[TaskKey], cache: &HashMap<TaskKey, CacheEntry>) {
    for t in ordering {
        g.node_sym(NodeKind::Task, t.symbol());
    }
    for t in ordering {
        if let Some(entry) = cache.get(t) {
            merge_partial(g, &entry.graph);
        }
    }
    g.normalize_times();
}

/// Folds a per-task partial graph into `g`: nodes dedup by
/// `(kind, label)` with spans/volumes merged, edges dedup by
/// `(from, to, op)` with statistics merged. Node and edge ids come out as
/// if the partial's records had been written into `g` directly.
fn merge_partial(g: &mut Graph, part: &Graph) {
    let mut map = Vec::with_capacity(part.nodes.len());
    for n in &part.nodes {
        let id = g.node_sym(n.kind, Symbol::intern(&n.label));
        // Untouched nodes carry the (start=MAX, end=0) sentinel, which is
        // the identity of the (min, max) fold — merging it is a no-op.
        g.touch_node(id, n.start, n.end, n.volume);
        map.push(id);
    }
    for e in &part.edges {
        g.edge(map[e.from], map[e.to], e.op, e.stats.clone());
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
        // Snapshot between every absorb: the caches must refresh exactly
        // the partials whose inputs changed, including the vfd_empty flip
        // when the first VFD-bearing section lands after a FileRecord-only
        // one.
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
        // absorbed* records, so stale cached partials would be wrong.
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
    fn interleaved_task_runs_absorb_in_order_and_cache_per_task() {
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

        // A later t2-only section inside a.h5's known extent moves no
        // geometry: t1's cached partials are kept, t2's are rebuilt.
        let revs = |cache: &HashMap<TaskKey, CacheEntry>, t: &TaskKey| {
            (cache[t].task_rev, cache[t].geometry_rev)
        };
        let (ftg_t1, sdg_t1) = (revs(&pg.ftg_cache, &t1), revs(&pg.sdg_cache, &t1));
        let (ftg_t2, sdg_t2) = (revs(&pg.ftg_cache, &t2), revs(&pg.sdg_cache, &t2));
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
        assert_eq!(revs(&pg.ftg_cache, &t1), ftg_t1);
        assert_eq!(revs(&pg.sdg_cache, &t1), sdg_t1);
        assert_ne!(revs(&pg.ftg_cache, &t2), ftg_t2);
        assert_ne!(revs(&pg.sdg_cache, &t2), sdg_t2);
    }

    #[test]
    fn empty_partial_graph_snapshots_empty_graphs() {
        let mut pg = PartialGraph::new();
        assert_eq!(pg.snapshot_ftg().nodes.len(), 0);
        assert_eq!(pg.snapshot_sdg(&SdgOptions::default()).nodes.len(), 0);
        assert_eq!(pg.records(), 0);
        assert_eq!(pg.retained_bytes(), 0);
    }
}
