//! FTG and SDG construction from trace bundles (Section V of the paper).
//!
//! * [`build_ftg`] — the complete-overview graph: files and tasks as nodes,
//!   directed read/write edges decorated with access statistics.
//! * [`build_sdg`] — the deeper semantic graph: a dataset layer between
//!   tasks and files, optionally enriched with file-address region nodes
//!   showing where each dataset's content lands in the file (Fig. 3/8).
//!
//! Edges are primarily derived from the VFD trace (low-level truth,
//! including the metadata/raw split and the current-object attribution from
//! the Characteristic Mapper); object-level (VOL) accesses supply logical
//! volumes and cover runs where time-sensitive I/O tracing was disabled.
//!
//! ## Fold, then write
//!
//! Every statistic a graph carries from VFD records is a total over a
//! group of them: per task, file, object and direction (and, with region
//! nodes, address region). Both builders partition the bundle's records
//! by task in [`TraceBundle::all_tasks`] order (execution order first,
//! stragglers after) and, in the same pass, fold each data-moving VFD
//! record into its group's [`EdgeStats`]: one hash lookup per record.
//! Groups keep the order of their first record. The builders then seed
//! one task node per task, so node ids follow that order, and write each
//! task's groups into the final graph in that order: the file and
//! dataset nodes, the access edge with the group's statistics, and the
//! structural edge; the FTG drops the object, so groups that differ only
//! in it merge into one file edge. VOL records and file records are
//! written after, record by record.
//!
//! The graphs are the ones a record-by-record write would make. Such a
//! write creates a node or an edge only at the first record of a group,
//! and writing groups in first-record order repeats that sequence, so
//! node ids and edge order match; node spans and edge statistics are
//! mins, maxes and sums, which do not depend on grouping.
//! [`crate::Analysis::run`] partitions once for both graphs. The
//! incremental builder ([`crate::partial`]) keeps no bundle: it builds a
//! partition from each task's retained records, in the same task order,
//! and hands them to the same writer, so its snapshots are the batch
//! graphs, node and edge ids included.

use crate::graph::{EdgeStats, Graph, GraphKind, NodeKind, Operation};
use dayu_trace::store::TraceBundle;
use dayu_trace::vfd::{AccessType, FileRecord, IoKind, VfdRecord};
use dayu_trace::vol::{VolAccessKind, VolRecord};
use dayu_trace::{Symbol, SymbolMap, TaskKey};
use std::collections::hash_map::Entry;

/// Options for SDG construction.
#[derive(Clone, Debug)]
pub struct SdgOptions {
    /// Whether to add file-address region nodes.
    pub include_regions: bool,
    /// How many address regions to divide each file into.
    pub region_count: u64,
}

impl Default for SdgOptions {
    fn default() -> Self {
        Self {
            include_regions: false,
            region_count: 4,
        }
    }
}

fn vfd_stats(rec: &VfdRecord) -> EdgeStats {
    let meta = rec.access == AccessType::Metadata;
    EdgeStats {
        access_volume: rec.len,
        access_count: 1,
        data_access_count: u64::from(!meta),
        data_access_volume: if meta { 0 } else { rec.len },
        metadata_access_count: u64::from(meta),
        metadata_access_volume: if meta { rec.len } else { 0 },
        busy_ns: rec.duration(),
        first: rec.start,
        last: rec.end,
    }
}

/// What a task's data-moving VFD records are grouped by: file, object,
/// direction and, in region mode, the `[lo, hi)` page range of the region
/// holding the record's offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FoldKey {
    file: Symbol,
    object: Symbol,
    write: bool,
    region: Option<(u64, u64)>,
}

/// One group of a task's VFD records and their summed statistics.
struct Fold {
    key: FoldKey,
    stats: EdgeStats,
}

/// Region mode's geometry: each file's observed extent split into
/// `count` page-aligned pieces.
pub(crate) struct Regions<'a> {
    pub(crate) count: u64,
    pub(crate) file_extent: &'a SymbolMap<Symbol, u64>,
    pub(crate) page: u64,
}

impl Regions<'_> {
    /// The `[lo, hi)` page range of the region holding `offset`.
    fn region_of(&self, file: Symbol, offset: u64) -> (u64, u64) {
        let regions = self.count;
        let extent = self.file_extent.get(&file).copied().unwrap_or(0).max(1);
        let total_pages = extent.div_ceil(self.page);
        let per_region = total_pages.div_ceil(regions.max(1)).max(1);
        let page_idx = offset / self.page;
        let region = (page_idx / per_region).min(regions - 1);
        let lo = region * per_region;
        let hi = ((region + 1) * per_region).min(total_pages.max(1));
        (lo, hi)
    }
}

/// Folds VFD records into their partitions' groups. One index serves
/// every partition, keyed by partition and group.
struct Folder<'r> {
    regions: Option<&'r Regions<'r>>,
    index: SymbolMap<(usize, FoldKey), usize>,
}

impl<'r> Folder<'r> {
    fn new(regions: Option<&'r Regions<'r>>) -> Self {
        Self {
            regions,
            index: SymbolMap::default(),
        }
    }

    /// Adds `rec` to its group in `folds`, partition `part`'s groups; a
    /// record that moves no data adds nothing.
    fn add(&mut self, part: usize, folds: &mut Vec<Fold>, rec: &VfdRecord) {
        if !rec.kind.moves_data() {
            return;
        }
        let file = rec.file.symbol();
        let key = FoldKey {
            file,
            object: rec.object.symbol(),
            write: rec.kind == IoKind::Write,
            region: self.regions.map(|r| r.region_of(file, rec.offset)),
        };
        match self.index.entry((part, key)) {
            Entry::Occupied(e) => folds[*e.get()].stats.merge(&vfd_stats(rec)),
            Entry::Vacant(e) => {
                e.insert(folds.len());
                folds.push(Fold {
                    key,
                    stats: vfd_stats(rec),
                });
            }
        }
    }
}

/// One task's slice of a bundle: its VFD records folded, its VOL and
/// file records in within-task record order. Shared with the incremental
/// builder ([`crate::partial`]), which builds partitions from its
/// retained per-task records instead of a whole bundle.
pub(crate) struct Partition<'a> {
    task: TaskKey,
    folds: Vec<Fold>,
    vol: Vec<&'a VolRecord>,
    files: Vec<&'a FileRecord>,
}

impl<'a> Partition<'a> {
    fn new(task: TaskKey) -> Self {
        Self {
            task,
            folds: Vec::new(),
            vol: Vec::new(),
            files: Vec::new(),
        }
    }

    /// A partition over records already grouped by task (the incremental
    /// builder's retained state). Slices must be in within-task record
    /// order for the build to match the batch path.
    pub(crate) fn from_slices(
        task: TaskKey,
        vfd: &[VfdRecord],
        vol: &'a [VolRecord],
        files: &'a [FileRecord],
        regions: Option<&Regions<'_>>,
    ) -> Self {
        let mut part = Self::new(task);
        let mut folder = Folder::new(regions);
        for rec in vfd {
            folder.add(0, &mut part.folds, rec);
        }
        part.vol = vol.iter().collect();
        part.files = files.iter().collect();
        part
    }
}

/// Splits the bundle's records by task, in `all_tasks` order (execution
/// order first, stragglers after), folding VFD records as they land.
/// Every record lands in exactly one partition — `all_tasks` includes
/// every task any record names. Consecutive VFD records of one task take
/// one task lookup.
fn partition<'a>(bundle: &'a TraceBundle, regions: Option<&Regions<'_>>) -> Vec<Partition<'a>> {
    let tasks = bundle.all_tasks();
    let index: SymbolMap<Symbol, usize> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.symbol(), i))
        .collect();
    let mut parts: Vec<Partition<'_>> = tasks.into_iter().map(Partition::new).collect();
    let mut folder = Folder::new(regions);
    for run in bundle.vfd.chunk_by(|a, b| a.task == b.task) {
        let p = index[&run[0].task.symbol()];
        let folds = &mut parts[p].folds;
        for rec in run {
            folder.add(p, folds, rec);
        }
    }
    for r in &bundle.vol {
        parts[index[&r.task.symbol()]].vol.push(r);
    }
    for r in &bundle.files {
        parts[index[&r.task.symbol()]].files.push(r);
    }
    parts
}

/// [`partition`] folded with region keys when `opts` asks for region
/// nodes: the partition both graphs of [`crate::Analysis::run_with`] are
/// written from.
pub(crate) fn partition_for<'a>(bundle: &'a TraceBundle, opts: &SdgOptions) -> Vec<Partition<'a>> {
    if !opts.include_regions {
        return partition(bundle, None);
    }
    let mut file_extent: SymbolMap<Symbol, u64> = SymbolMap::default();
    for rec in &bundle.vfd {
        if rec.kind.moves_data() {
            let e = file_extent.entry(rec.file.symbol()).or_default();
            *e = (*e).max(rec.offset + rec.len);
        }
    }
    let regions = Regions {
        count: opts.region_count,
        file_extent: &file_extent,
        page: bundle.meta.page_size.max(1),
    };
    partition(bundle, Some(&regions))
}

/// A graph of `workflow`: one task node per partition, then each
/// partition's records written by `write`, both in partition order. Batch
/// builds and [`crate::PartialGraph`] snapshots both reach a graph here.
fn write_tasks(
    kind: GraphKind,
    workflow: &str,
    parts: &[Partition<'_>],
    mut write: impl FnMut(&mut Graph, &Partition<'_>),
) -> Graph {
    let mut g = Graph::new(kind, workflow);
    for part in parts {
        g.node_sym(NodeKind::Task, part.task.symbol());
    }
    for part in parts {
        write(&mut g, part);
    }
    g.normalize_times();
    g
}

/// Widens node `id`'s span to a group's first and last access and adds
/// its volume.
fn touch(g: &mut Graph, id: usize, stats: &EdgeStats) {
    g.touch_node(id, stats.first, stats.last, stats.access_volume);
}

/// Writes one task's records into `g` under the FTG's rules. `vfd_empty`
/// is the whole bundle's, not the task's: a bundle without VFD records
/// falls back to file statistics in every task.
fn ftg_records(g: &mut Graph, part: &Partition<'_>, vfd_empty: bool) {
    let t = g.node_sym(NodeKind::Task, part.task.symbol());

    for Fold { key, stats } in &part.folds {
        let f = g.node_sym(NodeKind::File, key.file);
        touch(g, t, stats);
        touch(g, f, stats);
        if key.write {
            g.edge(t, f, Operation::WriteOnly, stats.clone());
        } else {
            g.edge(f, t, Operation::ReadOnly, stats.clone());
        }
    }

    // Fallback/supplement: per-file statistics cover runs without I/O
    // tracing (constant-storage mode).
    if vfd_empty {
        for fr in &part.files {
            let f = g.node_sym(NodeKind::File, fr.file.symbol());
            let (start, end) = fr
                .lifetimes
                .first()
                .map(|l| (l.start, l.end))
                .unwrap_or_default();
            g.touch_node(t, start, end, fr.stats.total_bytes());
            g.touch_node(f, start, end, fr.stats.total_bytes());
            if fr.stats.read_ops > 0 {
                g.edge(
                    f,
                    t,
                    Operation::ReadOnly,
                    EdgeStats {
                        access_volume: fr.stats.bytes_read,
                        access_count: fr.stats.read_ops,
                        first: start,
                        last: end,
                        ..Default::default()
                    },
                );
            }
            if fr.stats.write_ops > 0 {
                g.edge(
                    t,
                    f,
                    Operation::WriteOnly,
                    EdgeStats {
                        access_volume: fr.stats.bytes_written,
                        access_count: fr.stats.write_ops,
                        first: start,
                        last: end,
                        ..Default::default()
                    },
                );
            }
        }
    }
}

/// Builds the File-Task Graph.
pub fn build_ftg(bundle: &TraceBundle) -> Graph {
    ftg_of(
        &bundle.meta.workflow,
        bundle.vfd.is_empty(),
        &partition(bundle, None),
    )
}

/// The FTG of `workflow` over its task partitions, folded with or without
/// regions; `vfd_empty` says whether the workflow has no VFD record.
pub(crate) fn ftg_of(workflow: &str, vfd_empty: bool, parts: &[Partition<'_>]) -> Graph {
    write_tasks(GraphKind::Ftg, workflow, parts, |g, part| {
        ftg_records(g, part, vfd_empty)
    })
}

/// Label of a dataset node: `file:object` (objects are per-file).
pub fn dataset_label(file: &str, object: &str) -> String {
    format!("{file}:{object}")
}

/// Label of an address-region node: `file:[lo-hi)p` in pages.
pub fn region_label(file: &str, lo_page: u64, hi_page: u64) -> String {
    format!("{file}:[{lo_page}-{hi_page})p")
}

/// Interning caches for the SDG's composite labels (`file:object` dataset
/// labels, `file:[lo-hi)p` region labels), so a build formats a label
/// string only the first time a distinct one appears.
#[derive(Default)]
struct LabelCache {
    dataset: SymbolMap<(Symbol, Symbol), Symbol>,
    region: SymbolMap<(Symbol, u64, u64), Symbol>,
}

impl LabelCache {
    fn dataset(&mut self, file: Symbol, object: Symbol) -> Symbol {
        *self
            .dataset
            .entry((file, object))
            .or_insert_with(|| Symbol::intern(&dataset_label(file.as_str(), object.as_str())))
    }

    fn region(&mut self, file: Symbol, lo: u64, hi: u64) -> Symbol {
        *self
            .region
            .entry((file, lo, hi))
            .or_insert_with(|| Symbol::intern(&region_label(file.as_str(), lo, hi)))
    }
}

/// Writes one task's records into `g` under the SDG's rules. The
/// partition's groups carry a region exactly when it was folded in region
/// mode, and then each writes a region node between dataset and file.
fn sdg_records(g: &mut Graph, labels: &mut LabelCache, part: &Partition<'_>, vfd_empty: bool) {
    let t = g.node_sym(NodeKind::Task, part.task.symbol());

    // Low-level truth: edges from attributed VFD records.
    for Fold { key, stats } in &part.folds {
        let f = g.node_sym(NodeKind::File, key.file);
        let d = g.node_sym(NodeKind::Dataset, labels.dataset(key.file, key.object));
        touch(g, t, stats);
        touch(g, f, stats);
        touch(g, d, stats);
        if key.write {
            g.edge(t, d, Operation::WriteOnly, stats.clone());
        } else {
            g.edge(d, t, Operation::ReadOnly, stats.clone());
        }
        if let Some((lo, hi)) = key.region {
            let r = g.node_sym(NodeKind::AddrRegion, labels.region(key.file, lo, hi));
            touch(g, r, stats);
            g.edge(d, r, Operation::Structural, stats.clone());
            g.edge(r, f, Operation::Structural, EdgeStats::default());
        } else {
            g.edge(d, f, Operation::Structural, EdgeStats::default());
        }
    }

    // Semantic layer: object-level accesses (logical volumes, and coverage
    // when I/O tracing was off). Only the logical volume and count are
    // added; low-level splits came from the VFD records above.
    for rec in &part.vol {
        if rec.accesses.is_empty() {
            continue;
        }
        let d = g.node_sym(
            NodeKind::Dataset,
            labels.dataset(rec.file.symbol(), rec.object.symbol()),
        );
        let f = g.node_sym(NodeKind::File, rec.file.symbol());
        if vfd_empty {
            // No low-level records: this is the only source of edges.
            for a in &rec.accesses {
                let stats = EdgeStats {
                    access_volume: a.bytes,
                    access_count: a.count,
                    first: a.at,
                    last: a.at,
                    ..Default::default()
                };
                g.touch_node(t, a.at, a.at, a.bytes);
                g.touch_node(d, a.at, a.at, a.bytes);
                match a.kind {
                    VolAccessKind::Read => g.edge(d, t, Operation::ReadOnly, stats),
                    VolAccessKind::Write => g.edge(t, d, Operation::WriteOnly, stats),
                }
            }
            g.edge(d, f, Operation::Structural, EdgeStats::default());
        }
        let (start, end) = rec
            .lifetimes
            .first()
            .map(|l| (l.start, l.end))
            .unwrap_or_default();
        g.touch_node(d, start, end, 0);
    }
}

/// Builds the Semantic Dataflow Graph.
pub fn build_sdg(bundle: &TraceBundle, opts: &SdgOptions) -> Graph {
    sdg_of(
        &bundle.meta.workflow,
        bundle.vfd.is_empty(),
        &partition_for(bundle, opts),
    )
}

/// The SDG of `workflow` over its task partitions; region nodes appear
/// when they were folded with regions.
pub(crate) fn sdg_of(workflow: &str, vfd_empty: bool, parts: &[Partition<'_>]) -> Graph {
    let mut labels = LabelCache::default();
    write_tasks(GraphKind::Sdg, workflow, parts, |g, part| {
        sdg_records(g, &mut labels, part, vfd_empty)
    })
}

#[cfg(test)]
#[allow(clippy::too_many_arguments)] // the test factory mirrors VfdRecord's fields
mod tests {
    use super::*;
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::time::Timestamp;
    use dayu_trace::vfd::VfdRecord;

    fn rec(
        task: &str,
        file: &str,
        object: &str,
        kind: IoKind,
        offset: u64,
        len: u64,
        access: AccessType,
        at: u64,
    ) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            kind,
            offset,
            len,
            access,
            object: ObjectKey::new(object),
            start: Timestamp(at),
            end: Timestamp(at + 10),
        }
    }

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("producer"));
        b.push_task(TaskKey::new("consumer"));
        b.vfd = vec![
            rec(
                "producer",
                "a.h5",
                "/d1",
                IoKind::Write,
                0,
                64,
                AccessType::Metadata,
                0,
            ),
            rec(
                "producer",
                "a.h5",
                "/d1",
                IoKind::Write,
                4096,
                1000,
                AccessType::RawData,
                10,
            ),
            rec(
                "consumer",
                "a.h5",
                "/d1",
                IoKind::Read,
                4096,
                1000,
                AccessType::RawData,
                100,
            ),
            rec(
                "consumer",
                "b.h5",
                "/d2",
                IoKind::Write,
                0,
                500,
                AccessType::RawData,
                200,
            ),
        ];
        b
    }

    #[test]
    fn ftg_structure() {
        let g = build_ftg(&sample_bundle());
        assert_eq!(g.kind, GraphKind::Ftg);
        assert_eq!(g.nodes_of(NodeKind::Task).count(), 2);
        assert_eq!(g.nodes_of(NodeKind::File).count(), 2);
        assert_eq!(
            g.nodes_of(NodeKind::Dataset).count(),
            0,
            "FTG has no dataset layer"
        );

        // producer → a.h5 (writes, merged), a.h5 → consumer (read),
        // consumer → b.h5 (write).
        assert_eq!(g.edges.len(), 3);
        let prod = g.find(NodeKind::Task, "producer").unwrap().id;
        let a = g.find(NodeKind::File, "a.h5").unwrap().id;
        let w = g
            .edges
            .iter()
            .find(|e| e.from == prod && e.to == a)
            .unwrap();
        assert_eq!(w.stats.access_count, 2);
        assert_eq!(w.stats.access_volume, 1064);
        assert_eq!(w.stats.metadata_access_count, 1);
        assert_eq!(w.stats.data_access_volume, 1000);
        assert_eq!(w.stats.first, Timestamp(0));
        assert_eq!(w.stats.last, Timestamp(20));
        assert!(w.stats.bandwidth().unwrap() > 0.0);
    }

    #[test]
    fn ftg_falls_back_to_file_records() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        b.files.push(dayu_trace::vfd::FileRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("f.h5"),
            lifetimes: vec![dayu_trace::time::Interval::new(Timestamp(0), Timestamp(9))],
            stats: {
                let mut s = dayu_trace::vfd::FileStats::default();
                s.record(IoKind::Read, 0, 100, AccessType::RawData);
                s.record(IoKind::Write, 100, 300, AccessType::RawData);
                s
            },
        });
        let g = build_ftg(&b);
        assert_eq!(g.edges.len(), 2, "read and write edges from stats");
        let f = g.find(NodeKind::File, "f.h5").unwrap();
        assert_eq!(f.volume, 400);
    }

    #[test]
    fn sdg_has_dataset_layer_with_attribution() {
        let g = build_sdg(&sample_bundle(), &SdgOptions::default());
        assert_eq!(g.kind, GraphKind::Sdg);
        assert_eq!(g.nodes_of(NodeKind::Dataset).count(), 2);

        let d1 = g.find(NodeKind::Dataset, "a.h5:/d1").unwrap().id;
        let cons = g.find(NodeKind::Task, "consumer").unwrap().id;
        let read_edge = g
            .edges
            .iter()
            .find(|e| e.from == d1 && e.to == cons)
            .expect("dataset → consumer read edge");
        assert_eq!(read_edge.op, Operation::ReadOnly);
        assert_eq!(read_edge.stats.data_access_count, 1);
        assert_eq!(read_edge.stats.metadata_access_count, 0);

        // Structural containment edge dataset → file.
        let a = g.find(NodeKind::File, "a.h5").unwrap().id;
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == d1 && e.to == a && e.op == Operation::Structural));
    }

    #[test]
    fn sdg_with_regions() {
        let mut b = sample_bundle();
        // Spread writes to make 2 distinguishable regions in a.h5.
        b.vfd.push(rec(
            "producer",
            "a.h5",
            "/d1",
            IoKind::Write,
            100_000,
            1000,
            AccessType::RawData,
            30,
        ));
        let g = build_sdg(
            &b,
            &SdgOptions {
                include_regions: true,
                region_count: 4,
            },
        );
        let regions: Vec<&str> = g
            .nodes_of(NodeKind::AddrRegion)
            .map(|n| n.label.as_str())
            .collect();
        assert!(regions.len() >= 2, "distinct regions: {regions:?}");
        // Region nodes connect to the file, datasets connect to regions,
        // and no dataset connects directly to the file.
        let d1 = g.find(NodeKind::Dataset, "a.h5:/d1").unwrap().id;
        let a = g.find(NodeKind::File, "a.h5").unwrap().id;
        assert!(!g.edges.iter().any(|e| e.from == d1 && e.to == a));
        let region_id = g.nodes_of(NodeKind::AddrRegion).next().unwrap().id;
        assert!(g.edges.iter().any(|e| e.from == region_id && e.to == a));
    }

    #[test]
    fn sdg_from_vol_only() {
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("t"));
        b.vol.push(dayu_trace::vol::VolRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("f.h5"),
            object: ObjectKey::new("/d"),
            kind: dayu_trace::vol::ObjectKind::Dataset,
            lifetimes: vec![],
            description: Default::default(),
            accesses: vec![dayu_trace::vol::VolAccess {
                kind: VolAccessKind::Write,
                count: 1,
                bytes: 256,
                sel_offset: vec![],
                sel_count: vec![],
                at: Timestamp(7),
            }],
        });
        let g = build_sdg(&b, &SdgOptions::default());
        let d = g.find(NodeKind::Dataset, "f.h5:/d").unwrap();
        assert_eq!(d.volume, 256);
        let t = g.find(NodeKind::Task, "t").unwrap().id;
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == t && e.to == d.id && e.op == Operation::WriteOnly));
    }

    #[test]
    fn empty_bundle_builds_empty_graphs() {
        let b = TraceBundle::new("wf");
        assert_eq!(build_ftg(&b).nodes.len(), 0);
        assert_eq!(build_sdg(&b, &SdgOptions::default()).nodes.len(), 0);
    }

    /// The batch build equals a `PartialGraph` snapshot, node and edge
    /// ids included, on a bundle with a straggler task missing from
    /// `task_order`.
    #[test]
    fn partial_snapshot_equals_batch_build() {
        let mut b = sample_bundle();
        b.vfd.push(rec(
            "straggler",
            "a.h5",
            "/d1",
            IoKind::Read,
            4096,
            10,
            AccessType::RawData,
            400,
        ));
        let opts = SdgOptions {
            include_regions: true,
            region_count: 4,
        };
        let mut pg = crate::PartialGraph::new();
        pg.absorb(&b);
        assert_eq!(pg.snapshot_ftg(), build_ftg(&b));
        assert_eq!(pg.snapshot_sdg(&opts), build_sdg(&b, &opts));
    }

    #[test]
    fn partial_snapshot_equals_batch_build_for_file_record_fallback() {
        let mut b = TraceBundle::new("wf");
        for i in 0..3u64 {
            let task = format!("t{i}");
            b.push_task(TaskKey::new(&task));
            b.files.push(dayu_trace::vfd::FileRecord {
                task: TaskKey::new(&task),
                file: FileKey::new("shared.h5"),
                lifetimes: vec![dayu_trace::time::Interval::new(
                    Timestamp(i),
                    Timestamp(i + 10),
                )],
                stats: {
                    let mut s = dayu_trace::vfd::FileStats::default();
                    s.record(IoKind::Write, 0, 100 * (i + 1), AccessType::RawData);
                    s
                },
            });
        }
        let mut pg = crate::PartialGraph::new();
        for s in b.split_per_task() {
            pg.absorb(&s);
        }
        assert_eq!(pg.snapshot_ftg(), build_ftg(&b));
    }
}
