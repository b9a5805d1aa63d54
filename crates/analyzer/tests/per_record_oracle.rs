//! The graph builders against a per-record oracle: a plain copy of the
//! FTG and SDG rules that writes every VFD record into the graph on its
//! own (node lookups, node touches and edge merges per record). The
//! builders group a task's records before writing them; the graphs must
//! come out identical, node and edge ids included, with region nodes on
//! and off, through `build_ftg`/`build_sdg` and through `Analysis::run`'s
//! shared pass.

use dayu_analyzer::build::{build_ftg, build_sdg, dataset_label, region_label};
use dayu_analyzer::{
    Analysis, DetectorConfig, EdgeStats, Graph, GraphKind, NodeKind, Operation, SdgOptions,
};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::rng::{cases, ChaosRng};
use dayu_trace::time::{Interval, Timestamp};
use dayu_trace::vfd::{AccessType, FileRecord, FileStats, IoKind, VfdRecord};
use dayu_trace::vol::{ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord};
use dayu_trace::{Symbol, SymbolMap, TraceBundle};

const TASKS: [&str; 6] = ["t0", "t1", "t2", "t3", "t4", "t5"];
const FILES: [&str; 3] = ["a.h5", "b.h5", "c.h5"];
/// Object names every file reuses, so one name is several datasets.
const OBJECTS: [&str; 3] = ["/d", "/g/x", "File-Metadata"];
const KINDS: [IoKind; 6] = [
    IoKind::Read,
    IoKind::Write,
    IoKind::Open,
    IoKind::Close,
    IoKind::Flush,
    IoKind::Truncate,
];

fn pick<'a>(rng: &mut ChaosRng, from: &[&'a str]) -> &'a str {
    from[rng.range(0, from.len() as u64) as usize]
}

fn stamp(rng: &mut ChaosRng) -> Timestamp {
    Timestamp(rng.range(0, 1_000))
}

/// A VFD record on a small key space, so reads and writes interleave on
/// one (file, object) key. Mostly reads and writes; some lifecycle ops
/// and zero-length ops; start stamps in no order across records, and
/// now and then an end before its start.
fn arb_vfd(rng: &mut ChaosRng, tasks: &[&str], files: &[&str]) -> VfdRecord {
    let kind = if rng.chance(0.8) {
        KINDS[rng.range(0, 2) as usize]
    } else {
        KINDS[rng.range(2, 6) as usize]
    };
    let start = stamp(rng);
    let end = if rng.chance(0.1) {
        stamp(rng)
    } else {
        Timestamp(start.0 + rng.range(0, 50))
    };
    VfdRecord {
        task: TaskKey::new(pick(rng, tasks)),
        file: FileKey::new(pick(rng, files)),
        kind,
        offset: rng.range(0, 1 << 16),
        len: if rng.chance(0.15) {
            0
        } else {
            rng.range(1, 1 << 12)
        },
        access: if rng.chance(0.5) {
            AccessType::Metadata
        } else {
            AccessType::RawData
        },
        object: ObjectKey::new(pick(rng, &OBJECTS)),
        start,
        end,
    }
}

fn arb_vol(rng: &mut ChaosRng, tasks: &[&str], files: &[&str]) -> VolRecord {
    let accesses = (0..rng.range(0, 4))
        .map(|_| VolAccess {
            kind: if rng.chance(0.5) {
                VolAccessKind::Read
            } else {
                VolAccessKind::Write
            },
            count: rng.range(1, 4),
            bytes: rng.range(0, 1 << 12),
            sel_offset: vec![],
            sel_count: vec![],
            at: stamp(rng),
        })
        .collect();
    let lifetimes = if rng.chance(0.7) {
        let start = stamp(rng);
        vec![Interval::new(start, Timestamp(start.0 + rng.range(0, 100)))]
    } else {
        vec![]
    };
    VolRecord {
        task: TaskKey::new(pick(rng, tasks)),
        file: FileKey::new(pick(rng, files)),
        object: ObjectKey::new(pick(rng, &OBJECTS)),
        kind: ObjectKind::Dataset,
        lifetimes,
        description: ObjectDescription::default(),
        accesses,
    }
}

fn arb_file(rng: &mut ChaosRng, tasks: &[&str], files: &[&str]) -> FileRecord {
    let mut stats = FileStats::default();
    for _ in 0..rng.range(0, 4) {
        let kind = KINDS[rng.range(0, 2) as usize];
        stats.record(kind, 0, rng.range(0, 1 << 12), AccessType::RawData);
    }
    let start = stamp(rng);
    FileRecord {
        task: TaskKey::new(pick(rng, tasks)),
        file: FileKey::new(pick(rng, files)),
        lifetimes: vec![Interval::new(start, Timestamp(start.0 + 10))],
        stats,
    }
}

/// 1–6 tasks, the last of them left out of `task_order` when there is
/// more than one (a straggler the builders order after the rest); 1–3
/// files; a fifth of the bundles carry no VFD record, so the FTG falls
/// back to file records and the SDG to VOL accesses.
fn arb_bundle(rng: &mut ChaosRng) -> TraceBundle {
    let tasks = &TASKS[..rng.range(1, 7) as usize];
    let files = &FILES[..rng.range(1, 4) as usize];
    let mut b = TraceBundle::new("oracle");
    b.meta.page_size = [512, 4096][rng.range(0, 2) as usize];
    let straggler = tasks.len() > 1;
    for t in &tasks[..tasks.len() - usize::from(straggler)] {
        b.push_task(TaskKey::new(*t));
    }
    if rng.chance(0.8) {
        b.vfd = (0..rng.range(1, 60))
            .map(|_| arb_vfd(rng, tasks, files))
            .collect();
    }
    b.vol = (0..rng.range(0, 8))
        .map(|_| arb_vol(rng, tasks, files))
        .collect();
    b.files = (0..rng.range(0, 5))
        .map(|_| arb_file(rng, tasks, files))
        .collect();
    b
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

/// One task node per task, then `write` for each task with its records
/// in bundle order. Tasks come in `task_order`, then stragglers in the
/// order VOL, VFD and file records first name them.
fn per_task(
    kind: GraphKind,
    b: &TraceBundle,
    mut write: impl FnMut(&mut Graph, usize, &[&VfdRecord], &[&VolRecord], &[&FileRecord]),
) -> Graph {
    let mut g = Graph::new(kind, b.meta.workflow.clone());
    let mut tasks = b.meta.task_order.clone();
    let named = (b.vol.iter().map(|r| &r.task))
        .chain(b.vfd.iter().map(|r| &r.task))
        .chain(b.files.iter().map(|r| &r.task));
    for t in named {
        if !tasks.contains(t) {
            tasks.push(t.clone());
        }
    }
    for t in &tasks {
        g.node_sym(NodeKind::Task, t.symbol());
    }
    for t in &tasks {
        let id = g.node_sym(NodeKind::Task, t.symbol());
        let vfd: Vec<&VfdRecord> = b.vfd.iter().filter(|r| &r.task == t).collect();
        let vol: Vec<&VolRecord> = b.vol.iter().filter(|r| &r.task == t).collect();
        let files: Vec<&FileRecord> = b.files.iter().filter(|r| &r.task == t).collect();
        write(&mut g, id, &vfd, &vol, &files);
    }
    g.normalize_times();
    g
}

fn oracle_ftg(b: &TraceBundle) -> Graph {
    let vfd_empty = b.vfd.is_empty();
    per_task(GraphKind::Ftg, b, |g, t, vfd, _, files| {
        for rec in vfd.iter().filter(|r| r.kind.moves_data()) {
            let f = g.node_sym(NodeKind::File, rec.file.symbol());
            g.touch_node(t, rec.start, rec.end, rec.len);
            g.touch_node(f, rec.start, rec.end, rec.len);
            match rec.kind {
                IoKind::Read => g.edge(f, t, Operation::ReadOnly, vfd_stats(rec)),
                _ => g.edge(t, f, Operation::WriteOnly, vfd_stats(rec)),
            }
        }
        if !vfd_empty {
            return;
        }
        for fr in files {
            let f = g.node_sym(NodeKind::File, fr.file.symbol());
            let (start, end) = fr
                .lifetimes
                .first()
                .map(|l| (l.start, l.end))
                .unwrap_or_default();
            g.touch_node(t, start, end, fr.stats.total_bytes());
            g.touch_node(f, start, end, fr.stats.total_bytes());
            let sides = [
                (fr.stats.read_ops, fr.stats.bytes_read, false),
                (fr.stats.write_ops, fr.stats.bytes_written, true),
            ];
            for (ops, bytes, write) in sides {
                if ops == 0 {
                    continue;
                }
                let stats = EdgeStats {
                    access_volume: bytes,
                    access_count: ops,
                    first: start,
                    last: end,
                    ..Default::default()
                };
                if write {
                    g.edge(t, f, Operation::WriteOnly, stats);
                } else {
                    g.edge(f, t, Operation::ReadOnly, stats);
                }
            }
        }
    })
}

fn dataset(file: Symbol, object: Symbol) -> Symbol {
    Symbol::intern(&dataset_label(file.as_str(), object.as_str()))
}

fn oracle_sdg(b: &TraceBundle, opts: &SdgOptions) -> Graph {
    let vfd_empty = b.vfd.is_empty();
    let mut extent: SymbolMap<Symbol, u64> = SymbolMap::default();
    for rec in b.vfd.iter().filter(|r| r.kind.moves_data()) {
        let e = extent.entry(rec.file.symbol()).or_default();
        *e = (*e).max(rec.offset + rec.len);
    }
    let page = b.meta.page_size.max(1);
    let region_of = |file: Symbol, offset: u64| {
        let regions = opts.region_count;
        let total_pages = extent[&file].max(1).div_ceil(page);
        let per_region = total_pages.div_ceil(regions.max(1)).max(1);
        let region = (offset / page / per_region).min(regions - 1);
        let hi = ((region + 1) * per_region).min(total_pages.max(1));
        (region * per_region, hi)
    };
    per_task(GraphKind::Sdg, b, |g, t, vfd, vol, _| {
        for rec in vfd.iter().filter(|r| r.kind.moves_data()) {
            let file = rec.file.symbol();
            let f = g.node_sym(NodeKind::File, file);
            let d = g.node_sym(NodeKind::Dataset, dataset(file, rec.object.symbol()));
            for n in [t, f, d] {
                g.touch_node(n, rec.start, rec.end, rec.len);
            }
            match rec.kind {
                IoKind::Read => g.edge(d, t, Operation::ReadOnly, vfd_stats(rec)),
                _ => g.edge(t, d, Operation::WriteOnly, vfd_stats(rec)),
            }
            if opts.include_regions {
                let (lo, hi) = region_of(file, rec.offset);
                let label = Symbol::intern(&region_label(file.as_str(), lo, hi));
                let r = g.node_sym(NodeKind::AddrRegion, label);
                g.touch_node(r, rec.start, rec.end, rec.len);
                g.edge(d, r, Operation::Structural, vfd_stats(rec));
                g.edge(r, f, Operation::Structural, EdgeStats::default());
            } else {
                g.edge(d, f, Operation::Structural, EdgeStats::default());
            }
        }
        for rec in vol.iter().filter(|r| !r.accesses.is_empty()) {
            let file = rec.file.symbol();
            let d = g.node_sym(NodeKind::Dataset, dataset(file, rec.object.symbol()));
            let f = g.node_sym(NodeKind::File, file);
            if vfd_empty {
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
    })
}

/// Id-exact equality: nodes and edges compared as vectors.
fn assert_identical(got: &Graph, want: &Graph, what: &str) {
    assert_eq!(got.kind, want.kind, "{what}: kind");
    assert_eq!(got.nodes, want.nodes, "{what}: nodes");
    assert_eq!(got.edges, want.edges, "{what}: edges");
}

#[test]
fn builders_equal_the_per_record_oracle() {
    let plain = SdgOptions::default();
    let regions = |region_count| SdgOptions {
        include_regions: true,
        region_count,
    };
    cases("builders_equal_the_per_record_oracle", 400, |rng| {
        let b = arb_bundle(rng);
        let ftg = oracle_ftg(&b);
        let sdg = oracle_sdg(&b, &plain);
        assert_identical(&build_ftg(&b), &ftg, "build_ftg");
        assert_identical(&build_sdg(&b, &plain), &sdg, "build_sdg");
        let a = Analysis::run(&b);
        assert_identical(&a.ftg, &ftg, "Analysis::run FTG");
        assert_identical(&a.sdg, &sdg, "Analysis::run SDG");
        for opts in [regions(1), regions(4)] {
            let sdg = oracle_sdg(&b, &opts);
            assert_identical(&build_sdg(&b, &opts), &sdg, &format!("build_sdg {opts:?}"));
            let a = Analysis::run_with(&b, &opts, &DetectorConfig::default());
            assert_identical(&a.ftg, &ftg, &format!("Analysis FTG {opts:?}"));
            assert_identical(&a.sdg, &sdg, &format!("Analysis SDG {opts:?}"));
        }
    });
}
