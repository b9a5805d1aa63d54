//! Property tests for the incremental [`PartialGraph`]: absorbing a trace's
//! per-task sections in *any* permutation, with *any* amount of duplication,
//! must yield graphs identical to the one-shot batch `analyzer::build` —
//! node for node, edge for edge, id for id — and the node and byte
//! counters it keeps as sections arrive must equal a full recount.

use dayu_analyzer::build::{build_ftg, build_sdg};
use dayu_analyzer::{Graph, PartialGraph, SdgOptions};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::rng::{cases, ChaosRng};
use dayu_trace::time::{Interval, Timestamp};
use dayu_trace::vfd::{AccessType, FileRecord, IoKind, VfdRecord};
use dayu_trace::vol::{ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord};
use dayu_trace::{sha256, HeaderMemo, TraceBundle, TraceMeta, TraceOrigin};
use std::collections::HashSet;

const TASKS: [&str; 4] = ["prep", "sim", "reduce", "plot"];
const FILES: [&str; 3] = ["a.h5", "b.h5", "c.h5"];

fn arb_vfd(rng: &mut ChaosRng) -> VfdRecord {
    let t = rng.range(0, 1 << 30);
    VfdRecord {
        task: TaskKey::new(TASKS[rng.range(0, TASKS.len() as u64) as usize]),
        file: FileKey::new(FILES[rng.range(0, FILES.len() as u64) as usize]),
        kind: if rng.chance(0.5) {
            IoKind::Write
        } else {
            IoKind::Read
        },
        offset: rng.range(0, 1 << 24),
        len: rng.range(1, 1 << 16),
        access: if rng.chance(0.5) {
            AccessType::Metadata
        } else {
            AccessType::RawData
        },
        object: ObjectKey::new("/d"),
        start: Timestamp(t),
        end: Timestamp(t + 10),
    }
}

fn arb_vol(rng: &mut ChaosRng) -> VolRecord {
    let object: String = (0..rng.range(1, 9))
        .map(|_| char::from(b'a' + rng.range(0, 26) as u8))
        .collect();
    VolRecord {
        task: TaskKey::new(TASKS[rng.range(0, TASKS.len() as u64) as usize]),
        file: FileKey::new(FILES[rng.range(0, FILES.len() as u64) as usize]),
        object: ObjectKey::new(format!("/{object}")),
        kind: ObjectKind::Dataset,
        lifetimes: vec![Interval::new(Timestamp(1), Timestamp(50))],
        description: ObjectDescription::default(),
        accesses: vec![VolAccess {
            kind: VolAccessKind::Write,
            count: 1,
            bytes: rng.range(0, 1 << 20),
            sel_offset: vec![],
            sel_count: vec![],
            at: Timestamp(5),
        }],
    }
}

fn arb_file(rng: &mut ChaosRng) -> FileRecord {
    FileRecord {
        task: TaskKey::new(TASKS[rng.range(0, TASKS.len() as u64) as usize]),
        file: FileKey::new(FILES[rng.range(0, FILES.len() as u64) as usize]),
        lifetimes: vec![Interval::new(Timestamp(0), Timestamp(99))],
        stats: Default::default(),
    }
}

/// Task-order-complete bundles: every task that may carry records is pushed
/// into `task_order`, which is the shape the streaming collector produces
/// and the condition under which incremental == batch holds exactly.
fn arb_bundle(rng: &mut ChaosRng) -> TraceBundle {
    let mut b = TraceBundle::new("prop-partial");
    for t in TASKS {
        b.push_task(TaskKey::new(t));
    }
    b.vfd = (0..rng.range(0, 24)).map(|_| arb_vfd(rng)).collect();
    b.vol = (0..rng.range(0, 10)).map(|_| arb_vol(rng)).collect();
    b.files = (0..rng.range(0, 6)).map(|_| arb_file(rng)).collect();
    b
}

fn assert_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.kind, b.kind);
    assert_eq!(a.workflow, b.workflow);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.edges, b.edges);
}

/// Retained bytes by walking every record, as the ingest service once did
/// on every accepted section.
fn walked_bytes(b: &TraceBundle) -> usize {
    let mut bytes = b.vfd.len() * std::mem::size_of::<VfdRecord>();
    bytes += b.files.len() * std::mem::size_of::<FileRecord>();
    bytes += b.vol.len() * std::mem::size_of::<VolRecord>();
    for r in &b.files {
        bytes += r.lifetimes.len() * 16;
    }
    for r in &b.vol {
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

/// The counters kept as sections arrive equal a full recount.
fn assert_counters(pg: &mut PartialGraph) {
    assert_eq!(pg.ftg_node_count(), pg.snapshot_ftg().nodes.len());
    assert_eq!(pg.retained_bytes(), walked_bytes(&pg.to_bundle()));
}

fn region_opts() -> SdgOptions {
    SdgOptions {
        include_regions: true,
        region_count: 4,
    }
}

/// Any permutation of the per-task sections reproduces the batch build.
#[test]
fn any_absorb_order_matches_batch() {
    cases("any_absorb_order_matches_batch", 48, |rng| {
        let b = arb_bundle(rng);
        let mut sections = b.split_per_task();
        // Fisher–Yates driven by the case's stream.
        for i in (1..sections.len()).rev() {
            sections.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
        let mut pg = PartialGraph::new();
        for sec in &sections {
            pg.absorb(sec);
            assert_counters(&mut pg);
        }
        assert_identical(&pg.snapshot_ftg(), &build_ftg(&b));
        for opts in [SdgOptions::default(), region_opts()] {
            assert_identical(&pg.snapshot_sdg(&opts), &build_sdg(&b, &opts));
        }
    });
}

/// Duplicated sections are dropped by digest and change nothing; taking
/// interim snapshots along the way never perturbs the final result.
#[test]
fn duplication_and_interim_snapshots_are_harmless() {
    cases(
        "duplication_and_interim_snapshots_are_harmless",
        48,
        |rng| {
            let b = arb_bundle(rng);
            let dup: Vec<usize> = (0..rng.range(0, 6))
                .map(|_| rng.range(0, 16) as usize)
                .collect();
            let sections = b.split_per_task();
            let mut pg = PartialGraph::new();
            let mut seen = HashSet::new();
            for (i, sec) in sections.iter().enumerate() {
                let digest = sha256(&sec.to_binary_bytes());
                // Tasks without records split into identical meta-only
                // sections, so only the first of those is new.
                assert_eq!(pg.absorb_unique(digest, sec), seen.insert(digest));
                assert_counters(&mut pg);
                if dup.contains(&i) {
                    assert!(!pg.absorb_unique(digest, sec));
                    assert_counters(&mut pg);
                    let _ = pg.snapshot_sdg(&region_opts());
                }
            }
            assert_identical(&pg.snapshot_ftg(), &build_ftg(&b));
            assert_identical(
                &pg.snapshot_sdg(&region_opts()),
                &build_sdg(&b, &region_opts()),
            );
        },
    );
}

/// 0–4 of the tasks, in any order, repeats allowed.
fn arb_tasks(rng: &mut ChaosRng) -> Vec<TaskKey> {
    (0..rng.range(0, 5))
        .map(|_| TaskKey::new(TASKS[rng.range(0, TASKS.len() as u64) as usize]))
        .collect()
}

/// The meta of section `i`: an order that may overlap the others, repeat
/// a task, name a task no other section names or be empty; unsorted sets
/// with repeats; stages and origin present or not.
fn arb_meta(rng: &mut ChaosRng, i: usize) -> TraceMeta {
    let mut task_order = arb_tasks(rng);
    if rng.chance(0.3) {
        task_order.push(TaskKey::new(format!("only_{i}")));
    }
    if !task_order.is_empty() && rng.chance(0.3) {
        let again = task_order[rng.range(0, task_order.len() as u64) as usize].clone();
        task_order.push(again);
    }
    TraceMeta {
        workflow: format!("wf{}", rng.range(0, 3)),
        task_order,
        page_size: rng.range(0, 1 << 16),
        degraded_tasks: arb_tasks(rng),
        recovered_tasks: arb_tasks(rng),
        stages: if rng.chance(0.5) {
            (0..rng.range(1, 4)).map(|_| arb_tasks(rng)).collect()
        } else {
            Vec::new()
        },
        origin: rng.chance(0.5).then(|| TraceOrigin {
            workload: format!("w{}", rng.range(0, 3)),
            params: "default".into(),
            tool_version: "0.1.0".into(),
        }),
    }
}

/// The merge rule every join of trace sections keeps: the first meta's
/// workflow, page size and task order (repeats included) stand; each
/// later order appends the tasks it names that are not yet present, in
/// order; degraded and recovered sets are the sorted union of every
/// meta's, without repeats; stages and origin take the first non-empty
/// value.
fn expected_meta(metas: &[TraceMeta]) -> TraceMeta {
    let (first, later) = metas.split_first().expect("at least one meta");
    let mut out = first.clone();
    for m in later {
        for t in &m.task_order {
            if !out.task_order.contains(t) {
                out.task_order.push(t.clone());
            }
        }
        if out.stages.is_empty() {
            out.stages = m.stages.clone();
        }
        if out.origin.is_none() {
            out.origin = m.origin.clone();
        }
    }
    let union = |set: fn(&TraceMeta) -> &Vec<TaskKey>| {
        let mut all: Vec<TaskKey> = metas.iter().flat_map(set).cloned().collect();
        all.sort();
        all.dedup();
        all
    };
    out.degraded_tasks = union(|m| &m.degraded_tasks);
    out.recovered_tasks = union(|m| &m.recovered_tasks);
    out
}

/// Absorbed sections merge their metas by the rule concatenated reads and
/// `TraceBundle::merge` keep.
#[test]
fn absorbed_sections_merge_meta_by_one_rule() {
    cases("absorbed_sections_merge_meta_by_one_rule", 256, |rng| {
        let metas: Vec<TraceMeta> = (0..rng.range(1, 5) as usize)
            .map(|i| arb_meta(rng, i))
            .collect();
        let mut pg = PartialGraph::new();
        for meta in &metas {
            let mut section = arb_bundle(rng);
            section.meta = meta.clone();
            pg.absorb(&section);
        }
        assert_eq!(pg.to_bundle().meta, expected_meta(&metas));
    });
}

/// Cuts `s` in two sections that carry its meta, each record vector at a
/// drawn point, so the task's records arrive in two sections.
fn cut(rng: &mut ChaosRng, s: &TraceBundle) -> [TraceBundle; 2] {
    fn split<T: Clone>(rng: &mut ChaosRng, v: &[T]) -> (Vec<T>, Vec<T>) {
        let (a, b) = v.split_at(rng.range(0, v.len() as u64 + 1) as usize);
        (a.to_vec(), b.to_vec())
    }
    let (vfd, vfd_rest) = split(rng, &s.vfd);
    let (vol, vol_rest) = split(rng, &s.vol);
    let (files, files_rest) = split(rng, &s.files);
    [
        TraceBundle {
            meta: s.meta.clone(),
            vfd,
            vol,
            files,
        },
        TraceBundle {
            meta: s.meta.clone(),
            vfd: vfd_rest,
            vol: vol_rest,
            files: files_rest,
        },
    ]
}

/// A section whose VFD, VOL and file records each run t1, t2, t1 (two
/// distinct tasks), under `meta` with an order of t1, t2 and a task no
/// record names.
fn interleaved(rng: &mut ChaosRng, meta: &TraceMeta) -> TraceBundle {
    let i = rng.range(0, TASKS.len() as u64) as usize;
    let j = (i + 1 + rng.range(0, TASKS.len() as u64 - 1) as usize) % TASKS.len();
    let (t1, t2) = (TaskKey::new(TASKS[i]), TaskKey::new(TASKS[j]));
    let mut s = TraceBundle {
        meta: TraceMeta {
            task_order: vec![t1.clone(), t2.clone(), TaskKey::new("late")],
            ..meta.clone()
        },
        ..Default::default()
    };
    for t in [&t1, &t2, &t1] {
        for _ in 0..rng.range(1, 4) {
            s.vfd.push(VfdRecord {
                task: t.clone(),
                ..arb_vfd(rng)
            });
            s.vol.push(VolRecord {
                task: t.clone(),
                ..arb_vol(rng)
            });
            s.files.push(FileRecord {
                task: t.clone(),
                ..arb_file(rng)
            });
        }
    }
    s
}

/// The snapshots (regions on and off), `to_bundle()` and counters of two
/// partial graphs are the same.
fn assert_same(a: &mut PartialGraph, b: &mut PartialGraph) {
    assert_identical(&a.snapshot_ftg(), &b.snapshot_ftg());
    for opts in [SdgOptions::default(), region_opts()] {
        assert_identical(&a.snapshot_sdg(&opts), &b.snapshot_sdg(&opts));
    }
    assert_eq!(a.to_bundle(), b.to_bundle());
    assert_eq!(a.records(), b.records());
    assert_eq!(a.retained_bytes(), b.retained_bytes());
    assert_eq!(a.ftg_node_count(), b.ftg_node_count());
}

/// Absorbing each section by value, as the ingest service does (decoded
/// through one [`HeaderMemo`] for the stream, its meta shared with the
/// memo), leaves the partial graph that absorbing it by reference leaves,
/// after every section, and both equal the batch build of the distinct
/// sections in arrival order. The arrivals are a bundle's per-task
/// sections, some cut in two so that a task's records arrive in two
/// sections, plus one section whose records interleave two tasks, in any
/// permutation with duplicates.
#[test]
fn absorbing_by_value_equals_absorbing_by_reference() {
    cases(
        "absorbing_by_value_equals_absorbing_by_reference",
        64,
        |rng| {
            let b = arb_bundle(rng);
            let mut arrivals = Vec::new();
            for s in b.split_per_task() {
                if rng.chance(0.5) {
                    arrivals.extend(cut(rng, &s));
                } else {
                    arrivals.push(s);
                }
            }
            arrivals.push(interleaved(rng, &b.meta));
            for _ in 0..rng.range(0, 4) {
                let again = arrivals[rng.range(0, arrivals.len() as u64) as usize].clone();
                arrivals.push(again);
            }
            for i in (1..arrivals.len()).rev() {
                arrivals.swap(i, rng.range(0, i as u64 + 1) as usize);
            }

            let (mut by_ref, mut by_value) = (PartialGraph::new(), PartialGraph::new());
            let mut memo = HeaderMemo::default();
            let mut seen = HashSet::new();
            let mut distinct = Vec::new();
            for s in &arrivals {
                let bytes = s.to_binary_bytes();
                let digest = sha256(&bytes);
                if seen.insert(digest) {
                    distinct.extend_from_slice(&bytes);
                }
                let new = by_ref.absorb_unique(digest, s);
                let shared = memo.decode_section(&bytes).unwrap();
                let size = PartialGraph::section_bytes(&shared.records);
                assert_eq!(by_value.absorb_unique_shared(digest, shared, size), new);
                assert_eq!(by_value.records(), by_ref.records());
                assert_eq!(by_value.retained_bytes(), by_ref.retained_bytes());
                assert_eq!(by_value.ftg_node_count(), by_ref.ftg_node_count());
                if rng.chance(0.3) {
                    assert_same(&mut by_value, &mut by_ref);
                }
            }
            assert_same(&mut by_value, &mut by_ref);
            assert_counters(&mut by_value);

            let batch = TraceBundle::load(&distinct[..]).unwrap();
            let records = batch.vfd.len() + batch.vol.len() + batch.files.len();
            assert_eq!(by_value.records(), records);
            assert_identical(&by_value.snapshot_ftg(), &build_ftg(&batch));
            for opts in [SdgOptions::default(), region_opts()] {
                assert_identical(&by_value.snapshot_sdg(&opts), &build_sdg(&batch, &opts));
            }
        },
    );
}
