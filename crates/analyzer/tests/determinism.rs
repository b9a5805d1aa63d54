//! Incremental graph snapshots must be *identical* to the batch build:
//! [`PartialGraph`] builds one partial graph per task and folds the
//! partials in task order, so the fold cannot leak into node ids, edge
//! order, or statistics.

use dayu_analyzer::{build_ftg, build_sdg, PartialGraph, SdgOptions};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::time::Timestamp;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use dayu_trace::TraceBundle;

/// A deliberately messy synthetic workload: many tasks, shared files,
/// interleaved reads/writes, metadata ops, a straggler task missing from
/// `task_order`, and a degraded task.
fn synthetic_bundle(tasks: u64, ops_per_task: u64) -> TraceBundle {
    let mut b = TraceBundle::new("determinism");
    for t in 0..tasks {
        b.push_task(TaskKey::new(format!("task_{t}")));
    }
    b.mark_degraded(TaskKey::new("task_0"));
    let mut clock = 0u64;
    for t in 0..tasks {
        let task = TaskKey::new(format!("task_{t}"));
        for op in 0..ops_per_task {
            clock += 7;
            // Files are shared across neighbouring tasks so partials
            // genuinely overlap at merge time.
            let file = FileKey::new(format!("file_{}.h5", (t + op) % 5));
            let object = ObjectKey::new(format!("/group/ds_{}", op % 3));
            b.vfd.push(VfdRecord {
                task: task.clone(),
                file,
                kind: if op % 3 == 0 {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                offset: (op % 16) * 4096,
                len: 512 + op,
                access: if op % 5 == 0 {
                    AccessType::Metadata
                } else {
                    AccessType::RawData
                },
                object,
                start: Timestamp(clock),
                end: Timestamp(clock + 3),
            });
        }
    }
    // Straggler task referenced only by records.
    b.vfd.push(VfdRecord {
        task: TaskKey::new("straggler"),
        file: FileKey::new("file_0.h5"),
        kind: IoKind::Read,
        offset: 0,
        len: 64,
        access: AccessType::RawData,
        object: ObjectKey::new("/group/ds_0"),
        start: Timestamp(clock + 10),
        end: Timestamp(clock + 12),
    });
    b
}

/// The bundle's per-task sections absorbed in order, one partial graph
/// state ready to snapshot.
fn absorbed(bundle: &TraceBundle) -> PartialGraph {
    let mut pg = PartialGraph::new();
    for s in bundle.split_per_task() {
        pg.absorb(&s);
    }
    pg
}

#[test]
fn snapshots_are_identical_to_batch_build() {
    let bundle = synthetic_bundle(8, 1100);
    let opts = SdgOptions {
        include_regions: true,
        region_count: 4,
    };
    let pg = absorbed(&bundle);
    assert!(pg.snapshot_ftg() == build_ftg(&bundle), "FTG diverged");
    assert!(
        pg.snapshot_sdg(&opts) == build_sdg(&bundle, &opts),
        "SDG diverged"
    );
}

#[test]
fn repeated_snapshots_are_stable() {
    // Repetition: cached partials must not show either.
    let bundle = synthetic_bundle(4, 25);
    let first = build_ftg(&bundle);
    let pg = absorbed(&bundle);
    for _ in 0..5 {
        assert!(pg.snapshot_ftg() == first);
    }
}
