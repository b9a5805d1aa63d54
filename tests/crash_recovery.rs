//! Crash matrix: sweep seeded torn-write crash points over resume-aware
//! workloads under journaled durability, and hold the crash-consistency
//! contract at *every* point:
//!
//! * the run completes — the retry either resumes from the recovered
//!   image or restarts the file from scratch, but never fails;
//! * every committed dataset round-trips bit-for-bit after the run;
//! * every surviving file image is fsck-clean;
//! * a resumed-from-recovery task carries the `Recovered` marker in its
//!   outcome and in the trace bundle, and the marker survives `.dtb`;
//! * each workload shape exercises actual journal recovery at least once
//!   across its sweep (the matrix is not vacuously green).

use dayu::prelude::*;
use dayu_core::hdf::Durability;
use dayu_core::trace::TaskKey;
use dayu_core::vfd::CrashSchedule;

/// One workload shape of the matrix: a spec factory plus a verifier that
/// re-reads every committed dataset from the final images.
struct Shape {
    name: &'static str,
    seed: u64,
    spec: fn() -> WorkflowSpec,
    verify: fn(&MemFs),
}

/// Opens `file` read-only (write-through: verification must not touch
/// the image) and asserts dataset `ds` holds `want`.
fn assert_ds(fs: &MemFs, file: &str, ds: &str, want: &[u64]) {
    let vfd = fs
        .open_existing(file)
        .unwrap_or_else(|| panic!("{file} missing"));
    let f =
        H5File::open(vfd, file, FileOptions::default()).unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut d = f
        .root()
        .open_dataset(ds)
        .unwrap_or_else(|e| panic!("{file}/{ds}: {e}"));
    assert_eq!(d.read_u64s().unwrap(), want, "{file}/{ds}");
    d.close().unwrap();
    f.close().unwrap();
}

/// Shape 1 — one task, one file, two commit epochs. The crash window
/// covers bootstrap, the first epoch, the inter-commit gap, and close.
fn single_file() -> WorkflowSpec {
    WorkflowSpec::new("single").stage(
        "s",
        vec![TaskSpec::new("writer", |io: &TaskIo| {
            let f = io.create("c.h5")?;
            let mut a = f
                .root()
                .ensure_dataset("a", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            a.write_u64s(&[7; 32])?;
            a.close()?;
            f.flush()?; // "a" is durable from here on
            let mut b = f
                .root()
                .ensure_dataset("b", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            b.write_u64s(&[9; 32])?;
            b.close()?;
            f.close()
        })],
    )
}

fn verify_single(fs: &MemFs) {
    assert_ds(fs, "c.h5", "a", &[7; 32]);
    assert_ds(fs, "c.h5", "b", &[9; 32]);
}

/// Shape 2 — a two-stage pipeline. Each task has its own crash
/// controller, so the seeded point strikes the producer *and* the
/// consumer; the consumer must still observe the producer's committed
/// output through its own recovery.
fn pipeline() -> WorkflowSpec {
    WorkflowSpec::new("pipeline")
        .stage(
            "produce",
            vec![TaskSpec::new("producer", |io: &TaskIo| {
                let f = io.create("in.h5")?;
                let mut x = f
                    .root()
                    .ensure_dataset("x", DatasetBuilder::new(DataType::Int { width: 8 }, &[16]))?;
                x.write_u64s(&[3; 16])?;
                x.close()?;
                f.flush()?;
                let mut y = f
                    .root()
                    .ensure_dataset("y", DatasetBuilder::new(DataType::Int { width: 8 }, &[16]))?;
                y.write_u64s(&[5; 16])?;
                y.close()?;
                f.close()
            })],
        )
        .stage(
            "consume",
            vec![TaskSpec::new("consumer", |io: &TaskIo| {
                let src = io.open("in.h5")?;
                let mut x = src.root().open_dataset("x")?;
                let xs = x.read_u64s()?;
                x.close()?;
                src.close()?;
                let f = io.create("out.h5")?;
                let mut s = f
                    .root()
                    .ensure_dataset("sum", DatasetBuilder::new(DataType::Int { width: 8 }, &[1]))?;
                s.write_u64s(&[xs.iter().sum()])?;
                s.close()?;
                f.flush()?;
                let mut c = f.root().ensure_dataset(
                    "copy",
                    DatasetBuilder::new(DataType::Int { width: 8 }, &[16]),
                )?;
                c.write_u64s(&xs)?;
                c.close()?;
                f.close()
            })],
        )
}

fn verify_pipeline(fs: &MemFs) {
    assert_ds(fs, "in.h5", "x", &[3; 16]);
    assert_ds(fs, "in.h5", "y", &[5; 16]);
    assert_ds(fs, "out.h5", "sum", &[48]);
    assert_ds(fs, "out.h5", "copy", &[3; 16]);
}

/// Shape 3 — one task fanning out to two files. The crash controller's
/// write counter spans both files, so the point can land in either
/// image; recovery of one must not disturb the other.
fn fanout() -> WorkflowSpec {
    WorkflowSpec::new("fanout").stage(
        "s",
        vec![TaskSpec::new("fanout", |io: &TaskIo| {
            for (i, name) in ["f0.h5", "f1.h5"].iter().enumerate() {
                let f = io.create(name)?;
                let mut d = f
                    .root()
                    .ensure_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[24]))?;
                d.write_u64s(&[i as u64 + 1; 24])?;
                d.close()?;
                f.flush()?;
                let mut t = f.root().ensure_dataset(
                    "tail",
                    DatasetBuilder::new(DataType::Int { width: 8 }, &[8]),
                )?;
                t.write_u64s(&[10 + i as u64; 8])?;
                t.close()?;
                f.close()?;
            }
            Ok(())
        })],
    )
}

fn verify_fanout(fs: &MemFs) {
    assert_ds(fs, "f0.h5", "d", &[1; 24]);
    assert_ds(fs, "f0.h5", "tail", &[10; 8]);
    assert_ds(fs, "f1.h5", "d", &[2; 24]);
    assert_ds(fs, "f1.h5", "tail", &[11; 8]);
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "single-file",
        seed: 11,
        spec: single_file,
        verify: verify_single,
    },
    Shape {
        name: "pipeline",
        seed: 23,
        spec: pipeline,
        verify: verify_pipeline,
    },
    Shape {
        name: "fanout",
        seed: 37,
        spec: fanout,
        verify: verify_fanout,
    },
];

/// Crash points per shape. Wide enough to cover bootstrap, journal
/// append, commit apply, and (for late points) "never reached".
const CRASH_POINTS: std::ops::Range<u64> = 1..32;

#[test]
fn crash_matrix_recovers_committed_data_at_every_point() {
    for shape in &SHAPES {
        let mut recovered_points = 0usize;
        for crash_at in CRASH_POINTS {
            let ctx = |msg: &str| format!("{} crash@{crash_at}: {msg}", shape.name);
            let spec = (shape.spec)();
            let fs = MemFs::new();
            let opts = RecordOptions::default()
                .with_crash(
                    CrashSchedule::new(shape.seed)
                        .with_crash_at(crash_at)
                        .torn(),
                )
                .with_durability(Durability::Journal)
                .with_resume(true)
                .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0));
            let run = record_opts(&spec, &fs, &opts).unwrap();

            // Every task completed; nothing was salvaged as degraded.
            assert!(!run.degraded(), "{}", ctx("degraded run"));
            for o in &run.outcomes {
                assert!(
                    o.succeeded(),
                    "{}",
                    ctx(&format!("{}: {:?}", o.task, o.error))
                );
            }

            // Committed datasets round-trip from the final images.
            (shape.verify)(&fs);

            // Every surviving image is fsck-clean after the run.
            for name in fs.list() {
                let bytes = fs.snapshot(&name).unwrap();
                assert!(
                    fsck_bytes(&bytes).is_clean(),
                    "{}",
                    ctx(&format!("{name} not fsck-clean"))
                );
            }

            // Recovery markers are consistent across outcome, run and
            // bundle, and survive a `.dtb` round trip.
            let recovered: Vec<&str> = run
                .outcomes
                .iter()
                .filter(|o| o.recovered())
                .map(|o| o.task.as_str())
                .collect();
            if !recovered.is_empty() {
                recovered_points += 1;
                assert!(run.recovered(), "{}", ctx("run.recovered() false"));
                for task in &recovered {
                    assert!(
                        run.bundle.is_recovered(&TaskKey::new(*task)),
                        "{}",
                        ctx(&format!("{task} missing bundle marker"))
                    );
                }
                let back = TraceBundle::load(&run.bundle.to_binary_bytes()[..]).unwrap();
                assert_eq!(
                    back.meta.recovered_tasks,
                    run.bundle.meta.recovered_tasks,
                    "{}",
                    ctx("markers lost in .dtb")
                );
            } else {
                assert!(!run.recovered(), "{}", ctx("phantom recovery marker"));
            }
        }
        assert!(
            recovered_points > 0,
            "{}: no crash point exercised journal recovery",
            shape.name
        );
    }
}

/// The recovered marker feeds the analyzer/advisor chain end to end:
/// detector surfaces it as a `recovered-task` finding and the advisor
/// asks for an output audit — without flagging the trace as degraded.
#[test]
fn recovered_run_flows_through_analyzer_and_advisor() {
    // Find a crash point that actually recovers (shape 1's sweep proves
    // one exists), then analyze that run.
    for crash_at in CRASH_POINTS {
        let spec = single_file();
        let fs = MemFs::new();
        let opts = RecordOptions::default()
            .with_crash(CrashSchedule::new(11).with_crash_at(crash_at).torn())
            .with_durability(Durability::Journal)
            .with_resume(true)
            .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0));
        let run = record_opts(&spec, &fs, &opts).unwrap();
        if !run.recovered() {
            continue;
        }
        let analysis = Analysis::run(&run.bundle);
        let findings: Vec<&Finding> = analysis
            .findings
            .iter()
            .filter(|f| matches!(f, Finding::RecoveredTask { .. }))
            .collect();
        assert_eq!(findings.len(), 1, "one recovered task, one finding");
        assert!(
            matches!(findings[0], Finding::RecoveredTask { task } if task == "writer"),
            "{:?}",
            findings[0]
        );
        assert!(
            !analysis
                .findings
                .iter()
                .any(|f| matches!(f, Finding::DegradedTrace { .. })),
            "a recovered run is not a degraded trace"
        );
        let recs = advise(&analysis.findings);
        assert!(
            recs.iter().any(|r| matches!(
                &r.action,
                Action::AuditRecoveredOutputs { task } if task == "writer"
            )),
            "advisor must ask for an output audit"
        );
        return;
    }
    panic!("no crash point in the sweep exercised recovery");
}
