//! End-to-end lint checks: seeded defects are flagged, clean recorded
//! workloads pass with zero findings.

use dayu_lint::{
    analyze_bundle, analyze_sim_tasks, analyze_spec, analyze_stream, verified, AccessDecl, Finding,
    LintConfig,
};
use dayu_sim::program::{SimOp, SimTask};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::store::TraceBundle;
use dayu_trace::time::Timestamp;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use dayu_vfd::MemFs;
use dayu_workflow::{record, to_sim_tasks, transform, Schedule, TaskSpec, WorkflowSpec};
use dayu_workloads::{arldm, ddmd, pyflextrkr};
use std::collections::BTreeMap;

fn vfd_op(task: &str, file: &str, kind: IoKind, start: u64, end: u64) -> VfdRecord {
    VfdRecord {
        task: TaskKey::new(task),
        file: FileKey::new(file),
        kind,
        offset: 0,
        len: 1024,
        access: AccessType::RawData,
        object: ObjectKey::new("/d"),
        start: Timestamp(start),
        end: Timestamp(end),
    }
}

#[test]
fn planted_write_write_race_in_spec_is_flagged() {
    // Two tasks of the same stage (no barrier between them) both write the
    // same output file.
    let spec = WorkflowSpec::new("racy").stage(
        "fan-out",
        vec![
            TaskSpec::new("worker_a", |_| Ok(())),
            TaskSpec::new("worker_b", |_| Ok(())),
        ],
    );
    let mut decls = BTreeMap::new();
    for t in ["worker_a", "worker_b"] {
        decls.insert(
            t.to_owned(),
            AccessDecl {
                reads: vec![],
                writes: vec!["shared_out.h5".to_owned()],
            },
        );
    }
    let report = analyze_spec(&spec, &decls, &LintConfig::default());
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::WriteWriteRace { file, first, second }
                if file == "shared_out.h5" && first == "worker_a" && second == "worker_b"
        )),
        "{report}"
    );
}

#[test]
fn planted_read_before_write_in_trace_is_flagged() {
    // A recorded trace where the consumer's read observably started before
    // the producer's write.
    let mut bundle = TraceBundle::new("rbw");
    bundle
        .vfd
        .push(vfd_op("eager_reader", "data.h5", IoKind::Read, 0, 50));
    bundle
        .vfd
        .push(vfd_op("producer", "data.h5", IoKind::Write, 100, 200));
    let report = analyze_bundle(&bundle, &LintConfig::default());
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::ReadBeforeWrite { file, reader, .. }
                if file == "data.h5" && reader == "eager_reader"
        )),
        "{report}"
    );
}

#[test]
fn planted_overlapping_writes_in_trace_are_flagged() {
    let mut bundle = TraceBundle::new("ww");
    bundle
        .vfd
        .push(vfd_op("writer_a", "log.h5", IoKind::Write, 0, 100));
    bundle
        .vfd
        .push(vfd_op("writer_b", "log.h5", IoKind::Write, 50, 150));
    let report = analyze_bundle(&bundle, &LintConfig::default());
    assert!(
        report
            .findings
            .iter()
            .any(|f| matches!(f, Finding::WriteWriteRace { .. })),
        "{report}"
    );
}

#[test]
fn clean_ddmd_run_has_zero_findings() {
    let cfg = ddmd::DdmdConfig {
        sim_tasks: 2,
        iterations: 1,
        contact_map_dim: 8,
        point_cloud_points: 16,
        scalar_series_len: 8,
        compute_ns: 10,
        ..Default::default()
    };
    let fs = MemFs::new();
    let run = record(&ddmd::workflow(&cfg), &fs).unwrap();

    // Trace-level: what actually happened contains no hazard.
    let trace_report = analyze_bundle(&run.bundle, &LintConfig::default());
    assert!(trace_report.is_clean(), "{trace_report}");

    // Plan-level: the replay job's dependency structure orders every
    // producer before its consumers.
    let schedule = Schedule::round_robin(&run, 2);
    let tasks = to_sim_tasks(&run, &schedule);
    let plan_report = analyze_sim_tasks(&tasks, &LintConfig::default());
    assert!(plan_report.is_clean(), "{plan_report}");
}

#[test]
fn clean_pyflextrkr_run_has_zero_findings() {
    let cfg = pyflextrkr::PyflextrkrConfig {
        input_files: 2,
        input_bytes: 4 << 10,
        feature_bytes: 2 << 10,
        small_datasets: 4,
        small_dataset_bytes: 100,
        small_dataset_accesses: 2,
        compute_ns: 10,
    };
    let fs = MemFs::new();
    pyflextrkr::prepare_inputs_untraced(&fs, &cfg).unwrap();
    let run = record(&pyflextrkr::workflow(&cfg), &fs).unwrap();

    let trace_report = analyze_bundle(&run.bundle, &LintConfig::default());
    assert!(trace_report.is_clean(), "{trace_report}");

    let schedule = Schedule::round_robin(&run, 2);
    let tasks = to_sim_tasks(&run, &schedule);
    let plan_report = analyze_sim_tasks(&tasks, &LintConfig::default());
    assert!(plan_report.is_clean(), "{plan_report}");
}

#[test]
fn clean_arldm_run_has_zero_findings() {
    let cfg = arldm::ArldmConfig {
        stories: 8,
        mean_image_bytes: 512,
        mean_text_bytes: 64,
        compute_ns: 10,
        ..Default::default()
    };
    let fs = MemFs::new();
    let run = record(&arldm::workflow(&cfg), &fs).unwrap();

    let trace_report = analyze_bundle(&run.bundle, &LintConfig::default());
    assert!(trace_report.is_clean(), "{trace_report}");

    let schedule = Schedule::round_robin(&run, 2);
    let tasks = to_sim_tasks(&run, &schedule);
    let plan_report = analyze_sim_tasks(&tasks, &LintConfig::default());
    assert!(plan_report.is_clean(), "{plan_report}");
}

#[test]
fn streamed_check_report_is_byte_identical_to_the_bundles() {
    // The CI gate records once and lints the persisted `.dtb`; the
    // verdict must not depend on whether the trace is streamed.
    let cfg = ddmd::DdmdConfig {
        sim_tasks: 2,
        iterations: 1,
        contact_map_dim: 8,
        point_cloud_points: 16,
        scalar_series_len: 8,
        compute_ns: 10,
        ..Default::default()
    };
    let fs = MemFs::new();
    let run = record(&ddmd::workflow(&cfg), &fs).unwrap();
    let lint_cfg = LintConfig {
        report_dead_data: true, // widest finding surface
        ..LintConfig::default()
    };
    let want = analyze_bundle(&run.bundle, &lint_cfg).to_json();
    let (from_binary, n_binary) =
        analyze_stream(&run.bundle.to_binary_bytes()[..], &lint_cfg).unwrap();
    let records = run.bundle.vol.len() + run.bundle.vfd.len() + run.bundle.files.len();
    assert_eq!(n_binary, records as u64, "every record streamed");
    assert_eq!(from_binary.to_json(), want);
}

/// Deterministic extent generator for the planted-race tests (no RNG
/// dependency; a multiplicative congruence scrambles the task index).
fn chunk_extent(seed: u64, task: usize, chunk_bytes: u64) -> u64 {
    let scrambled = (seed ^ task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 64;
    scrambled * chunk_bytes
}

fn staged_write(task: &str, offset: u64, len: u64, object: &str) -> VfdRecord {
    VfdRecord {
        task: TaskKey::new(task),
        file: FileKey::new("grid.h5"),
        kind: IoKind::Write,
        offset,
        len,
        access: AccessType::RawData,
        object: ObjectKey::new(object),
        start: Timestamp(0),
        end: Timestamp(100),
    }
}

#[test]
fn planted_overlapping_chunk_writes_are_caught_and_disjoint_ones_are_not() {
    // One parallel stage of chunk writers, extents drawn from a seeded
    // scramble. Baseline: all extents distinct → clean. Then plant a race
    // by pointing task 3 at task 7's chunk: exactly that pair is flagged,
    // with dataset-level diagnostics.
    let seed = 0xDA1C;
    let chunk = 4096u64;
    let tasks: Vec<String> = (0..16).map(|i| format!("writer_{i:02}")).collect();
    let mut offsets: Vec<u64> = (0..16).map(|i| chunk_extent(seed, i, chunk)).collect();
    // The scramble may collide on its own; separate any duplicates first
    // so the baseline is genuinely disjoint.
    let mut seen = std::collections::BTreeSet::new();
    for o in &mut offsets {
        while !seen.insert(*o) {
            *o += 64 * chunk;
        }
    }

    let build = |offsets: &[u64]| {
        let mut b = TraceBundle::new("chunked");
        b.meta.stages = vec![tasks.iter().map(TaskKey::new).collect()];
        for (i, t) in tasks.iter().enumerate() {
            b.vfd
                .push(staged_write(t, offsets[i], chunk, &format!("/chunk/{i}")));
        }
        b
    };

    let clean = analyze_bundle(&build(&offsets), &LintConfig::default());
    assert!(clean.is_clean(), "disjoint concurrent writes: {clean}");

    let mut racy = offsets.clone();
    racy[3] = racy[7]; // the planted collision
    let report = analyze_bundle(&build(&racy), &LintConfig::default());
    assert_eq!(report.len(), 1, "exactly the planted pair races: {report}");
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::ExtentRace { file, datasets, first, second, write_write: true, .. }
                if file == "grid.h5"
                    && first == "writer_03"
                    && second == "writer_07"
                    && datasets == &vec!["/chunk/3".to_owned(), "/chunk/7".to_owned()]
        )),
        "{report}"
    );
}

#[test]
fn illegal_parallelize_on_recorded_plan_is_rejected() {
    // Build a producer→consumer plan and ask the verifier to authorize
    // breaking the ordering: it must refuse and restore the plan.
    let mut tasks = vec![
        SimTask::new("sim").with_program(vec![SimOp::write("traj.h5", 1 << 20)]),
        SimTask::new("train")
            .after(&[0])
            .with_program(vec![SimOp::read("traj.h5", 1 << 20)]),
    ];
    let before = tasks.clone();
    let err = verified(&mut tasks, "parallelize", |t| {
        transform::parallelize(t, "sim", "train")
    })
    .unwrap_err();
    assert_eq!(tasks, before, "rolled back");
    assert!(
        err.report.findings.iter().any(|f| matches!(
            f,
            Finding::OrderingLost { .. } | Finding::ReadBeforeWrite { .. }
        )),
        "{err}"
    );
}
