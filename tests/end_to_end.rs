//! Cross-crate integration: the full DaYu loop — record under the mapper,
//! analyze, advise, transform, replay — on each of the paper's workflows.

use dayu::prelude::*;
use dayu_core::workflow::{file_written_bytes, transform};
use dayu_core::workloads::{arldm, ddmd, pyflextrkr};

fn ddmd_cfg() -> ddmd::DdmdConfig {
    ddmd::DdmdConfig {
        sim_tasks: 4,
        iterations: 2,
        contact_map_dim: 32,
        point_cloud_points: 64,
        scalar_series_len: 32,
        compute_ns: 100_000,
        ..Default::default()
    }
}

#[test]
fn ddmd_full_loop_baseline_vs_optimized() {
    let fs = MemFs::new();
    let run = record(&ddmd::workflow(&ddmd_cfg()), &fs).unwrap();

    // Analysis surfaces the partial-access opportunity…
    let analysis = Analysis::run(&run.bundle);
    let unused: Vec<&Finding> = analysis.findings_of("unused-dataset").collect();
    assert!(
        unused
            .iter()
            .any(|f| matches!(f, Finding::UnusedDataset { dataset, .. } if dataset.contains("contact_map"))),
        "contact_map flagged"
    );
    // …and the advisor turns it into a PartialFileAccess recommendation.
    let recs = advise(&analysis.findings);
    assert!(recs
        .iter()
        .any(|r| r.guideline == Guideline::PartialFileAccess));

    // Replay baseline vs the optimized plan.
    let cluster = Cluster::gpu_cluster(2);
    let schedule = Schedule::round_robin(&run, 2);
    let baseline_tasks = to_sim_tasks(&run, &schedule);
    let baseline = Engine::new(&cluster, &Placement::new())
        .run(&baseline_tasks)
        .unwrap();

    let mut opt_bundle = run.bundle.clone();
    for i in 0..2 {
        transform::drop_object_ops(&mut opt_bundle, &format!("aggregate_i{i}"), "/contact_map");
    }
    let opt_run = dayu_core::workflow::RecordedRun {
        bundle: opt_bundle,
        stage_of: run.stage_of.clone(),
        compute_ns: run.compute_ns.clone(),
        stage_names: run.stage_names.clone(),
        outcomes: run.outcomes.clone(),
    };
    let mut opt_tasks = to_sim_tasks(&opt_run, &schedule);
    let mut placement = Placement::new();
    for i in 0..2 {
        for t in 0..4 {
            placement.place(
                ddmd::sim_file(i, t),
                FileLocation::NodeLocal(0, TierKind::NvmeSsd),
            );
        }
        transform::co_schedule(
            &mut opt_tasks,
            &format!("aggregate_i{i}"),
            &format!("inference_i{i}"),
        );
    }
    let optimized = Engine::new(&cluster, &placement).run(&opt_tasks).unwrap();
    assert!(
        optimized.makespan_ns < baseline.makespan_ns,
        "optimized {} should beat baseline {}",
        optimized.makespan_ns,
        baseline.makespan_ns
    );
}

#[test]
fn pyflextrkr_diagnosis_artifacts_round_trip() {
    let fs = MemFs::new();
    let cfg = pyflextrkr::PyflextrkrConfig {
        input_files: 3,
        input_bytes: 16 << 10,
        feature_bytes: 8 << 10,
        small_datasets: 12,
        small_dataset_bytes: 300,
        small_dataset_accesses: 2,
        compute_ns: 0,
    };
    pyflextrkr::prepare_inputs_untraced(&fs, &cfg).unwrap();
    let diagnosis = dayu_core::diagnose(&pyflextrkr::workflow(&cfg), &fs).unwrap();
    assert!(diagnosis
        .analysis
        .findings_of("small-scattered-datasets")
        .next()
        .is_some());

    let dir = std::env::temp_dir().join(format!("dayu-e2e-{}", std::process::id()));
    diagnosis.write_artifacts(&dir).unwrap();
    // The persisted trace re-analyzes to the same findings.
    let bytes = std::fs::read(dir.join("trace.dtb")).unwrap();
    let bundle = TraceBundle::load(&bytes[..]).unwrap();
    let again = Analysis::run(&bundle);
    assert_eq!(again.findings, diagnosis.analysis.findings);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn arldm_layout_recommendation_closes_the_loop() {
    // Contiguous run → advisor says "go chunked" → chunked run → advisor
    // no longer complains and write-op count drops.
    let cfg = |layout| arldm::ArldmConfig {
        stories: 16,
        mean_image_bytes: 2 << 10,
        mean_text_bytes: 128,
        layout,
        chunk_elems: 4,
        batch: 1,
        compute_ns: 0,
    };
    let fs = MemFs::new();
    let before = record(&arldm::workflow(&cfg(LayoutKind::Contiguous)), &fs).unwrap();
    let analysis = Analysis::run(&before.bundle);
    let recs = advise(&analysis.findings);
    let wants_chunked = recs
        .iter()
        .any(|r| matches!(&r.action, Action::ChangeLayout { to, .. } if to == "chunked"));
    assert!(wants_chunked, "advisor recommends chunking VL data");

    let fs = MemFs::new();
    let after = record(&arldm::workflow(&cfg(LayoutKind::Chunked)), &fs).unwrap();
    let analysis_after = Analysis::run(&after.bundle);
    assert_eq!(
        analysis_after
            .findings_of("contiguous-varlen-dataset")
            .count(),
        0,
        "finding resolved after applying the recommendation"
    );
    let writes = |b: &TraceBundle| {
        b.vfd
            .iter()
            .filter(|r| {
                r.kind == dayu_core::trace::vfd::IoKind::Write && r.task.as_str() == "arldm_saveh5"
            })
            .count()
    };
    assert!(
        writes(&before.bundle) > writes(&after.bundle),
        "write ops drop after the layout change"
    );
}

#[test]
fn stage_in_transform_composes_with_recorded_traces() {
    let fs = MemFs::new();
    let spec = WorkflowSpec::new("staging")
        .stage(
            "w",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("shared.h5")?;
                let mut ds = f.root().create_dataset(
                    "d",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[1 << 20]),
                )?;
                ds.write(&vec![1u8; 1 << 20])?;
                ds.close()?;
                f.close()
            })],
        )
        .stage(
            "r",
            vec![
                TaskSpec::new("reader_0", |io: &TaskIo| {
                    let f = io.open("shared.h5")?;
                    f.root().open_dataset("d")?.read()?;
                    f.close()
                }),
                TaskSpec::new("reader_1", |io: &TaskIo| {
                    let f = io.open("shared.h5")?;
                    f.root().open_dataset("d")?.read()?;
                    f.close()
                }),
            ],
        );
    let run = record(&spec, &fs).unwrap();
    let cluster = Cluster::gpu_cluster(2);
    let mut tasks = to_sim_tasks(&run, &Schedule::round_robin(&run, 2));
    let mut placement = Placement::new();
    let bytes = file_written_bytes(&run, "shared.h5");
    transform::stage_in(
        &mut tasks,
        &mut placement,
        "shared.h5",
        bytes,
        0,
        TierKind::Ram,
    );
    let report = Engine::new(&cluster, &placement).run(&tasks).unwrap();
    // The copy ran between the writer and the readers.
    let copy = report.task("stage_in:shared.h5").unwrap();
    let writer = report.task("writer").unwrap();
    let r0 = report.task("reader_0").unwrap();
    assert!(copy.start_ns >= writer.end_ns);
    assert!(r0.start_ns >= copy.end_ns);
}
