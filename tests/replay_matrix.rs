//! Replay matrix: every chaos/crash scenario of the paper's workloads, and
//! of a chunk sweep that bypasses the chunk cache, must bundle, replay, and
//! validate deterministically:
//!
//! * `record_to_bundle` under a manual clock freezes a run whose replay
//!   passes all three checks (op stream, outcomes, final images) with zero
//!   divergences — for clean, transient-chaos, and crash+journal+resume
//!   runs alike;
//! * the replayed trace is *byte-identical* to the bundled one (the manual
//!   clock removes wall time, the seeds remove everything else);
//! * the `.drb` container round-trips losslessly and verifies;
//! * two same-seed bundles diff empty, and a perturbed-seed pair produces
//!   a diff that names the first divergent task and its causal ancestors.

use dayu::prelude::*;
use dayu_core::hdf::Durability;
use dayu_core::vfd::CrashSchedule;
use dayu_core::workloads::{arldm, ddmd, pyflextrkr};

/// A workload instance small enough to record dozens of times.
fn workload(name: &str) -> (WorkflowSpec, MemFs) {
    let fs = MemFs::new();
    let spec = match name {
        "ddmd" => ddmd::workflow(&ddmd::DdmdConfig {
            sim_tasks: 2,
            iterations: 1,
            contact_map_dim: 8,
            point_cloud_points: 16,
            scalar_series_len: 8,
            compute_ns: 10,
            ..Default::default()
        }),
        "pyflextrkr" => {
            let cfg = pyflextrkr::PyflextrkrConfig {
                input_files: 2,
                input_bytes: 4 << 10,
                feature_bytes: 2 << 10,
                small_datasets: 4,
                small_dataset_bytes: 64,
                small_dataset_accesses: 2,
                compute_ns: 10,
            };
            pyflextrkr::prepare_inputs_untraced(&fs, &cfg).expect("inputs");
            pyflextrkr::workflow(&cfg)
        }
        "arldm" => arldm::workflow(&arldm::ArldmConfig {
            stories: 6,
            mean_image_bytes: 1024,
            mean_text_bytes: 64,
            chunk_elems: 4,
            batch: 2,
            compute_ns: 10,
            ..Default::default()
        }),
        "sweep" => sweep_workflow(),
        other => panic!("unknown workload {other}"),
    };
    (spec, fs)
}

const WORKLOADS: [&str; 4] = ["ddmd", "pyflextrkr", "arldm", "sweep"];

/// Sweep geometry: 64 chunks of 1 KiB against an 8-chunk cache, so both
/// the write and the read sweep overflow the cache and move their first
/// 56 chunks straight between the buffer and the driver.
const SWEEP_BYTES: u64 = 64 << 10;
const SWEEP_CHUNK: u64 = 1 << 10;
const SWEEP_CACHE: u64 = 8 << 10;

fn sweep_payload() -> Vec<u8> {
    (0..SWEEP_BYTES).map(|i| (i * 37 % 241) as u8).collect()
}

/// A producer writes a chunked dataset whole; a consumer reads it back
/// cold and checks every byte.
fn sweep_workflow() -> WorkflowSpec {
    WorkflowSpec::new("chunk-sweep")
        .stage(
            "produce",
            vec![TaskSpec::new("producer", |io: &TaskIo| {
                let f = io.create("sweep.h5")?;
                let mut ds = f.root().create_dataset(
                    "x",
                    DatasetBuilder::new(DataType::Int { width: 1 }, &[SWEEP_BYTES])
                        .chunks(&[SWEEP_CHUNK])
                        .cache_bytes(SWEEP_CACHE),
                )?;
                ds.write(&sweep_payload())?;
                ds.close()?;
                f.close()
            })],
        )
        .stage(
            "consume",
            vec![TaskSpec::new("consumer", |io: &TaskIo| {
                let f = io.open("sweep.h5")?;
                let mut ds = f.root().open_dataset("x")?;
                let back = ds.read()?;
                assert_eq!(back, sweep_payload(), "consumer read corrupt bytes");
                ds.close()?;
                f.close()
            })],
        )
}

/// The failure shapes the matrix sweeps. Each returns deterministic
/// [`RecordOptions`] (zero backoff, fixed seeds) on the real clock; the
/// matrix turns on `manual_clock` itself.
fn scenarios() -> Vec<(&'static str, RecordOptions)> {
    vec![
        ("clean", RecordOptions::default()),
        (
            "transient-chaos",
            RecordOptions::default()
                .with_chaos(FaultSchedule::new(5).with_transient_at(3))
                .with_retry(RetryPolicy::default().with_backoff(0, 0)),
        ),
        (
            "crash-journal-resume",
            RecordOptions::default()
                .with_crash(CrashSchedule::new(11).with_crash_at(6).torn())
                .with_durability(Durability::Journal)
                .with_resume(true)
                .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0)),
        ),
    ]
}

fn manual(opts: RecordOptions) -> RecordOptions {
    RecordOptions {
        manual_clock: true,
        ..opts
    }
}

/// Records one (workload, scenario) cell into a bundle under a manual
/// clock, stamping the scenario name into the provenance params.
fn bundle_of(name: &str, scenario: &str, opts: &RecordOptions) -> ReplayBundle {
    let (spec, fs) = workload(name);
    let (_, bundle) = record_to_bundle(
        &spec,
        &fs,
        &manual(opts.clone()),
        format!("scenario={scenario}"),
        "replay-matrix",
    )
    .unwrap_or_else(|e| panic!("{name}/{scenario}: record failed: {e}"));
    bundle
}

#[test]
fn every_scenario_bundles_and_replays_byte_identically() {
    for name in WORKLOADS {
        for (scenario, opts) in scenarios() {
            let bundle = bundle_of(name, scenario, &opts);
            assert!(bundle.manifest.options.manual_clock);
            assert_eq!(
                bundle.trace.meta.origin.as_ref().map(|o| o.params.as_str()),
                Some(format!("scenario={scenario}").as_str()),
                "{name}/{scenario}: provenance missing"
            );

            // The container round-trips losslessly and verifies.
            let bytes = bundle.to_bytes();
            ReplayBundle::verify_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{name}/{scenario}: verify failed: {e}"));
            let back = ReplayBundle::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{name}/{scenario}: parse failed: {e}"));
            assert_eq!(back.to_bytes(), bytes, "{name}/{scenario}: not a fixpoint");

            // The replay validates on every active check…
            let (spec, fs) = workload(name);
            let report = replay_bundle(&back, &spec, &fs)
                .unwrap_or_else(|e| panic!("{name}/{scenario}: replay failed: {e}"));
            assert!(
                report.validated(),
                "{name}/{scenario}: diff={:?} mismatches={:?}",
                report.diff,
                report.mismatches
            );

            // …and reproduces the recorded trace bit-for-bit.
            assert_eq!(
                report.run.bundle.to_binary_bytes(),
                bundle.trace.to_binary_bytes(),
                "{name}/{scenario}: replayed trace differs from recording"
            );
        }
    }
}

#[test]
fn same_seed_bundles_diff_empty() {
    for name in WORKLOADS {
        for (scenario, opts) in scenarios() {
            let a = bundle_of(name, scenario, &opts);
            let b = bundle_of(name, scenario, &opts);
            let diff = diff_traces(&a.trace, &b.trace);
            assert!(
                diff.is_empty(),
                "{name}/{scenario}: same-seed runs diverged: {:?}",
                diff.first
            );
            assert!(diff.finding().is_none());
        }
    }
}

#[test]
fn perturbed_seed_diff_names_the_divergent_task_and_its_ancestors() {
    for name in WORKLOADS {
        let clean = bundle_of(name, "clean", &RecordOptions::default());
        // Kill the device at the first payload op: every writing task is
        // salvaged, so its op stream is cut short relative to the clean run.
        let perturbed = bundle_of(
            name,
            "dead-at-0",
            &RecordOptions {
                retry: RetryPolicy::default().with_backoff(0, 0),
                chaos: Some(FaultSchedule::new(7).with_dead_at(0)),
                ..Default::default()
            },
        );
        let diff = diff_traces(&clean.trace, &perturbed.trace);
        assert!(!diff.is_empty(), "{name}: dead-at-0 run matched clean run");
        let first = diff
            .first
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: non-empty diff without a first divergence"));
        assert!(
            clean
                .trace
                .meta
                .task_order
                .iter()
                .any(|t| t.as_str() == first.task),
            "{name}: first divergence names unknown task {:?}",
            first.task
        );

        // The diff surfaces as a finding the advisor turns into an
        // investigation pointing at the same task and event.
        let finding = diff.finding().expect("non-empty diff yields a finding");
        let recs = advise(&[finding]);
        assert_eq!(recs.len(), 1);
        match &recs[0].action {
            Action::InvestigateDivergence { task, event_index } => {
                assert_eq!(task, &first.task);
                assert_eq!(*event_index, first.event_index);
            }
            other => panic!("{name}: expected InvestigateDivergence, got {other:?}"),
        }
    }
}

#[test]
fn truncated_and_tampered_bundles_are_rejected_structurally() {
    let bundle = bundle_of("ddmd", "clean", &RecordOptions::default());
    let bytes = bundle.to_bytes();
    // Chop the artifact at a handful of interesting boundaries.
    for cut in [0, 4, bytes.len() / 3, bytes.len() - 1] {
        assert!(ReplayBundle::verify_bytes(&bytes[..cut]).is_err());
        assert!(ReplayBundle::from_bytes(&bytes[..cut]).is_err());
    }
    // Flip one byte deep inside the trace section.
    let mut tampered = bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    assert!(ReplayBundle::verify_bytes(&tampered).is_err());
    assert!(ReplayBundle::from_bytes(&tampered).is_err());
}
