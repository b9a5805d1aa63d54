//! The replay engine: re-executes a bundled workload and checks it
//! against the recording.
//!
//! [`replay_bundle`] rebuilds the recorded run's starting filesystem from
//! the bundle's initial images and runs the workload again through
//! [`record_opts`] under the manifest's [`RecordOptions`] (same
//! chaos/crash/retry/durability seeds, same clock mode, same mapper
//! sampling). Three independent checks gate the verdict:
//!
//! 1. **Op streams** — [`diff_traces`] of the recording (run A) against
//!    the replayed trace (run B) must be empty: every task's VFD records
//!    agree on file, kind, extent, access type and object, timestamps
//!    aside. A trace keeps only each task's final attempt, so this checks
//!    the attempt the recording ended on;
//! 2. **Outcomes** — attempts, success/degradation, fault counts and
//!    recovered files must match the bundled
//!    [`TaskOutcome`](crate::TaskOutcome)s, which is how fault/crash
//!    firings, retries beyond the recorded count and recovery behaviour
//!    are validated;
//! 3. **Images** — the final filesystem must be byte-identical to the
//!    bundled final images.
//!
//! The replay always runs to its end: the diff names the first divergent
//! task in the recording's task order, whichever parallel task reached its
//! divergence first. A sampled recording (`skip_ops` above 0, or
//! `trace_io` off) replays under the same sampling, so its streams compare
//! like a full recording's.

use crate::bundle::{BundleError, BundleManifest, ReplayBundle};
use crate::runner::{record_opts, RecordOptions, RecordedRun};
use crate::spec::WorkflowSpec;
use dayu_analyzer::{diff_traces, BundleDiff};
use dayu_trace::store::TraceOrigin;
use dayu_vfd::MemFs;
use std::collections::BTreeMap;

/// The verdict of one replay.
#[derive(Debug)]
pub struct ReplayReport {
    /// The re-executed run (trace, outcomes, stage layout).
    pub run: RecordedRun,
    /// The recording (run A) diffed against the replayed trace (run B).
    pub diff: BundleDiff,
    /// Outcome- and image-level mismatches, human-readable.
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// Whether the replay matched the recording on every check.
    pub fn validated(&self) -> bool {
        self.diff.is_empty() && self.mismatches.is_empty()
    }
}

/// Re-executes the bundled workload over `fs` (which is cleared to the
/// bundle's initial images first) and checks it against the recording.
/// `spec` must be the workload the bundle names — the bundle stores only
/// the workload identity, not the task bodies.
pub fn replay_bundle(
    bundle: &ReplayBundle,
    spec: &WorkflowSpec,
    fs: &MemFs,
) -> Result<ReplayReport, BundleError> {
    if spec.name != bundle.manifest.workload {
        return Err(BundleError::WorkloadMismatch {
            bundle: bundle.manifest.workload.clone(),
            spec: spec.name.clone(),
        });
    }
    for name in fs.list() {
        fs.remove(&name);
    }
    for (name, bytes) in &bundle.initial_images {
        fs.restore(name, bytes.clone());
    }
    let mut run = record_opts(spec, fs, &bundle.manifest.options)
        .map_err(|e| BundleError::ReplayFailed(e.to_string()))?;
    // The replayed trace has the same provenance as the recording it
    // reproduces — stamping it keeps byte-identical replays byte-identical.
    run.bundle.meta.origin = bundle.trace.meta.origin.clone();
    let diff = diff_traces(&bundle.trace, &run.bundle);
    let mut mismatches = Vec::new();
    compare_outcomes(&bundle.manifest, &run, &mut mismatches);
    compare_images(&bundle.final_images, fs, &mut mismatches);
    Ok(ReplayReport {
        run,
        diff,
        mismatches,
    })
}

fn compare_outcomes(manifest: &BundleManifest, run: &RecordedRun, out: &mut Vec<String>) {
    for rec in &manifest.outcomes {
        let Some(live) = run.outcome_of(&rec.task) else {
            out.push(format!(
                "task \"{}\": recorded an outcome but the replay never ran it",
                rec.task
            ));
            continue;
        };
        if live.attempts != rec.attempts {
            out.push(format!(
                "task \"{}\": {} attempt(s) recorded, {} replayed",
                rec.task, rec.attempts, live.attempts
            ));
        }
        if live.succeeded() != rec.succeeded() {
            out.push(format!(
                "task \"{}\": recorded {}, replayed {} ({})",
                rec.task,
                if rec.succeeded() {
                    "success"
                } else {
                    "failure"
                },
                if live.succeeded() {
                    "success"
                } else {
                    "failure"
                },
                live.error.as_deref().unwrap_or("no error")
            ));
        }
        if live.degraded != rec.degraded {
            out.push(format!(
                "task \"{}\": degraded flag recorded {} vs replayed {}",
                rec.task, rec.degraded, live.degraded
            ));
        }
        if live.faults_injected != rec.faults_injected {
            out.push(format!(
                "task \"{}\": {} fault(s) recorded, {} replayed",
                rec.task, rec.faults_injected, live.faults_injected
            ));
        }
        if live.recovered_files != rec.recovered_files {
            out.push(format!(
                "task \"{}\": recovered files recorded {:?} vs replayed {:?}",
                rec.task, rec.recovered_files, live.recovered_files
            ));
        }
    }
    for live in &run.outcomes {
        if !manifest.outcomes.iter().any(|o| o.task == live.task) {
            out.push(format!(
                "task \"{}\": replay ran it but the recording has no outcome",
                live.task
            ));
        }
    }
}

fn compare_images(recorded: &BTreeMap<String, Vec<u8>>, fs: &MemFs, out: &mut Vec<String>) {
    let live_names = fs.list();
    for name in &live_names {
        if !recorded.contains_key(name) {
            out.push(format!(
                "file \"{name}\": replay produced it but the bundle has no final image"
            ));
        }
    }
    for (name, want) in recorded {
        let Some(got) = fs.snapshot(name) else {
            out.push(format!(
                "file \"{name}\": bundled final image missing after replay"
            ));
            continue;
        };
        if &got != want {
            let at = want
                .iter()
                .zip(got.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want.len().min(got.len()));
            out.push(format!(
                "file \"{name}\": content differs at byte {at} (recorded {} bytes, replayed {})",
                want.len(),
                got.len()
            ));
        }
    }
}

/// Records `spec` over `fs` with `opts`, then freezes the run into a
/// replay bundle. The initial filesystem state is snapshotted before the
/// run.
pub fn record_to_bundle(
    spec: &WorkflowSpec,
    fs: &MemFs,
    opts: &RecordOptions,
    params: impl Into<String>,
    tool_version: impl Into<String>,
) -> Result<(RecordedRun, ReplayBundle), BundleError> {
    let initial: BTreeMap<String, Vec<u8>> = fs
        .list()
        .into_iter()
        .filter_map(|name| fs.snapshot(&name).map(|bytes| (name, bytes)))
        .collect();
    let (params, tool_version) = (params.into(), tool_version.into());
    let mut run =
        record_opts(spec, fs, opts).map_err(|e| BundleError::ReplayFailed(e.to_string()))?;
    run.bundle.meta.origin = Some(TraceOrigin {
        workload: spec.name.clone(),
        params: params.clone(),
        tool_version: tool_version.clone(),
    });
    let manifest = BundleManifest::new(
        spec.name.clone(),
        params,
        tool_version,
        opts,
        run.outcomes.clone(),
    );
    let bundle = ReplayBundle::pack(manifest, run.bundle.clone(), initial, fs);
    Ok((run, bundle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use crate::spec::{TaskIo, TaskSpec};
    use dayu_hdf::{DataType, DatasetBuilder, Durability};
    use dayu_vfd::{CrashSchedule, FaultSchedule};

    fn pc_spec() -> WorkflowSpec {
        WorkflowSpec::new("pc")
            .stage(
                "produce",
                vec![TaskSpec::new("producer", |io: &TaskIo| {
                    let f = io.create("data.h5")?;
                    let mut ds = f.root().create_dataset(
                        "d",
                        DatasetBuilder::new(DataType::Int { width: 8 }, &[64]),
                    )?;
                    ds.write_u64s(&[5; 64])?;
                    ds.close()?;
                    f.close()
                })],
            )
            .stage(
                "consume",
                vec![TaskSpec::new("consumer", |io: &TaskIo| {
                    let f = io.open("data.h5")?;
                    let mut ds = f.root().open_dataset("d")?;
                    assert_eq!(ds.read_u64s()?[0], 5);
                    ds.close()?;
                    f.close()
                })],
            )
    }

    fn record_pc(opts: &RecordOptions) -> ReplayBundle {
        let fs = MemFs::new();
        let (_, bundle) = record_to_bundle(&pc_spec(), &fs, opts, "scale=test", "test").unwrap();
        bundle
    }

    #[test]
    fn clean_run_replays_with_zero_divergence() {
        let bundle = record_pc(&RecordOptions::default());
        let origin = bundle.trace.meta.origin.as_ref().expect("origin stamped");
        assert_eq!(origin.workload, "pc");
        assert_eq!(origin.params, "scale=test");
        let fs = MemFs::new();
        let report = replay_bundle(&bundle, &pc_spec(), &fs).unwrap();
        assert!(
            report.validated(),
            "diff={:?} mismatches={:?}",
            report.diff,
            report.mismatches
        );
        assert_eq!(
            fs.snapshot("data.h5"),
            bundle.final_images.get("data.h5").cloned()
        );
    }

    #[test]
    fn chaos_run_replays_with_zero_divergence() {
        // The producer body performs exactly one raw-data op (the dataset
        // write), so the transient fault keys to data-op 0.
        let opts = RecordOptions::default()
            .with_chaos(FaultSchedule::new(5).with_transient_at(0))
            .with_retry(RetryPolicy::default().with_backoff(0, 0));
        let bundle = record_pc(&opts);
        assert_eq!(
            bundle
                .manifest
                .outcomes
                .iter()
                .find(|o| o.task == "producer")
                .unwrap()
                .attempts,
            2
        );
        let report = replay_bundle(&bundle, &pc_spec(), &MemFs::new()).unwrap();
        assert!(
            report.validated(),
            "diff={:?} mismatches={:?}",
            report.diff,
            report.mismatches
        );
    }

    #[test]
    fn crash_recovery_run_replays_with_zero_divergence() {
        let opts = RecordOptions::default()
            .with_crash(CrashSchedule::new(11).with_crash_at(6).torn())
            .with_durability(Durability::Journal)
            .with_resume(true)
            .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0));
        let bundle = record_pc(&opts);
        let report = replay_bundle(&bundle, &pc_spec(), &MemFs::new()).unwrap();
        assert!(
            report.validated(),
            "diff={:?} mismatches={:?}",
            report.diff,
            report.mismatches
        );
    }

    #[test]
    fn manual_clock_replay_is_byte_identical() {
        let opts = RecordOptions {
            manual_clock: true,
            ..RecordOptions::default()
                .with_chaos(FaultSchedule::new(9).with_transient_at(0))
                .with_retry(RetryPolicy::default().with_backoff(0, 0))
        };
        let fs = MemFs::new();
        let (_, bundle) = record_to_bundle(&pc_spec(), &fs, &opts, "scale=test", "test").unwrap();
        assert!(bundle.manifest.options.manual_clock);
        let fs2 = MemFs::new();
        let report = replay_bundle(&bundle, &pc_spec(), &fs2).unwrap();
        assert!(report.validated());
        // Byte-identical trace: same ManualClock timeline on both runs.
        assert_eq!(
            report.run.bundle.to_binary_bytes(),
            bundle.trace.to_binary_bytes()
        );
    }

    #[test]
    fn perturbed_schedule_diverges() {
        // Record with a transient fault at data-op 0: the producer fails
        // once, retries, and succeeds on attempt 2. Then replay a doctored
        // bundle whose chaos kills the device permanently at op 0: the
        // live producer can never reach the recorded success, so either
        // the op stream or the outcome diverges — naming the producer.
        let opts = RecordOptions::default()
            .with_chaos(FaultSchedule::new(5).with_transient_at(0))
            .with_retry(RetryPolicy::default().with_backoff(0, 0));
        let mut bundle = record_pc(&opts);
        assert_eq!(
            bundle
                .manifest
                .outcomes
                .iter()
                .find(|o| o.task == "producer")
                .unwrap()
                .attempts,
            2
        );
        bundle.manifest.options.chaos = Some(FaultSchedule::new(5).with_dead_at(0));
        let report = replay_bundle(&bundle, &pc_spec(), &MemFs::new()).unwrap();
        assert!(!report.validated());
        let first = report.diff.first.as_ref().expect("op streams diverge");
        assert_eq!(first.task, "producer");
        assert!(report.mismatches.iter().any(|m| m.contains("producer")));
    }

    #[test]
    fn wrong_spec_is_rejected() {
        let bundle = record_pc(&RecordOptions::default());
        let other = WorkflowSpec::new("other").stage(
            "s",
            vec![TaskSpec::new("t", |io: &TaskIo| {
                let f = io.create("x.h5")?;
                f.close()
            })],
        );
        match replay_bundle(&bundle, &other, &MemFs::new()) {
            Err(BundleError::WorkloadMismatch { bundle: b, spec: s }) => {
                assert_eq!(b, "pc");
                assert_eq!(s, "other");
            }
            other => panic!("expected WorkloadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn tampered_final_image_is_a_mismatch() {
        let mut bundle = record_pc(&RecordOptions::default());
        let img = bundle.final_images.get_mut("data.h5").unwrap();
        let last = img.len() - 1;
        img[last] ^= 0xFF;
        let report = replay_bundle(&bundle, &pc_spec(), &MemFs::new()).unwrap();
        assert!(report
            .mismatches
            .iter()
            .any(|m| m.contains("data.h5") && m.contains("differs")));
    }

    /// Position of `task`'s last VFD record in the bundled trace.
    fn last_record_of(bundle: &ReplayBundle, task: &str) -> usize {
        bundle
            .trace
            .vfd
            .iter()
            .rposition(|r| r.task.as_str() == task)
            .expect("task recorded I/O")
    }

    /// Length of `task`'s VFD record stream in the bundled trace.
    fn stream_len(bundle: &ReplayBundle, task: &str) -> usize {
        bundle
            .trace
            .vfd
            .iter()
            .filter(|r| r.task.as_str() == task)
            .count()
    }

    fn replay(bundle: &ReplayBundle) -> ReplayReport {
        replay_bundle(bundle, &pc_spec(), &MemFs::new()).unwrap()
    }

    #[test]
    fn replay_doing_one_op_more_than_recorded_diverges() {
        // The bundled trace lacks the producer's last op; the replay still
        // performs it.
        let mut bundle = record_pc(&RecordOptions::default());
        let dropped = bundle.trace.vfd.remove(last_record_of(&bundle, "producer"));
        let report = replay(&bundle);
        assert!(!report.validated());
        // Outcomes and images still match: only the op streams tell.
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        let first = report.diff.first.as_ref().expect("op streams diverge");
        assert_eq!(first.task, "producer");
        assert_eq!(first.event_index, stream_len(&bundle, "producer"));
        assert_eq!(first.a, None);
        let extra = first.b.as_ref().expect("the replay's extra op");
        assert_eq!((extra.kind, extra.offset), (dropped.kind, dropped.offset));
        assert!(
            first.detail.contains("run A's stream ended"),
            "{}",
            first.detail
        );
        assert_eq!(report.diff.diverged_tasks, ["producer"]);
    }

    #[test]
    fn replay_stopping_short_of_the_recording_diverges() {
        // The bundled trace repeats the producer's last op; the replay
        // performs it once.
        let mut bundle = record_pc(&RecordOptions::default());
        let at = last_record_of(&bundle, "producer");
        let copy = bundle.trace.vfd[at].clone();
        bundle.trace.vfd.insert(at + 1, copy);
        let report = replay(&bundle);
        assert!(!report.validated());
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        let first = report.diff.first.as_ref().expect("op streams diverge");
        assert_eq!(first.task, "producer");
        assert_eq!(first.event_index, stream_len(&bundle, "producer") - 1);
        assert!(first.a.is_some());
        assert_eq!(first.b, None);
        assert!(
            first.detail.contains("run B's stream ended"),
            "{}",
            first.detail
        );
    }

    #[test]
    fn replay_needing_more_attempts_than_recorded_is_an_outcome_mismatch() {
        // Recorded clean, one attempt per task. The doctored manifest adds
        // a transient fault at the producer's first data op, so the replay
        // retries where the recording did not.
        let mut bundle = record_pc(&RecordOptions::default());
        bundle.manifest.options.chaos = Some(FaultSchedule::new(5).with_transient_at(0));
        bundle.manifest.options.retry = RetryPolicy::default().with_backoff(0, 0);
        let report = replay(&bundle);
        assert!(!report.validated());
        // The final attempt does the recorded ops: only the outcome tells.
        assert!(report.diff.is_empty(), "{:?}", report.diff);
        assert_eq!(report.run.outcome_of("producer").unwrap().attempts, 2);
        let want = "task \"producer\": 1 attempt(s) recorded, 2 replayed";
        assert!(
            report.mismatches.iter().any(|m| m == want),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn sampled_recording_validates_and_its_doctored_copy_diverges() {
        let mut opts = RecordOptions::default();
        opts.mapper.skip_ops = 2;
        let bundle = record_pc(&opts);
        let full = record_pc(&RecordOptions::default());
        assert!(!bundle.trace.vfd.is_empty());
        assert!(bundle.trace.vfd.len() < full.trace.vfd.len());
        let report = replay(&bundle);
        assert!(
            report.validated(),
            "diff={:?} mismatches={:?}",
            report.diff,
            report.mismatches
        );

        let mut doctored = bundle;
        let at = last_record_of(&doctored, "consumer");
        doctored.trace.vfd[at].offset += 1;
        let report = replay(&doctored);
        assert!(!report.validated());
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
        let first = report.diff.first.as_ref().expect("op streams diverge");
        assert_eq!(first.task, "consumer");
        let (a, b) = (first.a.as_ref().unwrap(), first.b.as_ref().unwrap());
        assert_eq!(a.offset, b.offset + 1);
    }

    #[test]
    fn every_divergent_task_is_named_and_task_order_picks_the_first() {
        // Both tasks are doctored; the replay runs to its end, so the diff
        // names both, and the producer leads because it comes first in the
        // recording's task order.
        let mut bundle = record_pc(&RecordOptions::default());
        for task in ["consumer", "producer"] {
            let at = last_record_of(&bundle, task);
            bundle.trace.vfd[at].len += 1;
        }
        let report = replay(&bundle);
        let first = report.diff.first.as_ref().expect("op streams diverge");
        assert_eq!(first.task, "producer");
        assert_eq!(report.diff.diverged_tasks, ["producer", "consumer"]);
    }
}
