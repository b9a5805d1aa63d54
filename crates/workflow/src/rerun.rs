//! The replay engine: re-executes a bundled workload and cross-checks it.
//!
//! [`replay_bundle`] rebuilds the recorded run's starting filesystem from
//! the bundle's initial images, attaches a [`ReplayValidator`] holding the
//! recorded per-task operation streams, and runs the workload again under
//! the manifest's [`RecordOptions`] (same chaos/crash/retry/durability
//! seeds, same clock mode). Three independent checks gate the verdict:
//!
//! 1. **Op-by-op** — the [`dayu_vfd::ReplayVfd`] in every task's driver
//!    stack fails fast on the first operation that deviates from the
//!    recording (kind, file, extent, access type);
//! 2. **Outcomes** — attempts, success/degradation, fault counts and
//!    recovered files must match the bundled
//!    [`TaskOutcome`](crate::TaskOutcome)s, which is how fault/crash
//!    firings and recovery behaviour are validated;
//! 3. **Images** — the final filesystem must be byte-identical to the
//!    bundled final images.
//!
//! Op-by-op checking requires a full-fidelity recording (`trace_io` on,
//! `skip_ops == 0`); bundles recorded with sampling still get checks 2–3.

use crate::bundle::{BundleError, BundleManifest, ReplayBundle};
use crate::runner::{record_opts, record_validated, RecordOptions, RecordedRun};
use crate::spec::WorkflowSpec;
use dayu_trace::store::TraceOrigin;
use dayu_vfd::{MemFs, ReplayDivergence, ReplayEvent, ReplayValidator};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// The verdict of one replay.
#[derive(Debug)]
pub struct ReplayReport {
    /// The re-executed run (trace, outcomes, stage layout).
    pub run: RecordedRun,
    /// First operation-level divergence, if any.
    pub divergence: Option<ReplayDivergence>,
    /// Outcome- and image-level mismatches, human-readable.
    pub mismatches: Vec<String>,
    /// Whether op-by-op validation was active (full-fidelity recording).
    pub op_checked: bool,
}

impl ReplayReport {
    /// Whether the replay matched the recording on every active check.
    pub fn validated(&self) -> bool {
        self.divergence.is_none() && self.mismatches.is_empty()
    }
}

/// Builds the per-task expected streams from a recorded trace.
fn validator_for(bundle: &ReplayBundle) -> Arc<ReplayValidator> {
    let mut streams: HashMap<String, Vec<ReplayEvent>> = HashMap::new();
    for r in &bundle.trace.vfd {
        streams
            .entry(r.task.as_str().to_owned())
            .or_default()
            .push(ReplayEvent {
                file: r.file.as_str().to_owned(),
                kind: r.kind,
                offset: r.offset,
                len: r.len,
                access: r.access,
            });
    }
    let validator = Arc::new(ReplayValidator::new());
    // Tasks with no VFD records still need registration so an attempt
    // count overrun is caught; default final attempt is 1.
    for t in &bundle.trace.meta.task_order {
        streams.entry(t.as_str().to_owned()).or_default();
    }
    for (task, events) in streams {
        let final_attempt = bundle
            .manifest
            .outcomes
            .iter()
            .find(|o| o.task == task)
            .map_or(1, |o| o.attempts);
        validator.expect_task(&task, events, final_attempt);
    }
    validator
}

/// Re-executes the bundled workload over `fs` (which is cleared to the
/// bundle's initial images first) and cross-checks it against the
/// recording. `spec` must be the workload the bundle names — the bundle
/// stores only the workload identity, not the task bodies.
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
    let op_checked = bundle.manifest.full_fidelity();
    let validator = op_checked.then(|| validator_for(bundle));
    let mut run = record_validated(spec, fs, &bundle.manifest.options, validator.as_ref())
        .map_err(|e| BundleError::ReplayFailed(e.to_string()))?;
    // The replayed trace has the same provenance as the recording it
    // reproduces — stamping it keeps byte-identical replays byte-identical.
    run.bundle.meta.origin = bundle.trace.meta.origin.clone();
    let divergence = validator.as_ref().and_then(|v| v.divergence());
    let mut mismatches = Vec::new();
    compare_outcomes(&bundle.manifest, &run, &mut mismatches);
    compare_images(&bundle.final_images, fs, &mut mismatches);
    Ok(ReplayReport {
        run,
        divergence,
        mismatches,
        op_checked,
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
        assert!(report.op_checked);
        assert!(
            report.validated(),
            "divergence={:?} mismatches={:?}",
            report.divergence,
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
            "divergence={:?} mismatches={:?}",
            report.divergence,
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
            "divergence={:?} mismatches={:?}",
            report.divergence,
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
        if let Some(d) = &report.divergence {
            assert_eq!(d.task, "producer");
        } else {
            assert!(report.mismatches.iter().any(|m| m.contains("producer")));
        }
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
}
