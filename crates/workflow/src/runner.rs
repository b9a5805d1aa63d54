//! Workflow execution with profiling: the record phase.
//!
//! Runs a [`WorkflowSpec`] over a shared in-memory filesystem, stage by
//! stage, tasks of a stage in parallel ([`par_map`]), each task
//! instrumented by its own [`Mapper`] session — mirroring production DaYu
//! where every task process carries its own profiler and per-task traces
//! are joined afterwards. The result is a workflow-wide [`TraceBundle`]
//! plus the stage/compute metadata the replay simulation needs.
//!
//! The record phase is fault-tolerant ([`record_opts`]): an optional chaos
//! schedule injects storage faults beneath the profiler, transient failures
//! are retried per [`RetryPolicy`], and a task that fails permanently still
//! contributes a salvaged, `degraded`-marked trace fragment so the analyzer
//! can build a partial FTG/SDG instead of nothing. Every task's fate is
//! reported as a [`TaskOutcome`]; sibling tasks of a failed task always run
//! to completion.

use crate::retry::RetryPolicy;
use crate::spec::{TaskIo, TaskSpec, WorkflowSpec};
use dayu_hdf::{Durability, HdfError, Result};
use dayu_mapper::{Mapper, MapperConfig};
use dayu_trace::ids::TaskKey;
use dayu_trace::store::TraceBundle;
use dayu_trace::sync::par_map;
use dayu_trace::time::{Clock, ManualClock, RealClock};
use dayu_vfd::{
    CrashController, CrashSchedule, FaultInjector, FaultSchedule, MemFs, ReplaySession,
    ReplayValidator,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The fate of one task during recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskOutcome {
    /// Task name.
    pub task: String,
    /// Attempts made (1 = succeeded or failed without retry).
    pub attempts: u32,
    /// Whether the task failed permanently and its trace was salvaged as a
    /// truncated fragment.
    pub degraded: bool,
    /// The final error message, if the task did not succeed.
    pub error: Option<String>,
    /// Faults the chaos engine injected into this task (0 without chaos).
    pub faults_injected: u64,
    /// Files whose crash recovery this task's attempts performed on
    /// reopen, in recovery order (empty without crash injection).
    pub recovered_files: Vec<String>,
}

impl TaskOutcome {
    /// Whether the task completed successfully (possibly after retries).
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }

    /// Whether any attempt of this task resumed from crash recovery.
    pub fn recovered(&self) -> bool {
        !self.recovered_files.is_empty()
    }
}

/// Knobs for the record phase: plain data, so a `.drb` manifest embeds it
/// and the command line round-trips it ([`RecordOptions::from_args`]).
/// `Default` reproduces [`record`]'s behaviour except that transient I/O
/// errors are retried.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordOptions {
    /// Mapper (profiler) configuration.
    pub mapper: MapperConfig,
    /// Retry policy for failed task bodies.
    pub retry: RetryPolicy,
    /// Fault schedule to inject beneath the profiler; `None` (or a no-op
    /// schedule) records without chaos.
    pub chaos: Option<FaultSchedule>,
    /// Crash schedule: deterministically kills each task's I/O at a seeded
    /// write, tearing or dropping in-flight bytes; `None` (or a no-op
    /// schedule) records without crash injection.
    pub crash: Option<CrashSchedule>,
    /// Durability mode for every file the workflow touches. Crash
    /// injection without [`Durability::Journal`] loses whatever the torn
    /// file held — exactly the failure the journal exists to prevent.
    pub durability: Durability,
    /// If `true`, retry attempts resume: `create` of a file the previous
    /// attempt left behind recovers and reopens it instead of restarting
    /// from scratch (bodies must use the idempotent `ensure_*` helpers).
    pub resume: bool,
    /// If `true`, a permanently failed task contributes a truncated,
    /// `degraded`-marked trace fragment and recording continues; if
    /// `false`, task failures abort the run with an error naming every
    /// failed task.
    pub salvage: bool,
    /// If `true`, the run stamps events from a fresh [`ManualClock`]
    /// instead of a [`RealClock`]: timestamps are reproducible and a
    /// replay can be byte-identical.
    pub manual_clock: bool,
}

impl Default for RecordOptions {
    fn default() -> Self {
        Self {
            mapper: MapperConfig::default(),
            retry: RetryPolicy::default(),
            chaos: None,
            crash: None,
            durability: Durability::default(),
            resume: false,
            salvage: true,
            manual_clock: false,
        }
    }
}

impl RecordOptions {
    /// Options with the given chaos schedule.
    pub fn with_chaos(mut self, schedule: FaultSchedule) -> Self {
        self.chaos = Some(schedule);
        self
    }

    /// Options with the given crash schedule.
    pub fn with_crash(mut self, schedule: CrashSchedule) -> Self {
        self.crash = Some(schedule);
        self
    }

    /// Options with the given durability mode.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Options with resume-from-recovery enabled (or disabled) for retry
    /// attempts.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Options with the given retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Output of the record phase.
#[derive(Debug)]
pub struct RecordedRun {
    /// Merged traces of all tasks, task order following stage order.
    pub bundle: TraceBundle,
    /// Stage index per task.
    pub stage_of: HashMap<String, usize>,
    /// Modeled compute nanoseconds per task.
    pub compute_ns: HashMap<String, u64>,
    /// Stage names in order.
    pub stage_names: Vec<String>,
    /// Per-task outcome, in stage-then-declaration order.
    pub outcomes: Vec<TaskOutcome>,
}

impl RecordedRun {
    /// Tasks of the given stage, in declaration order.
    pub fn tasks_of_stage(&self, stage: usize) -> Vec<&str> {
        self.bundle
            .meta
            .task_order
            .iter()
            .filter(|t| self.stage_of.get(t.as_str()) == Some(&stage))
            .map(|t| t.as_str())
            .collect()
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stage_names.len()
    }

    /// Whether any task's trace was salvaged as a degraded fragment.
    pub fn degraded(&self) -> bool {
        self.outcomes.iter().any(|o| o.degraded)
    }

    /// Whether any task resumed from crash recovery.
    pub fn recovered(&self) -> bool {
        self.outcomes.iter().any(|o| o.recovered())
    }

    /// Names of tasks that resumed from crash recovery, in outcome order.
    pub fn recovered_tasks(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.recovered())
            .map(|o| o.task.as_str())
            .collect()
    }

    /// Names of tasks that did not succeed, in outcome order.
    pub fn failed_tasks(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.succeeded())
            .map(|o| o.task.as_str())
            .collect()
    }

    /// The outcome recorded for `task`.
    pub fn outcome_of(&self, task: &str) -> Option<&TaskOutcome> {
        self.outcomes.iter().find(|o| o.task == task)
    }
}

/// Records a workflow execution with default mapper configuration. Task
/// failures abort the run (after the whole stage finishes) with an error
/// naming every failed task.
pub fn record(spec: &WorkflowSpec, fs: &MemFs) -> Result<RecordedRun> {
    record_with(spec, fs, &MapperConfig::default())
}

/// Records a workflow execution with an explicit mapper configuration.
/// Strict like [`record`]: no chaos, no retries, no salvage — but sibling
/// tasks of a failed task still complete, and when several tasks fail the
/// error is a [`HdfError::MultiFailure`] listing all of them (a single
/// failure propagates the original error unchanged).
pub fn record_with(spec: &WorkflowSpec, fs: &MemFs, cfg: &MapperConfig) -> Result<RecordedRun> {
    record_opts(
        spec,
        fs,
        &RecordOptions {
            mapper: cfg.clone(),
            retry: RetryPolicy::none(),
            salvage: false,
            ..RecordOptions::default()
        },
    )
}

/// One task's result inside a stage: its outcome, its (possibly salvaged)
/// trace, and the typed error kept for strict propagation.
struct TaskRun {
    outcome: TaskOutcome,
    bundle: Option<TraceBundle>,
    error: Option<HdfError>,
}

/// Runs one task body with retries, chaos injection and salvage.
fn run_task(
    spec: &WorkflowSpec,
    fs: &MemFs,
    opts: &RecordOptions,
    replay: Option<&Arc<ReplayValidator>>,
    clock: &Arc<dyn Clock>,
    t: &TaskSpec,
) -> TaskRun {
    // One injector per task, shared across all its files and *all* its
    // attempts: the data-op counter keeps advancing, so a deterministic
    // fault keyed to op n fires once and retries make progress.
    let injector: Option<FaultInjector> = opts
        .chaos
        .as_ref()
        .filter(|s| !s.is_noop())
        .map(|s| s.injector_for(&t.name));
    // Likewise one crash controller per task: its write counter and
    // fired-latch span attempts, so the seeded crash strikes exactly once
    // and a revived retry proceeds past the crash point.
    let crash: Option<CrashController> = opts
        .crash
        .as_ref()
        .filter(|s| !s.is_noop())
        .map(|s| s.controller_for(&t.name));
    let jitter_seed = opts.chaos.as_ref().map(|s| s.seed).unwrap_or(0);
    let started = Instant::now();
    let mut attempts = 0u32;
    let mut recovered_files: Vec<String> = Vec::new();
    loop {
        attempts += 1;
        // A fresh mapper per attempt: a failed attempt's records are
        // discarded rather than double-counted (files are re-created on
        // retry, so the successful attempt's trace matches a clean run).
        let mapper =
            Mapper::with_config_and_clock(spec.name.clone(), opts.mapper.clone(), clock.clone());
        mapper.set_task(&t.name);
        let mut io = match &injector {
            Some(inj) => TaskIo::with_faults(fs, &mapper, inj.clone()),
            None => TaskIo::new(fs, &mapper),
        };
        if let Some(c) = &crash {
            io = io.with_crash(c.clone());
        }
        if let Some(v) = replay {
            v.begin_attempt(&t.name, attempts);
            io = io.with_replay(ReplaySession::new(v.clone(), t.name.as_str()));
        }
        // Resume applies to *retry* attempts only: the first attempt of a
        // task creates its outputs from scratch like any clean run.
        io = io
            .with_durability(opts.durability)
            .with_resume(opts.resume && attempts > 1);
        let faults_so_far = || injector.as_ref().map(|i| i.faults_injected()).unwrap_or(0);
        let result = (t.body)(&io);
        for (file, _) in io.recoveries() {
            if !recovered_files.contains(&file) {
                recovered_files.push(file);
            }
        }
        match result {
            Ok(()) => {
                if let Some(v) = replay {
                    v.finish_task(&t.name, true);
                }
                mapper.clear_task();
                let mut bundle = mapper.into_bundle();
                if !recovered_files.is_empty() {
                    bundle.mark_recovered(TaskKey::new(t.name.as_str()));
                }
                return TaskRun {
                    outcome: TaskOutcome {
                        task: t.name.clone(),
                        attempts,
                        degraded: false,
                        error: None,
                        faults_injected: faults_so_far(),
                        recovered_files,
                    },
                    bundle: Some(bundle),
                    error: None,
                };
            }
            Err(e) => {
                let deadline_hit = opts
                    .retry
                    .deadline_ns
                    .is_some_and(|d| started.elapsed().as_nanos() as u64 >= d);
                if crate::retry::retryable(&e)
                    && attempts < opts.retry.max_attempts
                    && !deadline_hit
                {
                    // A crashed "machine" rejects all I/O until revived;
                    // the fired-latch stays set, so the retry runs clean.
                    if let Some(c) = &crash {
                        c.revive();
                    }
                    let pause = opts.retry.backoff_ns(attempts, jitter_seed);
                    if pause > 0 {
                        std::thread::sleep(std::time::Duration::from_nanos(pause));
                    }
                    continue;
                }
                // Permanent failure: salvage what the last attempt traced.
                if let Some(v) = replay {
                    v.finish_task(&t.name, false);
                }
                let bundle = opts.salvage.then(|| {
                    let mut b = mapper.into_bundle();
                    b.mark_degraded(TaskKey::new(t.name.as_str()));
                    if !recovered_files.is_empty() {
                        b.mark_recovered(TaskKey::new(t.name.as_str()));
                    }
                    b
                });
                return TaskRun {
                    outcome: TaskOutcome {
                        task: t.name.clone(),
                        attempts,
                        degraded: opts.salvage,
                        error: Some(e.to_string()),
                        faults_injected: faults_so_far(),
                        recovered_files,
                    },
                    bundle,
                    error: Some(e),
                };
            }
        }
    }
}

/// Records a workflow execution with full fault-tolerance control: chaos
/// injection, retry/backoff, per-task outcomes and trace salvage.
///
/// With `opts.salvage` **on** (the default), the run always yields a
/// `RecordedRun`: permanently failed tasks contribute degraded trace
/// fragments and later stages still execute (their tasks may fail in turn
/// — e.g. a consumer of a file its dead producer never wrote — and are
/// salvaged the same way). With salvage **off**, the first stage with
/// failures aborts the run after all of its tasks finish: one failure
/// propagates the original error, several are folded into
/// [`HdfError::MultiFailure`].
pub fn record_opts(spec: &WorkflowSpec, fs: &MemFs, opts: &RecordOptions) -> Result<RecordedRun> {
    record_validated(spec, fs, opts, None)
}

/// Records like [`record_opts`]. With a `replay` validator, every task's
/// driver stack gains a [`dayu_vfd::ReplayVfd`] that cross-checks live
/// operations against the recorded streams the validator holds.
pub(crate) fn record_validated(
    spec: &WorkflowSpec,
    fs: &MemFs,
    opts: &RecordOptions,
    replay: Option<&Arc<ReplayValidator>>,
) -> Result<RecordedRun> {
    spec.validate()?;
    // One clock for the whole run: per-task mappers must stamp events on a
    // common timeline or cross-task ordering (FTG layout, time-dependent
    // input detection) is meaningless.
    let clock: Arc<dyn Clock> = if opts.manual_clock {
        Arc::new(ManualClock::new())
    } else {
        Arc::new(RealClock::new())
    };
    let mut bundle = TraceBundle::new(spec.name.clone());
    bundle.meta.page_size = opts.mapper.page_size;
    // Persist stage membership into the trace itself: the lint
    // happens-before engine derives task concurrency from it, so a
    // recorded bundle stays analyzable without the originating spec.
    bundle.meta.stages = spec
        .stages
        .iter()
        .map(|s| s.tasks.iter().map(|t| TaskKey::new(&t.name)).collect())
        .collect();
    // One indexed pass over the spec yields every per-task lookup table
    // the run needs; the stage loop below no longer rescans task lists.
    let index = spec.index();
    let mut stage_of = HashMap::with_capacity(index.len());
    let mut compute_ns = HashMap::with_capacity(index.len());
    for stage in &spec.stages {
        for t in &stage.tasks {
            let (si, _) = index.position(&t.name).expect("validated spec task");
            stage_of.insert(t.name.clone(), si);
            compute_ns.insert(t.name.clone(), t.compute_ns);
        }
    }
    let mut stage_names = Vec::new();
    let mut outcomes: Vec<TaskOutcome> = Vec::new();

    for stage in spec.stages.iter() {
        stage_names.push(stage.name.clone());
        // Stage barrier: tasks inside the stage run in parallel, each with
        // its own mapper session (its own shared context → correct task
        // attribution under concurrency). `par_map` preserves input
        // order, so outcomes are deterministic regardless of thread
        // interleaving.
        let results: Vec<TaskRun> = par_map(&stage.tasks, |t| {
            run_task(spec, fs, opts, replay, &clock, t)
        });

        let mut errors: Vec<(String, HdfError)> = Vec::new();
        for run in results {
            if let Some(b) = run.bundle {
                bundle.merge(b);
            }
            if let Some(e) = run.error {
                errors.push((run.outcome.task.clone(), e));
            }
            outcomes.push(run.outcome);
        }
        if !opts.salvage && !errors.is_empty() {
            // Strict mode: abort before later stages run. A single failure
            // keeps its typed error (callers match on the variant); several
            // independent failures become one structured multi-error.
            return Err(if errors.len() == 1 {
                errors.pop().expect("len checked").1
            } else {
                HdfError::MultiFailure(
                    errors
                        .into_iter()
                        .map(|(task, e)| (task, e.to_string()))
                        .collect(),
                )
            });
        }
    }
    Ok(RecordedRun {
        bundle,
        stage_of,
        compute_ns,
        stage_names,
        outcomes,
    })
}

/// Convenience: records and also verifies that every task name in the
/// bundle has a stage (guards against bodies spawning unattributed I/O).
pub fn record_checked(spec: &WorkflowSpec, fs: &MemFs) -> Result<RecordedRun> {
    let run = record(spec, fs)?;
    for t in &run.bundle.meta.task_order {
        if !run.stage_of.contains_key(t.as_str()) {
            return Err(HdfError::InvalidArgument(format!(
                "trace contains unknown task {t}"
            )));
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TaskSpec;
    use dayu_hdf::{DataType, DatasetBuilder};

    fn producer_consumer_spec() -> WorkflowSpec {
        WorkflowSpec::new("pc")
            .stage(
                "produce",
                vec![TaskSpec::new("producer", |io: &TaskIo| {
                    let f = io.create("data.h5")?;
                    let mut ds = f.root().create_dataset(
                        "d",
                        DatasetBuilder::new(DataType::Float { width: 8 }, &[32]),
                    )?;
                    ds.write_f64s(&[1.0; 32])?;
                    ds.close()?;
                    f.close()
                })
                .with_compute(1_000)],
            )
            .stage(
                "consume",
                vec![
                    TaskSpec::new("consumer_0", |io: &TaskIo| {
                        let f = io.open("data.h5")?;
                        let mut ds = f.root().open_dataset("d")?;
                        assert_eq!(ds.read_f64s()?[0], 1.0);
                        ds.close()?;
                        f.close()
                    }),
                    TaskSpec::new("consumer_1", |io: &TaskIo| {
                        let f = io.open("data.h5")?;
                        let mut ds = f.root().open_dataset("d")?;
                        ds.read_f64s()?;
                        ds.close()?;
                        f.close()
                    }),
                ],
            )
    }

    #[test]
    fn record_produces_cross_task_traces() {
        let fs = MemFs::new();
        let run = record(&producer_consumer_spec(), &fs).unwrap();
        assert_eq!(
            run.bundle.meta.task_order,
            vec!["producer".into(), "consumer_0".into(), "consumer_1".into()]
        );
        assert_eq!(run.stage_of["producer"], 0);
        assert_eq!(run.stage_of["consumer_1"], 1);
        assert_eq!(run.compute_ns["producer"], 1_000);
        assert_eq!(run.stage_names, vec!["produce", "consume"]);
        assert_eq!(run.tasks_of_stage(1), vec!["consumer_0", "consumer_1"]);
        // Stage membership travels inside the bundle for the lint HB engine.
        assert_eq!(
            run.bundle.meta.stages,
            vec![
                vec![TaskKey::new("producer")],
                vec![TaskKey::new("consumer_0"), TaskKey::new("consumer_1")],
            ]
        );
        assert_eq!(run.stage_count(), 2);
        assert!(!run.degraded());
        assert!(run.failed_tasks().is_empty());
        assert_eq!(run.outcomes.len(), 3);
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.succeeded() && o.attempts == 1));
        assert_eq!(run.outcome_of("producer").unwrap().faults_injected, 0);

        // The dataset appears in traces of all three tasks.
        let tasks_touching: std::collections::BTreeSet<&str> = run
            .bundle
            .vol
            .iter()
            .filter(|r| r.object.as_str() == "/d")
            .map(|r| r.task.as_str())
            .collect();
        assert_eq!(tasks_touching.len(), 3);
    }

    #[test]
    fn task_errors_propagate() {
        let spec = WorkflowSpec::new("bad").stage(
            "s",
            vec![TaskSpec::new("fails", |io: &TaskIo| {
                io.open("missing.h5").map(|_| ())
            })],
        );
        let fs = MemFs::new();
        assert!(matches!(record(&spec, &fs), Err(HdfError::NotFound(_))));
    }

    #[test]
    fn multiple_sibling_failures_are_all_reported() {
        let spec = WorkflowSpec::new("bad2").stage(
            "s",
            vec![
                TaskSpec::new("ok", |io: &TaskIo| {
                    let f = io.create("fine.h5")?;
                    f.close()
                }),
                TaskSpec::new("fail_a", |io: &TaskIo| io.open("no_a.h5").map(|_| ())),
                TaskSpec::new("fail_b", |io: &TaskIo| io.open("no_b.h5").map(|_| ())),
            ],
        );
        let fs = MemFs::new();
        let err = record(&spec, &fs).unwrap_err();
        match err {
            HdfError::MultiFailure(fails) => {
                let tasks: Vec<&str> = fails.iter().map(|(t, _)| t.as_str()).collect();
                assert_eq!(tasks, vec!["fail_a", "fail_b"]);
                assert!(fails.iter().all(|(_, m)| m.contains("not found")));
            }
            other => panic!("expected MultiFailure, got {other}"),
        }
        // The sibling that succeeded still ran to completion.
        assert!(fs.exists("fine.h5"));
    }

    #[test]
    fn salvage_mode_continues_past_failures() {
        let spec = WorkflowSpec::new("salvaged")
            .stage(
                "s1",
                vec![
                    TaskSpec::new("writer", |io: &TaskIo| {
                        let f = io.create("out.h5")?;
                        let mut ds = f.root().create_dataset(
                            "d",
                            DatasetBuilder::new(DataType::Int { width: 1 }, &[8]),
                        )?;
                        ds.write(&[1; 8])?;
                        ds.close()?;
                        f.close()
                    }),
                    TaskSpec::new("crasher", |io: &TaskIo| io.open("ghost.h5").map(|_| ())),
                ],
            )
            .stage(
                "s2",
                vec![TaskSpec::new("reader", |io: &TaskIo| {
                    let f = io.open("out.h5")?;
                    let mut ds = f.root().open_dataset("d")?;
                    ds.read()?;
                    ds.close()?;
                    f.close()
                })],
            );
        let fs = MemFs::new();
        let run = record_opts(&spec, &fs, &RecordOptions::default()).unwrap();
        assert!(run.degraded());
        assert_eq!(run.failed_tasks(), vec!["crasher"]);
        let crash = run.outcome_of("crasher").unwrap();
        assert!(crash.degraded);
        assert_eq!(crash.attempts, 1, "NotFound is not retryable");
        assert!(crash.error.as_deref().unwrap().contains("not found"));
        // The second stage still ran.
        assert!(run.outcome_of("reader").unwrap().succeeded());
        // The salvaged bundle marks exactly the crashed task.
        assert_eq!(
            run.bundle.meta.degraded_tasks,
            vec![TaskKey::new("crasher")]
        );
    }

    #[test]
    fn transient_chaos_fault_is_retried_to_success() {
        let spec = WorkflowSpec::new("retryable").stage(
            "s",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("w.h5")?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[64]))?;
                ds.write_u64s(&[3; 64])?;
                ds.close()?;
                f.close()
            })],
        );
        let fs = MemFs::new();
        // The body performs exactly one raw-data op (the 512-byte dataset
        // write is a single VFD write), so the transient fault keys to
        // data-op 0.
        let opts = RecordOptions::default()
            .with_chaos(FaultSchedule::new(5).with_transient_at(0))
            .with_retry(RetryPolicy::default().with_backoff(0, 0));
        let run = record_opts(&spec, &fs, &opts).unwrap();
        let o = run.outcome_of("writer").unwrap();
        assert!(o.succeeded(), "{:?}", o.error);
        assert_eq!(o.attempts, 2, "one transient fault, one retry");
        assert_eq!(o.faults_injected, 1);
        assert!(!run.degraded());
        assert!(fs.exists("w.h5"));
    }

    #[test]
    fn dead_device_exhausts_retries_and_salvages() {
        let spec = WorkflowSpec::new("doomed").stage(
            "s",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("w.h5")?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[64]))?;
                ds.write_u64s(&[3; 64])?;
                ds.close()?;
                f.close()
            })],
        );
        let fs = MemFs::new();
        let opts = RecordOptions::default()
            .with_chaos(FaultSchedule::new(5).with_dead_at(0))
            .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0));
        let run = record_opts(&spec, &fs, &opts).unwrap();
        let o = run.outcome_of("writer").unwrap();
        assert!(!o.succeeded());
        assert_eq!(o.attempts, 3, "all attempts consumed");
        assert!(o.degraded);
        assert!(
            o.error.as_deref().unwrap().contains("chaos seed"),
            "error carries the seed: {:?}",
            o.error
        );
        assert!(run.bundle.is_degraded(&TaskKey::new("writer")));
        // The salvaged fragment is a well-formed `.dtb` trace.
        let back = TraceBundle::load(&run.bundle.to_binary_bytes()[..]).unwrap();
        assert_eq!(back, run.bundle);
    }

    #[test]
    fn deadline_stops_retrying() {
        let spec = WorkflowSpec::new("late").stage(
            "s",
            vec![TaskSpec::new("writer", |io: &TaskIo| {
                let f = io.create("w.h5")?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[64]))?;
                ds.write_u64s(&[3; 64])?;
                ds.close()?;
                f.close()
            })],
        );
        let fs = MemFs::new();
        // The device is permanently dead, every attempt fails; a 0ns
        // deadline means no retry ever starts.
        let opts = RecordOptions::default()
            .with_chaos(FaultSchedule::new(1).with_dead_at(0))
            .with_retry(
                RetryPolicy::default()
                    .attempts(10)
                    .with_backoff(0, 0)
                    .with_deadline_ns(0),
            );
        let run = record_opts(&spec, &fs, &opts).unwrap();
        let o = run.outcome_of("writer").unwrap();
        assert_eq!(o.attempts, 1, "deadline forbids retries");
        assert!(o.degraded);
    }

    #[test]
    fn crashed_task_resumes_from_recovery() {
        use dayu_vfd::CrashSchedule;
        // Sweep the crash point across the task's whole write sequence.
        // Invariant at every point: the run completes, and the final file
        // holds both datasets with the right bytes — whether the retry
        // resumed from a recovered image or restarted from scratch.
        let body = |io: &TaskIo| {
            let f = io.create("c.h5")?;
            let mut a = f
                .root()
                .ensure_dataset("a", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            a.write_u64s(&[7; 32])?;
            a.close()?;
            f.flush()?; // commit point: "a" is durable from here on
            let mut b = f
                .root()
                .ensure_dataset("b", DatasetBuilder::new(DataType::Int { width: 8 }, &[32]))?;
            b.write_u64s(&[9; 32])?;
            b.close()?;
            f.close()
        };
        let mut any_recovered = false;
        for crash_at in 1..24 {
            let spec = WorkflowSpec::new("crashy").stage("s", vec![TaskSpec::new("writer", body)]);
            let fs = MemFs::new();
            let opts = RecordOptions::default()
                .with_crash(CrashSchedule::new(11).with_crash_at(crash_at).torn())
                .with_durability(dayu_hdf::Durability::Journal)
                .with_resume(true)
                .with_retry(RetryPolicy::default().attempts(3).with_backoff(0, 0));
            let run = record_opts(&spec, &fs, &opts).unwrap();
            let o = run.outcome_of("writer").unwrap();
            assert!(o.succeeded(), "crash@{crash_at}: {:?}", o.error);
            assert!(o.attempts <= 2, "crash fires at most once");
            any_recovered |= o.recovered();
            if o.recovered() {
                assert_eq!(o.recovered_files, vec!["c.h5".to_string()]);
                assert!(run.recovered());
                assert_eq!(run.recovered_tasks(), vec!["writer"]);
                assert!(run.bundle.is_recovered(&TaskKey::new("writer")));
            }
            // Committed data round-trips regardless of the crash point.
            let f = dayu_hdf::H5File::open(
                fs.open_existing("c.h5").unwrap(),
                "c.h5",
                Default::default(),
            )
            .unwrap();
            let mut a = f.root().open_dataset("a").unwrap();
            assert_eq!(a.read_u64s().unwrap(), vec![7; 32], "crash@{crash_at}");
            a.close().unwrap();
            let mut b = f.root().open_dataset("b").unwrap();
            assert_eq!(b.read_u64s().unwrap(), vec![9; 32], "crash@{crash_at}");
            b.close().unwrap();
            f.close().unwrap();
        }
        assert!(
            any_recovered,
            "at least one crash point must exercise resume-from-recovery"
        );
    }

    #[test]
    fn parallel_stage_tasks_have_correct_attribution() {
        // 8 parallel writers; each trace record must carry its own task.
        let mut tasks = Vec::new();
        for i in 0..8 {
            let name = format!("w{i}");
            let file = format!("out{i}.h5");
            tasks.push(TaskSpec::new(name.clone(), move |io: &TaskIo| {
                let f = io.create(&file)?;
                let mut ds = f
                    .root()
                    .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 8 }, &[16]))?;
                ds.write_u64s(&[0; 16])?;
                ds.close()?;
                f.close()
            }));
        }
        let spec = WorkflowSpec::new("par").stage("writers", tasks);
        let fs = MemFs::new();
        let run = record_checked(&spec, &fs).unwrap();
        for i in 0..8 {
            let task = format!("w{i}");
            let file = format!("out{i}.h5");
            assert!(
                run.bundle
                    .vfd
                    .iter()
                    .filter(|r| r.task.as_str() == task)
                    .all(|r| r.file.as_str() == file),
                "records of {task} only touch {file}"
            );
        }
        assert_eq!(fs.list().len(), 8);
        // Outcomes preserve declaration order under parallelism.
        let names: Vec<&str> = run.outcomes.iter().map(|o| o.task.as_str()).collect();
        assert_eq!(names, (0..8).map(|i| format!("w{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn record_with_io_tracing_off() {
        let fs = MemFs::new();
        let cfg = MapperConfig {
            trace_io: false,
            ..Default::default()
        };
        let run = record_with(&producer_consumer_spec(), &fs, &cfg).unwrap();
        assert!(run.bundle.vfd.is_empty());
        assert!(!run.bundle.files.is_empty(), "stats still present");
    }
}
