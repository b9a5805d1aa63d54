//! Workflow specifications: stages of tasks with I/O bodies.
//!
//! "Stages represent logical groupings of tasks designed to achieve
//! distinct milestones within a larger process"; tasks within a stage can
//! run in parallel, and stages execute in order (the barrier model of
//! PyFLEXTRKR's nine-stage pipeline and DDMD's four-stage iteration).
//!
//! A task's body performs real I/O through the instrumented format library
//! via [`TaskIo`]; its modeled compute time is carried alongside so the
//! replay simulation can account for computation between I/O phases.

use crate::contract::IoContract;
use dayu_hdf::{
    Dataset, DatasetBuilder, Durability, FileOptions, Group, H5File, HdfError, RecoveryReport,
    Result,
};
use dayu_mapper::Mapper;
use dayu_trace::sync::lock;
use dayu_vfd::{CrashController, CrashVfd, FaultInjector, FaultyVfd, MemFs, Vfd, VfdError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The I/O environment handed to a task body: file create/open through the
/// task's profiling mapper over the shared in-memory filesystem.
///
/// When built with [`TaskIo::with_faults`], every file the task touches is
/// additionally wrapped in a [`FaultyVfd`] sharing one chaos injector, so
/// fault schedules are keyed to the task's global data-op sequence. A
/// [`TaskIo::with_crash`] controller adds a [`CrashVfd`] beneath the fault
/// layer, modelling process death at the storage device. Both injection
/// layers sit *below* the profiler: the profiler observes injected failures
/// exactly as it would real device errors, and failed operations are never
/// recorded (the salvage-consistency invariant).
///
/// In resume mode ([`TaskIo::with_resume`]) a `create` of a file that
/// already exists reopens it instead — running crash recovery on a
/// journaled image — so a retried task continues from whatever its dead
/// predecessor committed rather than starting over. Bodies that want to be
/// resumable must use idempotent object helpers
/// ([`ensure_group`](dayu_hdf::Group::ensure_group) /
/// [`ensure_dataset`](dayu_hdf::Group::ensure_dataset)), or
/// [`TaskIo::create_dataset`], which issues a plain create's ops until a
/// retry resumes.
pub struct TaskIo<'a> {
    fs: &'a MemFs,
    mapper: &'a Mapper,
    faults: Option<FaultInjector>,
    crash: Option<CrashController>,
    durability: Durability,
    resume: bool,
    recoveries: Mutex<Vec<(String, RecoveryReport)>>,
}

impl<'a> TaskIo<'a> {
    /// An I/O environment over `fs`, instrumented by `mapper`. The runner
    /// builds these automatically; standalone benchmarks construct them
    /// directly.
    pub fn new(fs: &'a MemFs, mapper: &'a Mapper) -> Self {
        Self {
            fs,
            mapper,
            faults: None,
            crash: None,
            durability: Durability::default(),
            resume: false,
            recoveries: Mutex::new(Vec::new()),
        }
    }

    /// Like [`TaskIo::new`], but every file is wrapped in a fault-injecting
    /// driver sharing `injector` (clones share state, so op accounting
    /// spans all of the task's files and retry attempts).
    pub fn with_faults(fs: &'a MemFs, mapper: &'a Mapper, injector: FaultInjector) -> Self {
        let mut io = Self::new(fs, mapper);
        io.faults = Some(injector);
        io
    }

    /// Adds a crash controller: every file is additionally wrapped in a
    /// [`CrashVfd`] sharing `controller`, so a seeded crash point counts
    /// writes across all of the task's files.
    pub fn with_crash(mut self, controller: CrashController) -> Self {
        self.crash = Some(controller);
        self
    }

    /// Sets the durability mode files are created/opened with (journaled
    /// files survive crash points and are recovered on reopen).
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Enables resume mode: `create` of an existing file reopens (and
    /// recovers) it instead of truncating.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Stacks the injection layers under the profiler: memory file →
    /// crash device → fault injector → profiling wrapper.
    fn stack<V: Vfd + 'static>(&self, vfd: V) -> Box<dyn Vfd> {
        let mut v: Box<dyn Vfd> = Box::new(vfd);
        if let Some(c) = &self.crash {
            v = Box::new(CrashVfd::with_controller(v, c.clone()));
        }
        if let Some(inj) = &self.faults {
            v = Box::new(FaultyVfd::with_injector(v, inj.clone()));
        }
        v
    }

    fn options(&self) -> FileOptions {
        self.mapper.file_options().with_durability(self.durability)
    }

    /// Creates a file, instrumented end to end. In resume mode an existing
    /// file is recovered and reopened instead of truncated; only if its
    /// structure is beyond recovery does the task start it over.
    pub fn create(&self, name: &str) -> Result<H5File> {
        if self.resume && self.fs.exists(name) {
            match self.open(name) {
                Ok(f) => return Ok(f),
                // Environmental failures propagate (the retry loop owns
                // them); structural damage — a torn, empty or corrupt
                // image beyond recovery — falls through to re-create.
                Err(HdfError::Vfd(VfdError::Io(e))) => return Err(HdfError::Vfd(VfdError::Io(e))),
                Err(_) => {}
            }
        }
        H5File::create(
            self.mapper.wrap_vfd(self.stack(self.fs.create(name)), name),
            name,
            self.options(),
        )
    }

    /// Opens an existing file, instrumented end to end. A journaled file
    /// that missed its clean shutdown is recovered here; the recovery is
    /// remembered and surfaced through [`TaskIo::recoveries`].
    pub fn open(&self, name: &str) -> Result<H5File> {
        let vfd = self
            .fs
            .open_existing(name)
            .ok_or_else(|| HdfError::NotFound(name.to_owned()))?;
        let (file, report) = H5File::open_reporting(
            self.mapper.wrap_vfd(self.stack(vfd), name),
            name,
            self.options(),
        )?;
        if report.performed_recovery() {
            lock(&self.recoveries).push((name.to_owned(), report));
        }
        Ok(file)
    }

    /// Creates dataset `name` in `group`. In resume mode a dataset a
    /// previous attempt committed is reopened instead
    /// ([`Group::ensure_dataset`]); otherwise this is
    /// [`Group::create_dataset`] op for op, so a run that never resumes
    /// records the trace it would without resume support.
    pub fn create_dataset(
        &self,
        group: &Group,
        name: &str,
        builder: DatasetBuilder,
    ) -> Result<Dataset> {
        if self.resume {
            group.ensure_dataset(name, builder)
        } else {
            group.create_dataset(name, builder)
        }
    }

    /// Crash recoveries performed by opens so far: `(file, report)` in
    /// open order.
    pub fn recoveries(&self) -> Vec<(String, RecoveryReport)> {
        lock(&self.recoveries).clone()
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.fs.exists(name)
    }

    /// Names of all files currently in the shared filesystem.
    pub fn list_files(&self) -> Vec<String> {
        self.fs.list()
    }
}

/// The work a task performs.
pub type TaskBody = Arc<dyn Fn(&TaskIo) -> Result<()> + Send + Sync>;

/// One task of a workflow.
#[derive(Clone)]
pub struct TaskSpec {
    /// Unique task name.
    pub name: String,
    /// Modeled pure-compute time in nanoseconds (charged in the replay
    /// simulation before the task's I/O).
    pub compute_ns: u64,
    /// The task's I/O body.
    pub body: TaskBody,
    /// Declared symbolic I/O footprint, when the task carries one. `None`
    /// is the conservative ⊤: the static contract passes assume nothing
    /// and prove nothing about the task.
    pub contract: Option<IoContract>,
}

impl TaskSpec {
    /// A task with the given name and body and zero modeled compute.
    pub fn new(
        name: impl Into<String>,
        body: impl Fn(&TaskIo) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            compute_ns: 0,
            body: Arc::new(body),
            contract: None,
        }
    }

    /// Sets the modeled compute time.
    pub fn with_compute(mut self, nanos: u64) -> Self {
        self.compute_ns = nanos;
        self
    }

    /// Attaches a declared I/O footprint.
    pub fn with_contract(mut self, contract: IoContract) -> Self {
        self.contract = Some(contract);
        self
    }
}

/// A stage: tasks that may run in parallel.
#[derive(Clone)]
pub struct Stage {
    /// Stage name (e.g. `"simulation"`).
    pub name: String,
    /// The stage's tasks.
    pub tasks: Vec<TaskSpec>,
}

/// A staged workflow.
#[derive(Clone, Default)]
pub struct WorkflowSpec {
    /// Workflow name.
    pub name: String,
    /// Stages in execution order; stage *i+1* starts after every task of
    /// stage *i* completes.
    pub stages: Vec<Stage>,
}

impl WorkflowSpec {
    /// An empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Appends a stage.
    pub fn stage(mut self, name: impl Into<String>, tasks: Vec<TaskSpec>) -> Self {
        self.stages.push(Stage {
            name: name.into(),
            tasks,
        });
        self
    }

    /// Total task count.
    pub fn task_count(&self) -> usize {
        self.stages.iter().map(|s| s.tasks.len()).sum()
    }

    /// All task names in stage order.
    pub fn task_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .flat_map(|s| s.tasks.iter().map(|t| t.name.clone()))
            .collect()
    }

    /// The stage index of a task. Linear scan — callers resolving many
    /// names should build a [`WorkflowSpec::index`] once instead.
    pub fn stage_of(&self, task: &str) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| s.tasks.iter().any(|t| t.name == task))
    }

    /// A name→(stage, task) lookup index over this spec, built in one
    /// pass. The runner and the lint passes resolve every task name
    /// through this instead of per-call linear scans.
    pub fn index(&self) -> TaskIndex<'_> {
        TaskIndex::new(self)
    }

    /// Validates the spec's structure: task names must be unique across all
    /// stages, and every stage must hold at least one task (an empty stage
    /// is a barrier around nothing — always a construction mistake).
    pub fn validate(&self) -> Result<()> {
        for stage in &self.stages {
            if stage.tasks.is_empty() {
                return Err(HdfError::InvalidArgument(format!(
                    "stage {:?} has no tasks",
                    stage.name
                )));
            }
        }
        let names = self.task_names();
        for (i, n) in names.iter().enumerate() {
            if names[i + 1..].contains(n) {
                return Err(HdfError::InvalidArgument(format!(
                    "duplicate task name {n:?}"
                )));
            }
        }
        Ok(())
    }
}

/// A name→(stage index, task index) lookup over a [`WorkflowSpec`],
/// built once ([`WorkflowSpec::index`]) and then O(1) per query. On a
/// spec with duplicate task names (rejected by
/// [`WorkflowSpec::validate`]) the first occurrence wins.
pub struct TaskIndex<'a> {
    spec: &'a WorkflowSpec,
    map: HashMap<&'a str, (usize, usize)>,
}

impl<'a> TaskIndex<'a> {
    fn new(spec: &'a WorkflowSpec) -> Self {
        let mut map = HashMap::with_capacity(spec.task_count());
        for (s, stage) in spec.stages.iter().enumerate() {
            for (t, task) in stage.tasks.iter().enumerate() {
                map.entry(task.name.as_str()).or_insert((s, t));
            }
        }
        Self { spec, map }
    }

    /// `(stage index, index within the stage)` of a task.
    pub fn position(&self, task: &str) -> Option<(usize, usize)> {
        self.map.get(task).copied()
    }

    /// The stage index of a task.
    pub fn stage_of(&self, task: &str) -> Option<usize> {
        self.position(task).map(|(s, _)| s)
    }

    /// The spec entry of a task.
    pub fn get(&self, task: &str) -> Option<&'a TaskSpec> {
        self.position(task)
            .map(|(s, t)| &self.spec.stages[s].tasks[t])
    }

    /// Number of indexed tasks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the spec holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> TaskBody {
        Arc::new(|_io: &TaskIo| Ok(()))
    }

    #[test]
    fn spec_builder_and_queries() {
        let wf = WorkflowSpec::new("demo")
            .stage(
                "s1",
                vec![
                    TaskSpec {
                        name: "a0".into(),
                        compute_ns: 5,
                        body: noop(),
                        contract: None,
                    },
                    TaskSpec {
                        name: "a1".into(),
                        compute_ns: 5,
                        body: noop(),
                        contract: None,
                    },
                ],
            )
            .stage(
                "s2",
                vec![TaskSpec {
                    name: "b".into(),
                    compute_ns: 0,
                    body: noop(),
                    contract: None,
                }],
            );
        assert_eq!(wf.task_count(), 3);
        assert_eq!(wf.task_names(), vec!["a0", "a1", "b"]);
        assert_eq!(wf.stage_of("a1"), Some(0));
        assert_eq!(wf.stage_of("b"), Some(1));
        assert_eq!(wf.stage_of("zz"), None);
        assert!(wf.validate().is_ok());
    }

    #[test]
    fn index_agrees_with_linear_lookup() {
        let wf = WorkflowSpec::new("idx")
            .stage(
                "s1",
                vec![
                    TaskSpec::new("a0", |_| Ok(())),
                    TaskSpec::new("a1", |_| Ok(())),
                ],
            )
            .stage("s2", vec![TaskSpec::new("b", |_| Ok(()))]);
        let idx = wf.index();
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        for name in ["a0", "a1", "b"] {
            assert_eq!(idx.stage_of(name), wf.stage_of(name), "{name}");
        }
        assert_eq!(idx.position("a1"), Some((0, 1)));
        assert_eq!(idx.get("b").map(|t| t.name.as_str()), Some("b"));
        assert_eq!(idx.stage_of("zz"), None);
        assert!(idx.get("zz").is_none());
    }

    #[test]
    fn contract_attaches_to_a_task() {
        use crate::contract::IoContract;
        let t = TaskSpec::new("t", |_| Ok(()))
            .with_contract(IoContract::new().writes_all("out.h5", "/d"));
        let c = t.contract.expect("contract attached");
        assert_eq!(c.clauses.len(), 1);
        assert!(TaskSpec::new("bare", |_| Ok(())).contract.is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let wf = WorkflowSpec::new("dup")
            .stage("s1", vec![TaskSpec::new("x", |_| Ok(()))])
            .stage("s2", vec![TaskSpec::new("x", |_| Ok(()))]);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn duplicate_names_within_one_stage_rejected() {
        let wf = WorkflowSpec::new("dup").stage(
            "s1",
            vec![
                TaskSpec::new("x", |_| Ok(())),
                TaskSpec::new("x", |_| Ok(())),
            ],
        );
        let err = wf.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate task name"));
    }

    #[test]
    fn empty_stage_rejected() {
        let wf = WorkflowSpec::new("hollow")
            .stage("s1", vec![TaskSpec::new("x", |_| Ok(()))])
            .stage("void", vec![]);
        let err = wf.validate().unwrap_err();
        assert!(err.to_string().contains("has no tasks"), "{err}");
    }

    #[test]
    fn empty_workflow_is_valid() {
        // No stages at all is fine (a spec under construction); only a
        // present-but-empty stage is rejected.
        assert!(WorkflowSpec::new("blank").validate().is_ok());
    }

    #[test]
    fn task_with_compute() {
        let t = TaskSpec::new("t", |_| Ok(())).with_compute(1_000_000);
        assert_eq!(t.compute_ns, 1_000_000);
    }

    #[test]
    fn task_io_roundtrip() {
        use dayu_hdf::{DataType, DatasetBuilder};
        let fs = MemFs::new();
        let mapper = Mapper::new("wf");
        mapper.set_task("t");
        let io = TaskIo::new(&fs, &mapper);
        assert!(!io.exists("x.h5"));
        let f = io.create("x.h5").unwrap();
        let mut ds = f
            .root()
            .create_dataset("d", DatasetBuilder::new(DataType::Int { width: 1 }, &[4]))
            .unwrap();
        ds.write(&[9; 4]).unwrap();
        ds.close().unwrap();
        f.close().unwrap();

        assert!(io.exists("x.h5"));
        assert_eq!(io.list_files(), vec!["x.h5"]);
        let f = io.open("x.h5").unwrap();
        let mut ds = f.root().open_dataset("d").unwrap();
        assert_eq!(ds.read().unwrap(), vec![9; 4]);
        ds.close().unwrap();
        f.close().unwrap();

        assert!(matches!(io.open("missing.h5"), Err(HdfError::NotFound(_))));
    }
}
