//! Discrete-event replay engine.
//!
//! Executes a DAG of [`SimTask`]s over a [`Cluster`] + [`Placement`],
//! producing per-task timings and the workflow makespan. Each task issues
//! its program synchronously (one in-flight op at a time, like the POSIX
//! I/O beneath HDF5); concurrency arises from tasks running in parallel.
//!
//! Contention model: each storage *tier instance* (a shared filesystem, or
//! one node's local device) tracks how many ops are currently in flight on
//! it; an op's duration is computed at start from that count via
//! [`crate::tiers::TierModel::op_cost_ns`]. Later arrivals do not retroactively slow
//! in-flight ops — a first-order approximation that keeps the engine
//! O(ops·log tasks) while preserving the contention trends the paper's
//! placement optimizations exploit.

use crate::cluster::{Cluster, FileLocation, Placement};
use crate::program::{IoDir, SimOp, SimTask, TaskId};
use crate::tiers::TierKind;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Where an op physically executes (for stream counting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum TierInstance {
    Shared(TierKind),
    Local(usize, TierKind),
}

/// Timing results for one task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Node it ran on.
    pub node: usize,
    /// Start time, ns.
    pub start_ns: u64,
    /// End time, ns.
    pub end_ns: u64,
    /// Time spent in I/O operations, ns.
    pub io_ns: u64,
    /// Time spent computing, ns.
    pub compute_ns: u64,
    /// Bytes of I/O performed.
    pub io_bytes: u64,
    /// Number of I/O operations.
    pub io_ops: u64,
}

impl TaskReport {
    /// Wall-clock duration of the task.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Results of one simulated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Per-task timing, indexed like the input tasks.
    pub tasks: Vec<TaskReport>,
    /// End time of the last task, ns.
    pub makespan_ns: u64,
}

impl SimReport {
    /// Sum of all tasks' I/O time ("I/O time (sum of POSIX operations)" in
    /// the paper's Fig. 13a).
    pub fn total_io_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.io_ns).sum()
    }

    /// Sum of all tasks' compute time.
    pub fn total_compute_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.compute_ns).sum()
    }

    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// Report for the named task (first match).
    pub fn task(&self, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// Errors detected before/while simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A dependency index is not a valid task index.
    BadDependency {
        /// The referring task.
        task: TaskId,
        /// The out-of-range dependency.
        dep: TaskId,
    },
    /// A task's node index exceeds the cluster size.
    BadNode {
        /// The offending task.
        task: TaskId,
        /// Its node.
        node: usize,
    },
    /// The dependency graph has a cycle (some tasks can never start).
    Cycle {
        /// Names of tasks that never became ready.
        stuck: Vec<String>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadDependency { task, dep } => {
                write!(f, "task {task} depends on nonexistent task {dep}")
            }
            SimError::BadNode { task, node } => {
                write!(f, "task {task} assigned to nonexistent node {node}")
            }
            SimError::Cycle { stuck } => write!(f, "dependency cycle; stuck: {stuck:?}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The discrete-event simulator.
pub struct Engine<'a> {
    cluster: &'a Cluster,
    placement: &'a Placement,
}

struct Running {
    op_idx: usize,
    io_ns: u64,
    compute_ns: u64,
    io_bytes: u64,
    io_ops: u64,
    start_ns: u64,
    current_instance: Option<TierInstance>,
}

impl<'a> Engine<'a> {
    /// An engine over the given machine and file placement.
    pub fn new(cluster: &'a Cluster, placement: &'a Placement) -> Self {
        Self { cluster, placement }
    }

    fn op_location(&self, task_node: usize, file: &str) -> (TierInstance, bool) {
        match self.placement.location(self.cluster, file) {
            FileLocation::Shared(kind) => (TierInstance::Shared(kind), false),
            FileLocation::NodeLocal(node, kind) => {
                (TierInstance::Local(node, kind), node != task_node)
            }
        }
    }

    fn op_cost(
        &self,
        task_node: usize,
        op: &SimOp,
        streams: &HashMap<TierInstance, u32>,
    ) -> (u64, Option<TierInstance>) {
        match op {
            SimOp::Compute { nanos } => (*nanos, None),
            SimOp::Io {
                file,
                dir,
                bytes,
                metadata,
            } => {
                let (instance, remote) = self.op_location(task_node, file);
                let kind = match instance {
                    TierInstance::Shared(k) | TierInstance::Local(_, k) => k,
                };
                let tier = self.cluster.tier(kind);
                let concurrent = streams.get(&instance).copied().unwrap_or(0) + 1;
                let mut cost = tier.op_cost_ns(*dir == IoDir::Write, *bytes, *metadata, concurrent);
                if remote {
                    cost += self.cluster.network.transfer_cost_ns(*bytes);
                }
                (cost, Some(instance))
            }
        }
    }

    /// Runs the job to completion.
    pub fn run(&self, tasks: &[SimTask]) -> Result<SimReport, SimError> {
        // Validate.
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= tasks.len() {
                    return Err(SimError::BadDependency { task: i, dep: d });
                }
            }
            if t.node >= self.cluster.nodes {
                return Err(SimError::BadNode {
                    task: i,
                    node: t.node,
                });
            }
        }

        let n = tasks.len();
        let mut deps_left: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                dependents[d].push(i);
            }
        }

        let mut running: Vec<Option<Running>> = (0..n).map(|_| None).collect();
        let mut reports: Vec<Option<TaskReport>> = vec![None; n];
        let mut streams: HashMap<TierInstance, u32> = HashMap::new();
        // (completion_time, sequence, task) — sequence keeps pops stable.
        let mut heap: BinaryHeap<Reverse<(u64, u64, TaskId)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut finished = 0usize;

        // Helper performed inline (closures can't borrow everything mutably):
        macro_rules! begin_op {
            ($tid:expr, $time:expr) => {{
                let tid = $tid;
                let time = $time;
                let state = running[tid].as_mut().expect("running");
                let op = &tasks[tid].program[state.op_idx];
                let (cost, instance) = self.op_cost(tasks[tid].node, op, &streams);
                if let Some(inst) = instance {
                    *streams.entry(inst).or_insert(0) += 1;
                    state.current_instance = Some(inst);
                    state.io_ns += cost;
                    state.io_bytes += op.bytes();
                    state.io_ops += 1;
                } else {
                    state.current_instance = None;
                    state.compute_ns += cost;
                }
                seq += 1;
                heap.push(Reverse((time + cost, seq, tid)));
            }};
        }

        macro_rules! start_task {
            ($tid:expr, $time:expr, $pending:expr) => {{
                let tid = $tid;
                let time: u64 = $time;
                running[tid] = Some(Running {
                    op_idx: 0,
                    io_ns: 0,
                    compute_ns: 0,
                    io_bytes: 0,
                    io_ops: 0,
                    start_ns: time,
                    current_instance: None,
                });
                if tasks[tid].program.is_empty() {
                    // Zero-length task: completes instantly.
                    seq += 1;
                    heap.push(Reverse((time, seq, tid)));
                    // Mark op_idx so the completion handler finishes it.
                    running[tid].as_mut().expect("running").op_idx = usize::MAX;
                } else {
                    begin_op!(tid, time);
                }
                let _ = &$pending;
            }};
        }

        let pending = ();
        for (i, _) in tasks.iter().enumerate() {
            if deps_left[i] == 0 {
                start_task!(i, 0u64, pending);
            }
        }

        while let Some(Reverse((time, _, tid))) = heap.pop() {
            let is_empty_task = running[tid].as_ref().map(|r| r.op_idx == usize::MAX) == Some(true);
            if !is_empty_task {
                // Finish the in-flight op.
                let inst = running[tid]
                    .as_mut()
                    .expect("running")
                    .current_instance
                    .take();
                if let Some(inst) = inst {
                    let c = streams.get_mut(&inst).expect("counted");
                    *c -= 1;
                }
                let state = running[tid].as_mut().expect("running");
                state.op_idx += 1;
                if state.op_idx < tasks[tid].program.len() {
                    begin_op!(tid, time);
                    continue;
                }
            }
            // Task complete.
            let state = running[tid].take().expect("running");
            reports[tid] = Some(TaskReport {
                name: tasks[tid].name.clone(),
                node: tasks[tid].node,
                start_ns: state.start_ns,
                end_ns: time,
                io_ns: state.io_ns,
                compute_ns: state.compute_ns,
                io_bytes: state.io_bytes,
                io_ops: state.io_ops,
            });
            finished += 1;
            for &dep in &dependents[tid] {
                deps_left[dep] -= 1;
                if deps_left[dep] == 0 {
                    start_task!(dep, time, pending);
                }
            }
        }

        if finished != n {
            let stuck = tasks
                .iter()
                .enumerate()
                .filter(|(i, _)| reports[*i].is_none())
                .map(|(_, t)| t.name.clone())
                .collect();
            return Err(SimError::Cycle { stuck });
        }

        let tasks_out: Vec<TaskReport> = reports.into_iter().map(|r| r.expect("done")).collect();
        let makespan_ns = tasks_out.iter().map(|t| t.end_ns).max().unwrap_or(0);
        Ok(SimReport {
            tasks: tasks_out,
            makespan_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, FileLocation, Placement};
    use crate::program::{SimOp, SimTask};
    use crate::tiers::TierKind;

    fn gpu() -> Cluster {
        Cluster::gpu_cluster(4)
    }

    #[test]
    fn single_task_io_time_matches_cost_model() {
        let c = gpu();
        let p = Placement::new();
        let tasks = vec![SimTask::new("t").with_program(vec![SimOp::write("f", 1 << 20)])];
        let report = Engine::new(&c, &p).run(&tasks).unwrap();
        let expect = c.tier(TierKind::Beegfs).op_cost_ns(true, 1 << 20, false, 1);
        assert_eq!(report.tasks[0].io_ns, expect);
        assert_eq!(report.makespan_ns, expect);
        assert_eq!(report.tasks[0].io_bytes, 1 << 20);
        assert_eq!(report.tasks[0].io_ops, 1);
    }

    #[test]
    fn compute_does_not_count_as_io() {
        let c = gpu();
        let p = Placement::new();
        let tasks =
            vec![SimTask::new("t").with_program(vec![SimOp::compute(500), SimOp::read("f", 0)])];
        let r = Engine::new(&c, &p).run(&tasks).unwrap();
        assert_eq!(r.tasks[0].compute_ns, 500);
        assert!(
            r.tasks[0].io_ns > 0,
            "latency still charged for 0-byte read"
        );
        assert_eq!(r.total_compute_ns(), 500);
    }

    #[test]
    fn dependencies_serialize_execution() {
        let c = gpu();
        let p = Placement::new();
        let tasks = vec![
            SimTask::new("a").with_program(vec![SimOp::compute(100)]),
            SimTask::new("b")
                .after(&[0])
                .with_program(vec![SimOp::compute(50)]),
            SimTask::new("c")
                .after(&[0, 1])
                .with_program(vec![SimOp::compute(10)]),
        ];
        let r = Engine::new(&c, &p).run(&tasks).unwrap();
        assert_eq!(r.tasks[0].start_ns, 0);
        assert_eq!(r.tasks[0].end_ns, 100);
        assert_eq!(r.tasks[1].start_ns, 100);
        assert_eq!(r.tasks[1].end_ns, 150);
        assert_eq!(r.tasks[2].start_ns, 150);
        assert_eq!(r.makespan_ns, 160);
    }

    #[test]
    fn parallel_tasks_overlap() {
        let c = gpu();
        let p = Placement::new();
        let tasks = vec![
            SimTask::new("a").with_program(vec![SimOp::compute(100)]),
            SimTask::new("b").with_program(vec![SimOp::compute(100)]),
        ];
        let r = Engine::new(&c, &p).run(&tasks).unwrap();
        assert_eq!(r.makespan_ns, 100, "independent tasks run concurrently");
    }

    #[test]
    fn shared_tier_contention_slows_concurrent_io() {
        let c = gpu();
        let p = Placement::new();
        let solo = Engine::new(&c, &p)
            .run(&[SimTask::new("s").with_program(vec![SimOp::read("f", 8 << 20)])])
            .unwrap()
            .makespan_ns;
        let tasks: Vec<SimTask> = (0..8)
            .map(|i| SimTask::new(format!("t{i}")).with_program(vec![SimOp::read("f", 8 << 20)]))
            .collect();
        let crowded = Engine::new(&c, &p).run(&tasks).unwrap();
        // Note: all 8 start simultaneously; first computes with streams=1,
        // later ones see increasing counts. The slowest sees ~8 streams.
        let slowest = crowded.tasks.iter().map(|t| t.io_ns).max().unwrap();
        assert!(
            slowest > 4 * solo,
            "contention should slow shared reads: solo={solo} slowest={slowest}"
        );
    }

    #[test]
    fn node_local_placement_avoids_contention() {
        let c = gpu();
        let mut p = Placement::new();
        for i in 0..4 {
            p.place(
                format!("f{i}"),
                FileLocation::NodeLocal(i, TierKind::NvmeSsd),
            );
        }
        let tasks: Vec<SimTask> = (0..4)
            .map(|i| {
                SimTask::new(format!("t{i}"))
                    .on_node(i)
                    .with_program(vec![SimOp::read(format!("f{i}"), 8 << 20)])
            })
            .collect();
        let local = Engine::new(&c, &p).run(&tasks).unwrap();
        let shared = Engine::new(&c, &Placement::new()).run(&tasks).unwrap();
        assert!(
            local.makespan_ns < shared.makespan_ns,
            "local NVMe should beat contended BeeGFS: {} vs {}",
            local.makespan_ns,
            shared.makespan_ns
        );
    }

    #[test]
    fn remote_node_local_access_pays_network() {
        let c = gpu();
        let mut p = Placement::new();
        p.place("f", FileLocation::NodeLocal(1, TierKind::NvmeSsd));
        let local = Engine::new(&c, &p)
            .run(&[SimTask::new("t")
                .on_node(1)
                .with_program(vec![SimOp::read("f", 1 << 20)])])
            .unwrap()
            .makespan_ns;
        let remote = Engine::new(&c, &p)
            .run(&[SimTask::new("t")
                .on_node(0)
                .with_program(vec![SimOp::read("f", 1 << 20)])])
            .unwrap()
            .makespan_ns;
        assert!(
            remote > local + c.network.latency_ns / 2,
            "remote access should pay a network hop: {local} vs {remote}"
        );
    }

    #[test]
    fn metadata_heavy_program_dominated_by_latency() {
        let c = gpu();
        let p = Placement::new();
        // 100 tiny metadata ops vs 1 op of the same total bytes.
        let many: Vec<SimOp> = (0..100)
            .map(|_| SimOp::metadata("f", IoDir::Read, 12))
            .collect();
        let one = vec![SimOp::read("f", 1200)];
        let r_many = Engine::new(&c, &p)
            .run(&[SimTask::new("many").with_program(many)])
            .unwrap();
        let r_one = Engine::new(&c, &p)
            .run(&[SimTask::new("one").with_program(one)])
            .unwrap();
        assert!(
            r_many.total_io_ns() > 20 * r_one.total_io_ns(),
            "many small metadata ops are far slower: {} vs {}",
            r_many.total_io_ns(),
            r_one.total_io_ns()
        );
    }

    #[test]
    fn empty_program_task_completes_instantly() {
        let c = gpu();
        let p = Placement::new();
        let tasks = vec![
            SimTask::new("noop"),
            SimTask::new("next")
                .after(&[0])
                .with_program(vec![SimOp::compute(5)]),
        ];
        let r = Engine::new(&c, &p).run(&tasks).unwrap();
        assert_eq!(r.tasks[0].duration_ns(), 0);
        assert_eq!(r.tasks[1].start_ns, 0);
        assert_eq!(r.makespan_ns, 5);
    }

    #[test]
    fn error_cases() {
        let c = gpu();
        let p = Placement::new();
        let eng = Engine::new(&c, &p);
        assert_eq!(
            eng.run(&[SimTask::new("x").after(&[5])]),
            Err(SimError::BadDependency { task: 0, dep: 5 })
        );
        assert_eq!(
            eng.run(&[SimTask::new("x").on_node(99)]),
            Err(SimError::BadNode { task: 0, node: 99 })
        );
        // 2-cycle.
        let cyc = vec![SimTask::new("a").after(&[1]), SimTask::new("b").after(&[0])];
        match eng.run(&cyc) {
            Err(SimError::Cycle { stuck }) => assert_eq!(stuck.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_replay() {
        let c = gpu();
        let p = Placement::new();
        let tasks: Vec<SimTask> = (0..6)
            .map(|i| {
                SimTask::new(format!("t{i}")).with_program(vec![
                    SimOp::read("shared", 1 << 16),
                    SimOp::compute(1000),
                    SimOp::write(format!("out{i}"), 1 << 18),
                ])
            })
            .collect();
        let a = Engine::new(&c, &p).run(&tasks).unwrap();
        let b = Engine::new(&c, &p).run(&tasks).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn report_lookup_and_seconds() {
        let c = gpu();
        let p = Placement::new();
        let r = Engine::new(&c, &p)
            .run(&[SimTask::new("only").with_program(vec![SimOp::compute(2_000_000_000)])])
            .unwrap();
        assert!(r.task("only").is_some());
        assert!(r.task("nope").is_none());
        assert!((r.makespan_secs() - 2.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::cluster::{Cluster, Placement};
    use crate::program::{SimOp, SimTask};
    use dayu_trace::rng::{cases, ChaosRng};

    fn arb_job(rng: &mut ChaosRng) -> Vec<SimTask> {
        // Up to 11 tasks; task i may depend on any subset of earlier tasks
        // (guarantees acyclicity); small random programs.
        (0..rng.range(1, 12) as usize)
            .map(|i| {
                let program = (0..rng.range(0, 6))
                    .map(|_| {
                        let (kind, amount) = (rng.range(0, 3), rng.range(1, 100_000));
                        match kind {
                            0 => SimOp::compute(amount),
                            1 => SimOp::read(format!("f{}", amount % 5), amount),
                            _ => SimOp::write(format!("f{}", amount % 5), amount),
                        }
                    })
                    .collect();
                let depmask: Vec<bool> = (0..12).map(|_| rng.chance(0.5)).collect();
                SimTask {
                    name: format!("t{i}"),
                    node: rng.range(0, 4) as usize,
                    deps: (0..i).filter(|&d| depmask[d]).collect(),
                    program,
                }
            })
            .collect()
    }

    /// Dependencies are never violated and the makespan covers every
    /// task, whatever the job shape.
    #[test]
    fn schedule_invariants() {
        cases("schedule_invariants", 256, |rng| {
            let job = arb_job(rng);
            let cluster = Cluster::gpu_cluster(4);
            let placement = Placement::new();
            let report = Engine::new(&cluster, &placement).run(&job).unwrap();
            assert_eq!(report.tasks.len(), job.len());
            for (i, t) in job.iter().enumerate() {
                let r = &report.tasks[i];
                assert!(r.end_ns >= r.start_ns);
                assert!(r.end_ns <= report.makespan_ns);
                for &d in &t.deps {
                    assert!(
                        report.tasks[d].end_ns <= r.start_ns,
                        "task {i} started before dep {d} finished"
                    );
                }
            }
            // I/O accounting: per-task io_ns fits within its span.
            for r in &report.tasks {
                assert!(r.io_ns + r.compute_ns <= r.duration_ns() + 1);
            }
        });
    }

    /// The engine is a pure function of its inputs.
    #[test]
    fn replay_is_deterministic() {
        cases("replay_is_deterministic", 256, |rng| {
            let job = arb_job(rng);
            let cluster = Cluster::cpu_cluster(4);
            let placement = Placement::new();
            let a = Engine::new(&cluster, &placement).run(&job).unwrap();
            let b = Engine::new(&cluster, &placement).run(&job).unwrap();
            assert_eq!(a, b);
        });
    }
}
