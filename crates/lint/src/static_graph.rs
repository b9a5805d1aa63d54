//! Static dataflow prediction: the contract-derived sFTG/sSDG.
//!
//! [`StaticPrediction::from_spec`] runs an abstract interpretation over
//! every task's declared [`IoContract`](dayu_workflow::IoContract) and
//! constructs the graphs the analyzer would otherwise have to *record* —
//! without opening a single VFD:
//!
//! * the **sFTG** (static File-Task Graph): task↔file read/write edges;
//! * the **sSDG** (static Semantic Dataflow Graph): the dataset layer
//!   between tasks and files, with the same node-label and edge-direction
//!   conventions as [`dayu_analyzer::build_sdg`] (read = dataset→task
//!   `ReadOnly`, write = task→dataset `WriteOnly`, containment =
//!   dataset→file `Structural`) so recorded and predicted graphs diff
//!   structurally;
//! * **producer→consumer flows**: for every dataset, each declared writer
//!   feeds each declared reader of a *later* stage whose symbolic extent
//!   hulls may overlap — the stage barrier of
//!   [`WorkflowSpec`] supplies the ordering,
//!   so the flow relation is acyclic by construction;
//! * **dataset live ranges**: the stage span from a dataset's first
//!   declared producer to its last declared toucher, sized by the resolved
//!   dataset extent — the input to the cost model's working-set analysis.
//!
//! ## Byte resolution
//!
//! Contract clauses with bound affine extents resolve exactly (the hull
//! of an exactly-bound span *is* the span). A ⊤ clause (`reads_all` /
//! `writes_all`, or an unbound parameter) declares "the whole dataset"
//! without saying how big that is; it resolves to the widest concrete
//! hull any task declares for the same dataset, and when *nobody* bounds
//! it, to the abstract unit [`TOP_FOOTPRINT_BYTES`]. Costs built on ⊤
//! resolutions are therefore *relative* (plan A vs plan B under the same
//! assumption), while bound-extent costs are absolute predictions.
//!
//! ## Soundness check
//!
//! [`StaticPrediction::compare`] validates a recorded SDG against the
//! prediction, restricted to edges that moved **raw data**
//! (`data_access_count > 0`) between Task and Dataset nodes — metadata
//! brushes are deliberately out of scope, because contracts declare data
//! footprints and a metadata-only touch is exactly the access pattern a
//! well-written contract *omits* (see the ddmd training contract). A
//! recorded raw-data edge with no predicted counterpart is a contract
//! hole ([`Finding::IncompleteContract`]); a recorded task the spec never
//! declares is a structural mismatch ([`Finding::GraphMismatch`]).

use crate::cost::CostReport;
use crate::extent::Extent;
use crate::model::{Finding, Report};
use crate::symbolic::ContractCatalog;
use dayu_analyzer::build::dataset_label;
use dayu_analyzer::graph::{EdgeStats, Graph, GraphKind, NodeKind, Operation};
use dayu_sim::{SimOp, SimTask};
use dayu_trace::json::Writer;
use dayu_trace::time::Timestamp;
use dayu_trace::to_json;
use dayu_workflow::WorkflowSpec;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Abstract byte size assigned to a ⊤ footprint no declaration bounds:
/// the "one unit of whole-dataset traffic" every unbounded clause costs.
pub const TOP_FOOTPRINT_BYTES: u64 = 1 << 20;

/// One predicted dataset access of one task, with resolved byte runs.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskAccess {
    /// File holding the dataset.
    pub file: String,
    /// Dataset path within the file.
    pub dataset: String,
    /// Predicted raw bytes read.
    pub read_bytes: u64,
    /// Predicted raw bytes written.
    pub write_bytes: u64,
    /// Resolved contiguous read runs (one physical sweep each).
    pub read_runs: Vec<Extent>,
    /// Resolved contiguous write runs.
    pub write_runs: Vec<Extent>,
}

/// One task of the predicted workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedTask {
    /// Task name.
    pub name: String,
    /// Stage index within the spec.
    pub stage: usize,
    /// Modeled compute time carried over from the spec.
    pub compute_ns: u64,
    /// Whether the task declared a (non-empty) contract. An uncontracted
    /// task predicts *nothing* — every raw byte it moves at run time is a
    /// prediction hole.
    pub contracted: bool,
    /// Predicted dataset accesses, in (file, dataset) order.
    pub accesses: Vec<TaskAccess>,
}

impl PredictedTask {
    /// Total predicted bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.accesses.iter().map(|a| a.read_bytes).sum()
    }

    /// Total predicted bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.accesses.iter().map(|a| a.write_bytes).sum()
    }
}

/// One predicted producer→consumer dataflow edge.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictedFlow {
    /// The writing task.
    pub producer: String,
    /// The reading task (in a strictly later stage).
    pub consumer: String,
    /// File holding the dataset the flow moves through.
    pub file: String,
    /// The dataset.
    pub dataset: String,
    /// Predicted bytes the consumer may take from the producer.
    pub bytes: u64,
}

to_json!(PredictedFlow {
    producer,
    consumer,
    file,
    dataset,
    bytes
});

/// The stage span over which a dataset is live.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveRange {
    /// File holding the dataset.
    pub file: String,
    /// The dataset.
    pub dataset: String,
    /// First stage that declares a write (or, failing that, any access).
    pub born: usize,
    /// Last stage that declares any access.
    pub dies: usize,
    /// Resolved dataset extent in bytes.
    pub bytes: u64,
}

to_json!(LiveRange {
    file,
    dataset,
    born,
    dies,
    bytes
});

/// Outcome of diffing a recorded SDG against the prediction.
#[derive(Clone, Debug, Default)]
pub struct SdgComparison {
    /// Recorded raw-data task↔dataset edges the prediction contains.
    pub matched: usize,
    /// Recorded raw-data edges with no predicted counterpart (holes).
    pub missing: usize,
    /// Predicted edges the recording never exercised.
    pub extra: usize,
    /// Structural mismatches (recorded tasks outside the spec).
    pub mismatched: usize,
    /// One finding per hole/mismatch.
    pub report: Report,
}

impl SdgComparison {
    /// Fraction of recorded raw-data edges the prediction covers
    /// (soundness; 1.0 when the recording is empty).
    pub fn recall(&self) -> f64 {
        let total = self.matched + self.missing + self.mismatched;
        if total == 0 {
            1.0
        } else {
            self.matched as f64 / total as f64
        }
    }

    /// Fraction of predicted edges the recording exercised (precision;
    /// 1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        let total = self.matched + self.extra;
        if total == 0 {
            1.0
        } else {
            self.matched as f64 / total as f64
        }
    }

    /// Whether the recorded graph is a subgraph of the prediction.
    pub fn is_sound(&self) -> bool {
        self.missing == 0 && self.mismatched == 0
    }
}

/// The `dayu-analyze predict --json` document: the workflow's cost
/// annotation, predicted flows and live ranges, and the comparison with a
/// recording (`null` without one), its findings as one-line messages.
pub fn prediction_json(
    workflow: &str,
    cost: &CostReport,
    flows: &[PredictedFlow],
    live_ranges: &[LiveRange],
    compare: Option<&SdgComparison>,
) -> String {
    let mut w = Writer::new(true);
    w.object(|w| {
        w.field("workflow", workflow);
        w.field("cost", cost);
        w.field("flows", flows);
        w.field("live_ranges", live_ranges);
        w.key("compare");
        let Some(c) = compare else {
            return w.null();
        };
        w.object(|w| {
            w.field("matched", &c.matched);
            w.field("missing", &c.missing);
            w.field("extra", &c.extra);
            w.field("mismatched", &c.mismatched);
            w.field("precision", &c.precision());
            w.field("recall", &c.recall());
            w.key("findings");
            w.array(
                c.report
                    .findings
                    .iter()
                    .map(|f| format!("[{}] {f}", f.category())),
            );
        });
    });
    w.into_string()
}

/// The full static prediction of one workflow spec.
#[derive(Clone, Debug)]
pub struct StaticPrediction {
    /// Workflow name.
    pub workflow: String,
    /// Stage names, in execution order.
    pub stage_names: Vec<String>,
    /// Predicted tasks, in stage order.
    pub tasks: Vec<PredictedTask>,
    /// Predicted producer→consumer flows (acyclic by stage ordering).
    pub flows: Vec<PredictedFlow>,
    /// Dataset live ranges in stage coordinates.
    pub live_ranges: Vec<LiveRange>,
    /// The static Semantic Dataflow Graph. Node times encode stage
    /// indices (`start` = stage, `end` = stage + 1).
    pub sdg: Graph,
    /// The static File-Task Graph.
    pub ftg: Graph,
}

/// Resolved footprint: total bytes plus the contiguous runs they tile.
fn resolve(fp: &crate::symbolic::SymFootprint, dataset_bytes: u64) -> (u64, Vec<Extent>) {
    if fp.is_empty() {
        (0, Vec::new())
    } else if fp.top {
        (dataset_bytes, vec![Extent::new(0, dataset_bytes)])
    } else {
        (fp.hulls.total_len(), fp.hulls.runs().to_vec())
    }
}

impl StaticPrediction {
    /// Abstract-interprets every declared contract of `spec` into the
    /// static graphs. Pure spec analysis — no VFD, no trace, no run.
    pub fn from_spec(spec: &WorkflowSpec) -> Self {
        let catalog = ContractCatalog::from_spec(spec);

        // Pass 1: resolve each dataset's extent — the widest concrete
        // hull end any task declares for it, else the abstract unit.
        let mut dataset_extent: BTreeMap<(String, String), u64> = BTreeMap::new();
        for stage in &spec.stages {
            for task in &stage.tasks {
                for file in catalog.files_of(&task.name) {
                    let Some(fps) = catalog.footprints(&task.name, file) else {
                        continue;
                    };
                    for (dataset, pair) in fps {
                        let hi = [&pair.reads, &pair.writes]
                            .iter()
                            .filter(|fp| !fp.top)
                            .flat_map(|fp| fp.hulls.runs())
                            .map(|r| r.end)
                            .max()
                            .unwrap_or(0);
                        let e = dataset_extent
                            .entry((file.to_owned(), dataset.clone()))
                            .or_insert(0);
                        *e = (*e).max(hi);
                    }
                }
            }
        }
        for bytes in dataset_extent.values_mut() {
            if *bytes == 0 {
                *bytes = TOP_FOOTPRINT_BYTES;
            }
        }

        // Pass 2: per-task resolved accesses, in stage order.
        let mut tasks = Vec::with_capacity(spec.task_count());
        for (stage_idx, stage) in spec.stages.iter().enumerate() {
            for task in &stage.tasks {
                let contracted = catalog.knows(&task.name);
                let mut accesses = Vec::new();
                for file in catalog.files_of(&task.name) {
                    let Some(fps) = catalog.footprints(&task.name, file) else {
                        continue;
                    };
                    for (dataset, pair) in fps {
                        let bytes = dataset_extent[&(file.to_owned(), dataset.clone())];
                        let (read_bytes, read_runs) = resolve(&pair.reads, bytes);
                        let (write_bytes, write_runs) = resolve(&pair.writes, bytes);
                        if read_bytes == 0 && write_bytes == 0 {
                            continue;
                        }
                        accesses.push(TaskAccess {
                            file: file.to_owned(),
                            dataset: dataset.clone(),
                            read_bytes,
                            write_bytes,
                            read_runs,
                            write_runs,
                        });
                    }
                }
                tasks.push(PredictedTask {
                    name: task.name.clone(),
                    stage: stage_idx,
                    compute_ns: task.compute_ns,
                    contracted,
                    accesses,
                });
            }
        }

        // Pass 3: graphs. Same conventions as the recorded builders so
        // the two sides diff structurally; node times carry stage indices.
        let mut sdg = Graph::new(GraphKind::Sdg, spec.name.clone());
        let mut ftg = Graph::new(GraphKind::Ftg, spec.name.clone());
        for t in &tasks {
            sdg.node(NodeKind::Task, &t.name);
            ftg.node(NodeKind::Task, &t.name);
        }
        for t in &tasks {
            let (s0, s1) = (Timestamp(t.stage as u64), Timestamp(t.stage as u64 + 1));
            let tn = sdg.node(NodeKind::Task, &t.name);
            let tf = ftg.node(NodeKind::Task, &t.name);
            for a in &t.accesses {
                let stats = |bytes: u64, runs: usize| EdgeStats {
                    access_volume: bytes,
                    access_count: runs as u64,
                    data_access_count: runs as u64,
                    data_access_volume: bytes,
                    first: s0,
                    last: s1,
                    ..Default::default()
                };
                let d = sdg.node(NodeKind::Dataset, &dataset_label(&a.file, &a.dataset));
                let f = sdg.node(NodeKind::File, &a.file);
                let ff = ftg.node(NodeKind::File, &a.file);
                let moved = a.read_bytes + a.write_bytes;
                sdg.touch_node(tn, s0, s1, moved);
                sdg.touch_node(d, s0, s1, moved);
                sdg.touch_node(f, s0, s1, moved);
                ftg.touch_node(tf, s0, s1, moved);
                ftg.touch_node(ff, s0, s1, moved);
                if a.read_bytes > 0 {
                    let st = stats(a.read_bytes, a.read_runs.len());
                    sdg.edge(d, tn, Operation::ReadOnly, st.clone());
                    ftg.edge(ff, tf, Operation::ReadOnly, st);
                }
                if a.write_bytes > 0 {
                    let st = stats(a.write_bytes, a.write_runs.len());
                    sdg.edge(tn, d, Operation::WriteOnly, st.clone());
                    ftg.edge(tf, ff, Operation::WriteOnly, st);
                }
                sdg.edge(d, f, Operation::Structural, EdgeStats::default());
            }
        }
        sdg.normalize_times();
        ftg.normalize_times();

        // Pass 4: flows and live ranges. A writer feeds every reader of a
        // strictly later stage whose hulls may overlap — the stage
        // barrier makes the relation acyclic.
        let mut writers: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut readers: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, t) in tasks.iter().enumerate() {
            for a in &t.accesses {
                let key = (a.file.clone(), a.dataset.clone());
                if a.write_bytes > 0 {
                    writers.entry(key.clone()).or_default().push(i);
                }
                if a.read_bytes > 0 {
                    readers.entry(key).or_default().push(i);
                }
            }
        }
        let catalog_fp = |i: usize, file: &str, dataset: &str| {
            catalog
                .footprint(&tasks[i].name, file, dataset)
                .expect("access came from this footprint")
        };
        let mut flows = Vec::new();
        for ((file, dataset), ws) in &writers {
            let Some(rs) = readers.get(&(file.clone(), dataset.clone())) else {
                continue;
            };
            for &w in ws {
                for &r in rs {
                    if tasks[w].stage >= tasks[r].stage {
                        continue;
                    }
                    let wf = &catalog_fp(w, file, dataset).writes;
                    let rf = &catalog_fp(r, file, dataset).reads;
                    if wf.may_overlap(rf).is_none() {
                        continue;
                    }
                    let bytes = tasks[w]
                        .accesses
                        .iter()
                        .find(|a| &a.file == file && &a.dataset == dataset)
                        .map(|a| a.write_bytes)
                        .unwrap_or(0)
                        .min(
                            tasks[r]
                                .accesses
                                .iter()
                                .find(|a| &a.file == file && &a.dataset == dataset)
                                .map(|a| a.read_bytes)
                                .unwrap_or(0),
                        );
                    flows.push(PredictedFlow {
                        producer: tasks[w].name.clone(),
                        consumer: tasks[r].name.clone(),
                        file: file.clone(),
                        dataset: dataset.clone(),
                        bytes,
                    });
                }
            }
        }
        let mut live_ranges = Vec::new();
        let touched: BTreeMap<(String, String), Vec<usize>> = {
            let mut m: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
            for (key, v) in writers.iter().chain(readers.iter()) {
                m.entry(key.clone()).or_default().extend(v.iter().copied());
            }
            m
        };
        for ((file, dataset), ts) in &touched {
            let born = writers
                .get(&(file.clone(), dataset.clone()))
                .map(|ws| ws.iter().map(|&i| tasks[i].stage).min().unwrap_or(0))
                .unwrap_or_else(|| ts.iter().map(|&i| tasks[i].stage).min().unwrap_or(0));
            let dies = ts.iter().map(|&i| tasks[i].stage).max().unwrap_or(born);
            live_ranges.push(LiveRange {
                file: file.clone(),
                dataset: dataset.clone(),
                born,
                dies: dies.max(born),
                bytes: dataset_extent[&(file.clone(), dataset.clone())],
            });
        }

        Self {
            workflow: spec.name.clone(),
            stage_names: spec.stages.iter().map(|s| s.name.clone()).collect(),
            tasks,
            flows,
            live_ranges,
            sdg,
            ftg,
        }
    }

    /// The predicted task entry for `name`.
    pub fn task(&self, name: &str) -> Option<&PredictedTask> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Converts the prediction into a simulator DAG: one [`SimTask`] per
    /// predicted task, dependencies from the predicted flows (not the
    /// stage barriers — the sSDG exposes the *dataflow* parallelism a
    /// scheduler could exploit), program = modeled compute followed by
    /// one I/O op per resolved run.
    pub fn to_sim_tasks(&self) -> Vec<SimTask> {
        let index: HashMap<&str, usize> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.as_str(), i))
            .collect();
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); self.tasks.len()];
        for f in &self.flows {
            if let (Some(&p), Some(&c)) = (
                index.get(f.producer.as_str()),
                index.get(f.consumer.as_str()),
            ) {
                deps[c].insert(p);
            }
        }
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut program = Vec::new();
                if t.compute_ns > 0 {
                    program.push(SimOp::compute(t.compute_ns));
                }
                for a in &t.accesses {
                    for r in &a.read_runs {
                        program.push(SimOp::read(a.file.clone(), r.len()));
                    }
                    for w in &a.write_runs {
                        program.push(SimOp::write(a.file.clone(), w.len()));
                    }
                }
                let mut d: Vec<usize> = deps[i].iter().copied().collect();
                d.sort_unstable();
                SimTask::new(t.name.clone()).after(&d).with_program(program)
            })
            .collect()
    }

    /// Diffs a recorded SDG against the prediction (see the module docs
    /// for the raw-data restriction). Every hole becomes a
    /// [`Finding::IncompleteContract`], every recorded task outside the
    /// spec a [`Finding::GraphMismatch`].
    pub fn compare(&self, recorded: &Graph) -> SdgComparison {
        let spec_tasks: HashSet<&str> = self.tasks.iter().map(|t| t.name.as_str()).collect();
        // Predicted edge set: (task, file, dataset, is_read).
        let mut predicted: HashMap<(String, String, String, bool), bool> = HashMap::new();
        for t in &self.tasks {
            for a in &t.accesses {
                if a.read_bytes > 0 {
                    predicted.insert(
                        (t.name.clone(), a.file.clone(), a.dataset.clone(), true),
                        false,
                    );
                }
                if a.write_bytes > 0 {
                    predicted.insert(
                        (t.name.clone(), a.file.clone(), a.dataset.clone(), false),
                        false,
                    );
                }
            }
        }

        let mut cmp = SdgComparison::default();
        for e in &recorded.edges {
            if e.stats.data_access_count == 0 {
                continue;
            }
            let (from, to) = (&recorded.nodes[e.from], &recorded.nodes[e.to]);
            // Only task↔dataset raw-data edges carry contract semantics.
            let (task, dataset_node, is_read) = match (from.kind, to.kind) {
                (NodeKind::Dataset, NodeKind::Task) => (to, from, true),
                (NodeKind::Task, NodeKind::Dataset) => (from, to, false),
                _ => continue,
            };
            let Some((file, dataset)) = dataset_node.label.split_once(':') else {
                continue;
            };
            // Unattributed raw I/O (global-heap payloads, superblock bytes)
            // carries the File-Metadata pseudo-object: contracts describe
            // dataset footprints, not file plumbing, so — exactly as in the
            // conformance pass — it is out of scope for containment.
            if dataset == dayu_trace::ObjectKey::file_metadata().as_str() {
                continue;
            }
            if !spec_tasks.contains(task.label.as_str()) {
                cmp.mismatched += 1;
                cmp.report.push(Finding::GraphMismatch {
                    from: from.label.clone(),
                    to: to.label.clone(),
                    detail: format!("task {:?} is not in the workflow spec", task.label),
                });
                continue;
            }
            let key = (
                task.label.clone(),
                file.to_owned(),
                dataset.to_owned(),
                is_read,
            );
            match predicted.get_mut(&key) {
                Some(used) => {
                    *used = true;
                    cmp.matched += 1;
                }
                None => {
                    cmp.missing += 1;
                    cmp.report.push(Finding::IncompleteContract {
                        task: task.label.clone(),
                        file: file.to_owned(),
                        dataset: dataset.to_owned(),
                        access: if is_read { "read" } else { "write" }.to_owned(),
                        bytes: e.stats.data_access_volume,
                    });
                }
            }
        }
        cmp.extra = predicted.values().filter(|used| !**used).count();
        cmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dayu_workflow::contract::{AffineExpr, IoContract, SymExtent};
    use dayu_workflow::spec::{TaskSpec, WorkflowSpec};

    /// The `predict --json` document, with and without a comparison.
    #[test]
    fn prediction_json_is_pinned() {
        use crate::cost::{StageCost, TaskCost};
        let cost = CostReport {
            workflow: "wf".into(),
            tasks: vec![TaskCost {
                task: "t".into(),
                stage: 0,
                bytes_read: 8,
                bytes_written: 16,
                ops: 2,
                compute_ns: 1000,
            }],
            stages: vec![StageCost {
                stage: "s0".into(),
                tasks: 1,
                bytes_read: 8,
                bytes_written: 16,
                ops: 2,
                critical_task: "t".into(),
                critical_bytes: 24,
                working_set: 16,
                over_cache: false,
            }],
            total_bytes: 24,
            total_ops: 2,
            critical_path_bytes: 24,
            critical_path: vec!["t".into()],
        };
        let flows = [PredictedFlow {
            producer: "t".into(),
            consumer: "u".into(),
            file: "f.h5".into(),
            dataset: "/d".into(),
            bytes: 16,
        }];
        let live = [LiveRange {
            file: "f.h5".into(),
            dataset: "/d".into(),
            born: 0,
            dies: 1,
            bytes: 16,
        }];
        let mut report = Report::new();
        report.push(Finding::IncompleteContract {
            task: "t".into(),
            file: "f.h5".into(),
            dataset: "/d".into(),
            access: "read".into(),
            bytes: 8,
        });
        let compare = SdgComparison {
            matched: 3,
            missing: 1,
            extra: 1,
            mismatched: 0,
            report,
        };
        assert_eq!(
            prediction_json("wf", &cost, &flows, &live, Some(&compare)),
            r#"{
  "workflow": "wf",
  "cost": {
    "workflow": "wf",
    "tasks": [
      {
        "task": "t",
        "stage": 0,
        "bytes_read": 8,
        "bytes_written": 16,
        "ops": 2,
        "compute_ns": 1000
      }
    ],
    "stages": [
      {
        "stage": "s0",
        "tasks": 1,
        "bytes_read": 8,
        "bytes_written": 16,
        "ops": 2,
        "critical_task": "t",
        "critical_bytes": 24,
        "working_set": 16,
        "over_cache": false
      }
    ],
    "total_bytes": 24,
    "total_ops": 2,
    "critical_path_bytes": 24,
    "critical_path": [
      "t"
    ]
  },
  "flows": [
    {
      "producer": "t",
      "consumer": "u",
      "file": "f.h5",
      "dataset": "/d",
      "bytes": 16
    }
  ],
  "live_ranges": [
    {
      "file": "f.h5",
      "dataset": "/d",
      "born": 0,
      "dies": 1,
      "bytes": 16
    }
  ],
  "compare": {
    "matched": 3,
    "missing": 1,
    "extra": 1,
    "mismatched": 0,
    "precision": 0.75,
    "recall": 0.75,
    "findings": [
      "[incomplete-contract] task \"t\" moved 8 raw B (read) of \"/d\" in \"f.h5\" along an edge its contract never predicts"
    ]
  }
}"#
        );
        let bare = prediction_json("wf", &cost, &[], &[], None);
        assert!(
            bare.ends_with("\n  \"flows\": [],\n  \"live_ranges\": [],\n  \"compare\": null\n}"),
            "{bare}"
        );
    }

    fn chunked_spec() -> WorkflowSpec {
        // Two writers partition /raw by bound affine chunks; a reader
        // consumes the whole dataset in the next stage.
        let i = AffineExpr::var("i");
        let writer = |name: &str, idx: i64| {
            TaskSpec::new(name, |_| Ok(()))
                .with_compute(100)
                .with_contract(IoContract::new().bind("i", idx).writes(
                    "part.h5",
                    "/raw",
                    SymExtent::span(i.clone() * 4096, (i.clone() + 1) * 4096),
                ))
        };
        WorkflowSpec::new("chunks")
            .stage("write", vec![writer("w0", 0), writer("w1", 1)])
            .stage(
                "read",
                vec![TaskSpec::new("r", |_| Ok(()))
                    .with_contract(IoContract::new().reads_all("part.h5", "/raw"))],
            )
    }

    #[test]
    fn bound_extents_resolve_exactly_and_top_inherits_them() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        assert_eq!(p.task("w0").unwrap().bytes_written(), 4096);
        assert_eq!(p.task("w1").unwrap().bytes_written(), 4096);
        // The reader's ⊤ clause resolves to the widest declared hull end.
        assert_eq!(p.task("r").unwrap().bytes_read(), 8192);
        assert!(p.task("r").unwrap().contracted);
    }

    #[test]
    fn unbounded_datasets_cost_the_abstract_unit() {
        let spec = WorkflowSpec::new("tops")
            .stage(
                "w",
                vec![TaskSpec::new("w", |_| Ok(()))
                    .with_contract(IoContract::new().writes_all("f.h5", "/d"))],
            )
            .stage(
                "r",
                vec![TaskSpec::new("r", |_| Ok(()))
                    .with_contract(IoContract::new().reads_all("f.h5", "/d"))],
            );
        let p = StaticPrediction::from_spec(&spec);
        assert_eq!(p.task("w").unwrap().bytes_written(), TOP_FOOTPRINT_BYTES);
        assert_eq!(p.task("r").unwrap().bytes_read(), TOP_FOOTPRINT_BYTES);
    }

    #[test]
    fn sdg_follows_recorded_conventions() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        assert_eq!(p.sdg.kind, GraphKind::Sdg);
        let d = p
            .sdg
            .find(NodeKind::Dataset, "part.h5:/raw")
            .expect("dataset node");
        let r = p.sdg.find(NodeKind::Task, "r").unwrap();
        let w0 = p.sdg.find(NodeKind::Task, "w0").unwrap();
        let f = p.sdg.find(NodeKind::File, "part.h5").unwrap();
        assert!(p
            .sdg
            .edges
            .iter()
            .any(|e| e.from == d.id && e.to == r.id && e.op == Operation::ReadOnly));
        assert!(p
            .sdg
            .edges
            .iter()
            .any(|e| e.from == w0.id && e.to == d.id && e.op == Operation::WriteOnly));
        assert!(p
            .sdg
            .edges
            .iter()
            .any(|e| e.from == d.id && e.to == f.id && e.op == Operation::Structural));
        // Stage indices rode in on the node times.
        assert_eq!(p.sdg.find(NodeKind::Task, "w0").unwrap().start.0, 0);
        assert_eq!(r.start.0, 1);
        // The sFTG collapses the dataset layer.
        assert_eq!(p.ftg.nodes_of(NodeKind::Dataset).count(), 0);
        assert!(p.ftg.find(NodeKind::File, "part.h5").is_some());
    }

    #[test]
    fn flows_cross_stages_and_respect_hull_disjointness() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        // Both writers feed the reader; the writers never feed each other.
        let mut pairs: Vec<(String, String)> = p
            .flows
            .iter()
            .map(|f| (f.producer.clone(), f.consumer.clone()))
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                ("w0".to_owned(), "r".to_owned()),
                ("w1".to_owned(), "r".to_owned())
            ]
        );
        // Flow bytes are the min of the two sides: each writer hands over
        // at most its own chunk.
        assert!(p.flows.iter().all(|f| f.bytes == 4096));

        // A disjoint-hull reader gets no flow.
        let i = AffineExpr::var("i");
        let spec = WorkflowSpec::new("disjoint")
            .stage(
                "w",
                vec![TaskSpec::new("w", |_| Ok(())).with_contract(
                    IoContract::new().bind("i", 0).writes(
                        "f.h5",
                        "/d",
                        SymExtent::span(i.clone() * 100, i.clone() * 100 + 100),
                    ),
                )],
            )
            .stage(
                "r",
                vec![
                    TaskSpec::new("r", |_| Ok(())).with_contract(IoContract::new().reads(
                        "f.h5",
                        "/d",
                        SymExtent::bytes(500, 600),
                    )),
                ],
            );
        assert!(StaticPrediction::from_spec(&spec).flows.is_empty());
    }

    #[test]
    fn live_ranges_span_producer_to_last_reader() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        let lr = p
            .live_ranges
            .iter()
            .find(|l| l.dataset == "/raw")
            .expect("live range");
        assert_eq!((lr.born, lr.dies), (0, 1));
        assert_eq!(lr.bytes, 8192);
    }

    #[test]
    fn sim_dag_mirrors_flows() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        let tasks = p.to_sim_tasks();
        assert_eq!(tasks.len(), 3);
        let r = tasks.iter().find(|t| t.name == "r").unwrap();
        assert_eq!(r.deps.len(), 2, "reader waits for both writers");
        assert_eq!(r.total_io_bytes(), 8192);
        let w0 = tasks.iter().find(|t| t.name == "w0").unwrap();
        assert!(w0.deps.is_empty());
        assert_eq!(w0.total_io_bytes(), 4096);
        assert!(w0.program.iter().any(|op| !op.is_io()), "compute op kept");
    }

    #[test]
    fn compare_matches_a_faithful_recording() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        // A "recording" that is exactly the prediction is sound and
        // fully precise.
        let cmp = p.compare(&p.sdg);
        assert!(cmp.is_sound(), "{:?}", cmp.report);
        assert_eq!(cmp.extra, 0);
        assert_eq!(cmp.recall(), 1.0);
        assert_eq!(cmp.precision(), 1.0);
    }

    #[test]
    fn compare_flags_holes_and_unknown_tasks() {
        let p = StaticPrediction::from_spec(&chunked_spec());
        let mut recorded = p.sdg.clone();
        // An undeclared raw-data write by a known task → hole.
        let t = recorded.node(NodeKind::Task, "w0");
        let d = recorded.node(NodeKind::Dataset, "part.h5:/secret");
        recorded.edge(
            t,
            d,
            Operation::WriteOnly,
            EdgeStats {
                data_access_count: 1,
                data_access_volume: 64,
                ..Default::default()
            },
        );
        // A task the spec never declared → structural mismatch.
        let ghost = recorded.node(NodeKind::Task, "ghost");
        let raw = recorded.node(NodeKind::Dataset, "part.h5:/raw");
        recorded.edge(
            raw,
            ghost,
            Operation::ReadOnly,
            EdgeStats {
                data_access_count: 1,
                data_access_volume: 8,
                ..Default::default()
            },
        );
        // A metadata-only edge never counts either way.
        recorded.edge(
            d,
            recorded.find(NodeKind::Task, "r").unwrap().id,
            Operation::ReadOnly,
            EdgeStats {
                metadata_access_count: 3,
                metadata_access_volume: 96,
                ..Default::default()
            },
        );
        let cmp = p.compare(&recorded);
        assert!(!cmp.is_sound());
        assert_eq!(cmp.missing, 1);
        assert_eq!(cmp.mismatched, 1);
        let cats: Vec<&str> = cmp.report.findings.iter().map(|f| f.category()).collect();
        assert!(cats.contains(&"incomplete-contract"));
        assert!(cats.contains(&"graph-mismatch"));
        assert!(cmp.recall() < 1.0);
    }

    #[test]
    fn uncontracted_tasks_predict_nothing() {
        let spec = WorkflowSpec::new("bare").stage("s", vec![TaskSpec::new("t", |_| Ok(()))]);
        let p = StaticPrediction::from_spec(&spec);
        let t = p.task("t").unwrap();
        assert!(!t.contracted);
        assert!(t.accesses.is_empty());
        assert_eq!(p.sdg.edges.len(), 0);
    }
}
