//! Cross-run divergence diffing.
//!
//! Two recordings of the same workload under the same seeds should produce
//! identical operation streams; when they do not, the *first* divergent
//! event is the root symptom and everything after it is fallout. This
//! module finds that event by element-wise comparison of the per-task VFD
//! streams (timestamps excluded — wall-clock jitter is not a divergence),
//! then walks the reference run's Semantic Dataflow Graph backward from
//! the divergent task to name the causal ancestor set: the upstream
//! tasks, datasets and files whose state could have steered the task off
//! the recorded path. The result surfaces as
//! [`Finding::ReplayDivergence`], which the advisor maps to an
//! investigate-divergence action.

use crate::build::{build_sdg, SdgOptions};
use crate::detect::Finding;
use crate::graph::{Graph, NodeKind, Operation};
use dayu_trace::ids::TaskKey;
use dayu_trace::intern::{SymbolMap, SymbolSet};
use dayu_trace::store::TraceBundle;
use dayu_trace::to_json;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// One operation in a diffable form: everything a [`VfdRecord`] carries
/// except its timestamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffEvent {
    /// File the operation targeted.
    pub file: String,
    /// Operation kind.
    pub kind: IoKind,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
    /// Raw data vs metadata.
    pub access: AccessType,
    /// Dataset / object path the op was attributed to.
    pub object: String,
}

to_json!(DiffEvent {
    file,
    kind,
    offset,
    len,
    access,
    object
});

impl DiffEvent {
    fn of(r: &VfdRecord) -> Self {
        Self {
            file: r.file.as_str().to_owned(),
            kind: r.kind,
            offset: r.offset,
            len: r.len,
            access: r.access,
            object: r.object.as_str().to_owned(),
        }
    }
}

impl fmt::Display for DiffEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}:{} [{}, {}) ({:?})",
            self.kind,
            self.file,
            self.object,
            self.offset,
            self.offset + self.len,
            self.access
        )
    }
}

/// The upstream state that could have steered a task off the recorded
/// path: everything reachable backward through the reference run's SDG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CausalAncestors {
    /// Upstream tasks (producers of the task's inputs, transitively).
    pub tasks: Vec<String>,
    /// Datasets on the backward path (`file:path` labels).
    pub datasets: Vec<String>,
    /// Files containing those datasets.
    pub files: Vec<String>,
}

to_json!(CausalAncestors {
    tasks,
    datasets,
    files
});

impl CausalAncestors {
    /// Whether the walk found nothing upstream (a source task diverged).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty() && self.datasets.is_empty() && self.files.is_empty()
    }
}

/// The first point where two recordings disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FirstDivergence {
    /// Task whose stream diverges first (in run A's task order).
    pub task: String,
    /// Index of the divergent event within that task's stream.
    pub event_index: usize,
    /// Run A's event at that index (`None`: A's stream ended early).
    pub a: Option<DiffEvent>,
    /// Run B's event at that index (`None`: B's stream ended early).
    pub b: Option<DiffEvent>,
    /// Human-readable account of the disagreement.
    pub detail: String,
    /// Backward SDG walk from the divergent task over run A.
    pub ancestors: CausalAncestors,
}

to_json!(FirstDivergence {
    task,
    event_index,
    a,
    b,
    detail,
    ancestors
});

/// The complete comparison of two recordings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BundleDiff {
    /// Workload named by run A.
    pub workload_a: String,
    /// Workload named by run B.
    pub workload_b: String,
    /// First divergent event, if the runs disagree anywhere.
    pub first: Option<FirstDivergence>,
    /// Every task whose stream differs (first-divergent task included).
    pub diverged_tasks: Vec<String>,
    /// Tasks recorded only by run A.
    pub only_in_a: Vec<String>,
    /// Tasks recorded only by run B.
    pub only_in_b: Vec<String>,
}

// The `dayu-analyze diff --json` document.
to_json!(BundleDiff {
    workload_a,
    workload_b,
    first,
    diverged_tasks,
    only_in_a,
    only_in_b
});

impl BundleDiff {
    /// Whether the two runs are operationally identical.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
            && self.diverged_tasks.is_empty()
            && self.only_in_a.is_empty()
            && self.only_in_b.is_empty()
    }

    /// The finding this diff surfaces, if any — feed it to the advisor.
    pub fn finding(&self) -> Option<Finding> {
        let first = self.first.as_ref()?;
        Some(Finding::ReplayDivergence {
            task: first.task.clone(),
            event_index: first.event_index,
            expected: first
                .a
                .as_ref()
                .map_or_else(|| "<end of stream>".to_owned(), |e| e.to_string()),
            actual: first
                .b
                .as_ref()
                .map_or_else(|| "<end of stream>".to_owned(), |e| e.to_string()),
            ancestor_tasks: first.ancestors.tasks.clone(),
            ancestor_datasets: first.ancestors.datasets.clone(),
        })
    }
}

/// Diffs two recordings of (nominally) the same workload. Run A is the
/// reference: task order and the causal SDG walk come from it.
///
/// One pass over each trace groups its VFD records by task; the streams
/// then compare record by record on their interned keys, and only the
/// first divergent pair becomes [`DiffEvent`]s.
pub fn diff_traces(a: &TraceBundle, b: &TraceBundle) -> BundleDiff {
    let streams_a = per_task(a);
    let streams_b = per_task(b);

    // Run A's task order first, then the tasks only A's records name (by
    // name), then B's task order, then the tasks only B's records name.
    let mut order: Vec<&TaskKey> = a.meta.task_order.iter().collect();
    let mut listed: SymbolSet<&TaskKey> = order.iter().copied().collect();
    push_stragglers(&streams_a, &mut order, &mut listed);
    for t in &b.meta.task_order {
        if listed.insert(t) {
            order.push(t);
        }
    }
    push_stragglers(&streams_b, &mut order, &mut listed);

    let mut diff = BundleDiff {
        workload_a: a.meta.workflow.clone(),
        workload_b: b.meta.workflow.clone(),
        ..BundleDiff::default()
    };
    for task in order {
        let (sa, sb) = (streams_a.get(task), streams_b.get(task));
        match (sa, sb) {
            (Some(_), None) => diff.only_in_a.push(task.as_str().to_owned()),
            (None, Some(_)) => diff.only_in_b.push(task.as_str().to_owned()),
            _ => {}
        }
        let (sa, sb) = (
            sa.map_or(&[][..], Vec::as_slice),
            sb.map_or(&[][..], Vec::as_slice),
        );
        let Some(index) = first_mismatch(sa, sb) else {
            continue;
        };
        diff.diverged_tasks.push(task.as_str().to_owned());
        if diff.first.is_none() {
            let ea = sa.get(index).map(|r| DiffEvent::of(r));
            let eb = sb.get(index).map(|r| DiffEvent::of(r));
            diff.first = Some(FirstDivergence {
                task: task.as_str().to_owned(),
                event_index: index,
                detail: describe(task.as_str(), index, ea.as_ref(), eb.as_ref()),
                a: ea,
                b: eb,
                ancestors: causal_ancestors(a, task.as_str()),
            });
        }
    }
    diff
}

/// Splits a trace into per-task record streams, preserving record order;
/// every task of the trace's task order has a stream, empty or not.
fn per_task(bundle: &TraceBundle) -> SymbolMap<&TaskKey, Vec<&VfdRecord>> {
    let mut out: SymbolMap<&TaskKey, Vec<&VfdRecord>> = SymbolMap::default();
    for t in &bundle.meta.task_order {
        out.entry(t).or_default();
    }
    for r in &bundle.vfd {
        out.entry(&r.task).or_default().push(r);
    }
    out
}

/// Appends, sorted by name, the tasks of `streams` not yet `listed`.
fn push_stragglers<'a>(
    streams: &SymbolMap<&'a TaskKey, Vec<&VfdRecord>>,
    order: &mut Vec<&'a TaskKey>,
    listed: &mut SymbolSet<&'a TaskKey>,
) {
    let mut rest: Vec<&TaskKey> = streams
        .keys()
        .copied()
        .filter(|t| !listed.contains(t))
        .collect();
    rest.sort_unstable();
    listed.extend(rest.iter().copied());
    order.extend(rest);
}

/// Whether two records are the same operation, timestamps aside. The
/// task is not compared: both come from one task's stream.
fn same_op(x: &VfdRecord, y: &VfdRecord) -> bool {
    x.file == y.file
        && x.kind == y.kind
        && x.offset == y.offset
        && x.len == y.len
        && x.access == y.access
        && x.object == y.object
}

/// First index where the streams disagree, a stream's end included.
fn first_mismatch(a: &[&VfdRecord], b: &[&VfdRecord]) -> Option<usize> {
    let n = a.len().min(b.len());
    (0..n)
        .find(|&i| !same_op(a[i], b[i]))
        .or((a.len() != b.len()).then_some(n))
}

fn describe(task: &str, index: usize, a: Option<&DiffEvent>, b: Option<&DiffEvent>) -> String {
    match (a, b) {
        (Some(x), Some(y)) => {
            format!("task \"{task}\" event {index}: run A performed {x}, run B performed {y}")
        }
        (Some(x), None) => {
            format!("task \"{task}\" event {index}: run B's stream ended; run A continues with {x}")
        }
        (None, Some(y)) => {
            format!("task \"{task}\" event {index}: run A's stream ended; run B continues with {y}")
        }
        (None, None) => unreachable!("no mismatch without at least one event"),
    }
}

/// Walks the reference run's SDG backward from `task`, collecting every
/// upstream task, dataset, and file whose state feeds into it. Structural
/// dataset→file edges are followed to attribute containment; region
/// nodes are skipped (their datasets already appear on the path).
fn causal_ancestors(reference: &TraceBundle, task: &str) -> CausalAncestors {
    let sdg = build_sdg(reference, &SdgOptions::default());
    let Some(start) = sdg.find(NodeKind::Task, task) else {
        return CausalAncestors::default();
    };
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    seen.insert(start.id);
    queue.push_back(start.id);
    let mut out = CausalAncestors::default();
    while let Some(id) = queue.pop_front() {
        for e in sdg.in_edges(id) {
            // Backward over dataflow edges only: writer→dataset and
            // dataset→reader. Structural edges point dataset→file, so
            // files are collected forward from datasets below.
            if e.op == Operation::Structural {
                continue;
            }
            if seen.insert(e.from) {
                queue.push_back(e.from);
                visit(&sdg, e.from, &mut out, &mut seen);
            }
        }
    }
    out.tasks.retain(|t| t != task);
    out
}

/// Records one ancestor node, resolving a dataset's containing file.
fn visit(sdg: &Graph, id: usize, out: &mut CausalAncestors, seen: &mut HashSet<usize>) {
    let n = &sdg.nodes[id];
    match n.kind {
        NodeKind::Task => out.tasks.push(n.label.clone()),
        NodeKind::Dataset => {
            out.datasets.push(n.label.clone());
            for e in sdg.out_edges(id) {
                let to = &sdg.nodes[e.to];
                if e.op == Operation::Structural
                    && to.kind == NodeKind::File
                    && seen.insert(to.id)
                    && !out.files.contains(&to.label)
                {
                    out.files.push(to.label.clone());
                }
            }
        }
        NodeKind::File => {
            if !out.files.contains(&n.label) {
                out.files.push(n.label.clone());
            }
        }
        NodeKind::AddrRegion => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::dataset_label;
    use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
    use dayu_trace::time::Timestamp;

    fn rec(task: &str, file: &str, kind: IoKind, offset: u64, len: u64, at: u64) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new(task),
            file: FileKey::new(file),
            kind,
            offset,
            len,
            access: AccessType::RawData,
            object: ObjectKey::new("/d"),
            start: Timestamp(at),
            end: Timestamp(at + 1),
        }
    }

    fn chain() -> TraceBundle {
        // producer writes shared.h5, consumer reads it and writes out.h5,
        // sink reads out.h5 — a three-task causal chain.
        let mut b = TraceBundle::new("wf");
        b.push_task(TaskKey::new("producer"));
        b.push_task(TaskKey::new("consumer"));
        b.push_task(TaskKey::new("sink"));
        b.vfd = vec![
            rec("producer", "shared.h5", IoKind::Write, 0, 100, 0),
            rec("consumer", "shared.h5", IoKind::Read, 0, 100, 10),
            rec("consumer", "out.h5", IoKind::Write, 0, 50, 11),
            rec("sink", "out.h5", IoKind::Read, 0, 50, 20),
        ];
        b
    }

    /// The `diff --json` document.
    #[test]
    fn diff_json_is_pinned() {
        let d = BundleDiff {
            workload_a: "ddmd".into(),
            workload_b: "ddmd".into(),
            first: Some(FirstDivergence {
                task: "sink".into(),
                event_index: 1,
                a: Some(DiffEvent {
                    file: "out.h5".into(),
                    kind: IoKind::Read,
                    offset: 0,
                    len: 50,
                    access: AccessType::RawData,
                    object: "/d".into(),
                }),
                b: None,
                detail: "run B's stream ended".into(),
                ancestors: CausalAncestors {
                    tasks: vec!["consumer".into()],
                    datasets: vec!["out.h5:/d".into()],
                    files: vec!["out.h5".into()],
                },
            }),
            diverged_tasks: vec!["sink".into()],
            only_in_a: vec![],
            only_in_b: vec!["extra".into()],
        };
        assert_eq!(
            dayu_trace::json::to_string_pretty(&d),
            r#"{
  "workload_a": "ddmd",
  "workload_b": "ddmd",
  "first": {
    "task": "sink",
    "event_index": 1,
    "a": {
      "file": "out.h5",
      "kind": "Read",
      "offset": 0,
      "len": 50,
      "access": "RawData",
      "object": "/d"
    },
    "b": null,
    "detail": "run B's stream ended",
    "ancestors": {
      "tasks": [
        "consumer"
      ],
      "datasets": [
        "out.h5:/d"
      ],
      "files": [
        "out.h5"
      ]
    }
  },
  "diverged_tasks": [
    "sink"
  ],
  "only_in_a": [],
  "only_in_b": [
    "extra"
  ]
}"#
        );
        assert_eq!(
            dayu_trace::json::to_string(&BundleDiff::default()),
            r#"{"workload_a":"","workload_b":"","first":null,"diverged_tasks":[],"only_in_a":[],"only_in_b":[]}"#
        );
    }

    #[test]
    fn identical_traces_diff_empty() {
        let a = chain();
        let d = diff_traces(&a, &a);
        assert!(d.is_empty(), "{d:?}");
        assert!(d.finding().is_none());
    }

    #[test]
    fn timestamps_are_not_divergences() {
        let a = chain();
        let mut b = chain();
        for r in &mut b.vfd {
            r.start = Timestamp(r.start.0 + 1000);
            r.end = Timestamp(r.end.0 + 1000);
        }
        assert!(diff_traces(&a, &b).is_empty());
    }

    #[test]
    fn every_compared_field_diverges() {
        type Edit = fn(&mut VfdRecord);
        let edits: [(&str, Edit); 6] = [
            ("file", |r| r.file = FileKey::new("other.h5")),
            ("kind", |r| r.kind = IoKind::Read),
            ("offset", |r| r.offset += 1),
            ("len", |r| r.len += 1),
            ("access", |r| r.access = AccessType::Metadata),
            ("object", |r| r.object = ObjectKey::new("/e")),
        ];
        let a = chain();
        for (field, edit) in edits {
            let mut b = chain();
            edit(&mut b.vfd[0]);
            let first = diff_traces(&a, &b).first.expect(field);
            assert_eq!(first.task, "producer", "{field}");
            assert_eq!(first.event_index, 0, "{field}");
            assert_eq!(first.a, Some(DiffEvent::of(&a.vfd[0])), "{field}");
            assert_eq!(first.b, Some(DiffEvent::of(&b.vfd[0])), "{field}");
        }
    }

    #[test]
    fn first_divergence_is_earliest_in_task_order() {
        let a = chain();
        let mut b = chain();
        // Perturb both the consumer's write and the sink's read; the
        // consumer comes first in task order.
        b.vfd[2].len = 60;
        b.vfd[3].offset = 8;
        let d = diff_traces(&a, &b);
        let first = d.first.expect("must diverge");
        assert_eq!(first.task, "consumer");
        assert_eq!(first.event_index, 1, "consumer's second event differs");
        assert_eq!(first.a.as_ref().unwrap().len, 50);
        assert_eq!(first.b.as_ref().unwrap().len, 60);
        assert!(first.detail.contains("consumer"));
        assert_eq!(d.diverged_tasks, vec!["consumer", "sink"]);
    }

    #[test]
    fn causal_ancestors_walk_the_sdg_backward() {
        let a = chain();
        let mut b = chain();
        b.vfd[3].len = 1; // sink diverges
        let d = diff_traces(&a, &b);
        let first = d.first.unwrap();
        assert_eq!(first.task, "sink");
        // sink ← out.h5:/d ← consumer ← shared.h5:/d ← producer
        assert_eq!(first.ancestors.tasks, vec!["consumer", "producer"]);
        assert!(first
            .ancestors
            .datasets
            .contains(&dataset_label("out.h5", "/d")));
        assert!(first
            .ancestors
            .datasets
            .contains(&dataset_label("shared.h5", "/d")));
        assert!(first.ancestors.files.contains(&"out.h5".to_owned()));
        assert!(first.ancestors.files.contains(&"shared.h5".to_owned()));
    }

    #[test]
    fn source_task_divergence_has_no_ancestors() {
        let a = chain();
        let mut b = chain();
        b.vfd[0].offset = 4096;
        let d = diff_traces(&a, &b);
        let first = d.first.unwrap();
        assert_eq!(first.task, "producer");
        assert!(first.ancestors.is_empty(), "{:?}", first.ancestors);
    }

    #[test]
    fn stream_length_mismatch_reports_end_of_stream() {
        let a = chain();
        let mut b = chain();
        b.vfd.truncate(3); // sink never ran its read
        let d = diff_traces(&a, &b);
        let first = d.first.as_ref().unwrap();
        assert_eq!(first.task, "sink");
        assert_eq!(first.event_index, 0);
        assert!(first.a.is_some());
        assert!(first.b.is_none());
        assert!(first.detail.contains("ended"));
        let f = d.finding().unwrap();
        match &f {
            Finding::ReplayDivergence { actual, .. } => {
                assert_eq!(actual, "<end of stream>");
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }

    #[test]
    fn task_missing_from_one_run_is_reported() {
        let a = chain();
        let mut b = chain();
        b.meta.task_order.retain(|t| t.as_str() != "sink");
        b.vfd.retain(|r| r.task.as_str() != "sink");
        let d = diff_traces(&a, &b);
        assert_eq!(d.only_in_a, vec!["sink"]);
        assert!(d.only_in_b.is_empty());
        // The stream comparison still flags it: A has events, B has none.
        assert!(d.diverged_tasks.contains(&"sink".to_owned()));
    }

    #[test]
    fn finding_names_task_and_ancestors() {
        let a = chain();
        let mut b = chain();
        b.vfd[3].len = 7;
        let f: Vec<Finding> = diff_traces(&a, &b).finding().into_iter().collect();
        assert_eq!(f.len(), 1);
        match &f[0] {
            Finding::ReplayDivergence {
                task,
                event_index,
                ancestor_tasks,
                ..
            } => {
                assert_eq!(task, "sink");
                assert_eq!(*event_index, 0);
                assert_eq!(ancestor_tasks, &["consumer", "producer"]);
            }
            other => panic!("unexpected finding {other:?}"),
        }
        assert_eq!(f[0].category(), "replay-divergence");
    }
}
