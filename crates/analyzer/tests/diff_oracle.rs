//! `diff_traces` against a string-keyed oracle: a plain copy of the
//! comparison that copies every record into an owned event and groups the
//! events by task name. `diff_traces` groups interned records and builds
//! events only for the first divergent pair; on seeded trace pairs (task
//! orders with repeats and gaps, stragglers that only records name, tasks
//! interleaved in record order, edited, dropped, repeated and retimed
//! records) both must give the same diff.

use dayu_analyzer::{diff_traces, BundleDiff, DiffEvent};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::rng::{cases, ChaosRng};
use dayu_trace::time::Timestamp;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use dayu_trace::TraceBundle;
use std::collections::BTreeMap;

/// Names whose byte order differs from any order a generator draws them
/// in, so straggler sorting shows.
const TASKS: [&str; 7] = ["t2", "alpha", "Zed", "t10", "m", "t1", "beta"];
const FILES: [&str; 2] = ["a.h5", "b.h5"];
const OBJECTS: [&str; 2] = ["/d", "File-Metadata"];
const KINDS: [IoKind; 6] = [
    IoKind::Read,
    IoKind::Write,
    IoKind::Open,
    IoKind::Close,
    IoKind::Flush,
    IoKind::Truncate,
];

fn pick<'a, T>(rng: &mut ChaosRng, from: &'a [T]) -> &'a T {
    &from[rng.range(0, from.len() as u64) as usize]
}

fn record(rng: &mut ChaosRng) -> VfdRecord {
    let at = rng.range(0, 1_000);
    VfdRecord {
        task: TaskKey::new(pick(rng, &TASKS)),
        file: FileKey::new(pick(rng, &FILES)),
        kind: *pick(rng, &KINDS),
        offset: rng.range(0, 3) * 512,
        len: rng.range(0, 3) * 64,
        access: if rng.chance(0.5) {
            AccessType::RawData
        } else {
            AccessType::Metadata
        },
        object: ObjectKey::new(pick(rng, &OBJECTS)),
        start: Timestamp(at),
        end: Timestamp(at + rng.range(0, 10)),
    }
}

/// A trace whose task order lists some tasks, now and then one twice, and
/// whose records also name tasks the order leaves out.
fn trace(rng: &mut ChaosRng) -> TraceBundle {
    let mut b = TraceBundle::new("wf");
    for _ in 0..rng.range(0, 5) {
        b.meta.task_order.push(TaskKey::new(pick(rng, &TASKS)));
    }
    b.vfd = (0..rng.range(0, 30)).map(|_| record(rng)).collect();
    b
}

/// Run B: run A with a few edits, or now and then a trace of its own.
fn perturbed(rng: &mut ChaosRng, a: &TraceBundle) -> TraceBundle {
    if rng.chance(0.1) {
        return trace(rng);
    }
    let mut b = a.clone();
    for _ in 0..rng.range(0, 4) {
        let n = b.vfd.len() as u64;
        let at = if n == 0 { 0 } else { rng.range(0, n) as usize };
        match rng.range(0, 9) {
            0 if n > 0 => {
                b.vfd.remove(at);
            }
            1 if n > 0 => {
                let copy = b.vfd[at].clone();
                b.vfd.insert(at, copy);
            }
            2 => b.vfd.insert(at, record(rng)),
            3 if n > 0 => b.vfd[at].offset += 512,
            4 if n > 0 => b.vfd[at].object = ObjectKey::new(pick(rng, &OBJECTS)),
            5 if n > 0 => b.vfd[at].start = Timestamp(rng.range(0, 1_000)),
            6 => b.meta.task_order.push(TaskKey::new(pick(rng, &TASKS))),
            7 if !b.meta.task_order.is_empty() => {
                b.meta.task_order.pop();
            }
            8 if n > 0 => b.vfd[at].task = TaskKey::new(pick(rng, &TASKS)),
            _ => {}
        }
    }
    if rng.chance(0.1) {
        b.meta.workflow = "other".into();
    }
    b
}

fn event(r: &VfdRecord) -> DiffEvent {
    DiffEvent {
        file: r.file.as_str().to_owned(),
        kind: r.kind,
        offset: r.offset,
        len: r.len,
        access: r.access,
        object: r.object.as_str().to_owned(),
    }
}

fn streams(b: &TraceBundle) -> BTreeMap<String, Vec<DiffEvent>> {
    let mut out: BTreeMap<String, Vec<DiffEvent>> = BTreeMap::new();
    for t in &b.meta.task_order {
        out.entry(t.as_str().to_owned()).or_default();
    }
    for r in &b.vfd {
        out.entry(r.task.as_str().to_owned())
            .or_default()
            .push(event(r));
    }
    out
}

fn detail(task: &str, i: usize, a: Option<&DiffEvent>, b: Option<&DiffEvent>) -> String {
    match (a, b) {
        (Some(x), Some(y)) => {
            format!("task \"{task}\" event {i}: run A performed {x}, run B performed {y}")
        }
        (Some(x), None) => {
            format!("task \"{task}\" event {i}: run B's stream ended; run A continues with {x}")
        }
        (None, Some(y)) => {
            format!("task \"{task}\" event {i}: run A's stream ended; run B continues with {y}")
        }
        (None, None) => unreachable!(),
    }
}

/// The diff the oracle finds, the first divergence's ancestors aside (the
/// same SDG walk computes them on both sides).
fn oracle(a: &TraceBundle, b: &TraceBundle) -> BundleDiff {
    let (sa, sb) = (streams(a), streams(b));
    let mut order: Vec<String> = a
        .meta
        .task_order
        .iter()
        .map(|t| t.as_str().to_owned())
        .collect();
    for t in sa.keys() {
        if !order.contains(t) {
            order.push(t.clone());
        }
    }
    for t in b
        .meta
        .task_order
        .iter()
        .map(|t| t.as_str().to_owned())
        .chain(sb.keys().cloned())
    {
        if !order.contains(&t) {
            order.push(t);
        }
    }
    let mut diff = BundleDiff {
        workload_a: a.meta.workflow.clone(),
        workload_b: b.meta.workflow.clone(),
        ..BundleDiff::default()
    };
    let empty = Vec::new();
    for task in &order {
        match (sa.get(task), sb.get(task)) {
            (Some(_), None) => diff.only_in_a.push(task.clone()),
            (None, Some(_)) => diff.only_in_b.push(task.clone()),
            _ => {}
        }
        let x = sa.get(task).unwrap_or(&empty);
        let y = sb.get(task).unwrap_or(&empty);
        let Some(i) = (0..x.len().max(y.len())).find(|&i| x.get(i) != y.get(i)) else {
            continue;
        };
        diff.diverged_tasks.push(task.clone());
        if diff.first.is_none() {
            diff.first = Some(dayu_analyzer::FirstDivergence {
                task: task.clone(),
                event_index: i,
                a: x.get(i).cloned(),
                b: y.get(i).cloned(),
                detail: detail(task, i, x.get(i), y.get(i)),
                ancestors: Default::default(),
            });
        }
    }
    diff
}

#[test]
fn diff_traces_matches_the_string_keyed_oracle() {
    let mut diverged = 0;
    cases("diff_traces_matches_the_string_keyed_oracle", 400, |rng| {
        let a = trace(rng);
        let b = perturbed(rng, &a);
        let mut got = diff_traces(&a, &b);
        if let Some(first) = &mut got.first {
            first.ancestors = Default::default();
            diverged += 1;
        }
        assert_eq!(got, oracle(&a, &b));
    });
    // The generator reaches both verdicts often.
    assert!((100..350).contains(&diverged), "{diverged} of 400 diverged");
}
