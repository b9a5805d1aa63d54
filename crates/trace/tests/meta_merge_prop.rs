//! Concatenated trace sections merge their metadata by one rule, whichever
//! path joins them: `TraceBundle::load` of the concatenated `.dtb`
//! sections, and a fold of `TraceBundle::merge`. Each case draws 1–4
//! section metas whose task orders overlap, repeat a task (the first
//! order included), name tasks no other meta names or are empty, whose
//! degraded and recovered sets are unsorted with repeats, and whose stages
//! and origin are set in some metas and empty in others. A later meta may
//! repeat an earlier one, or a prefix of its order, as every section
//! `TraceBundle::split_per_task` cuts repeats the bundle's meta. The
//! merged meta must equal [`expected`], a test-local statement of the
//! rule.

use dayu_trace::ids::TaskKey;
use dayu_trace::rng::{cases, ChaosRng};
use dayu_trace::{TraceBundle, TraceMeta, TraceOrigin};

const POOL: [&str; 5] = ["prep", "sim", "agg", "train", "infer"];

/// 0–4 tasks of [`POOL`], in any order, repeats allowed.
fn arb_tasks(rng: &mut ChaosRng) -> Vec<TaskKey> {
    (0..rng.range(0, 5))
        .map(|_| TaskKey::new(POOL[rng.range(0, POOL.len() as u64) as usize]))
        .collect()
}

/// The meta of the section after `earlier`: sometimes a copy of an
/// earlier meta, whole or with its order cut to a prefix.
fn arb_meta(rng: &mut ChaosRng, earlier: &[TraceMeta]) -> TraceMeta {
    if !earlier.is_empty() && rng.chance(0.4) {
        let mut m = earlier[rng.range(0, earlier.len() as u64) as usize].clone();
        if rng.chance(0.5) {
            let keep = rng.range(0, m.task_order.len() as u64 + 1) as usize;
            m.task_order.truncate(keep);
        }
        return m;
    }
    let i = earlier.len();
    let mut task_order = arb_tasks(rng);
    if rng.chance(0.3) {
        task_order.push(TaskKey::new(format!("only_{i}")));
    }
    if !task_order.is_empty() && rng.chance(0.3) {
        let again = task_order[rng.range(0, task_order.len() as u64) as usize].clone();
        task_order.push(again);
    }
    TraceMeta {
        workflow: format!("wf{}", rng.range(0, 3)),
        task_order,
        page_size: rng.range(0, 1 << 16),
        degraded_tasks: arb_tasks(rng),
        recovered_tasks: arb_tasks(rng),
        stages: if rng.chance(0.5) {
            (0..rng.range(1, 4)).map(|_| arb_tasks(rng)).collect()
        } else {
            Vec::new()
        },
        origin: rng.chance(0.5).then(|| TraceOrigin {
            workload: format!("w{}", rng.range(0, 3)),
            params: "default".into(),
            tool_version: "0.1.0".into(),
        }),
    }
}

/// The merge rule: the first meta's workflow, page size and task order
/// (repeats included) stand; each later order appends the tasks it names
/// that are not yet present, in order; degraded and recovered sets are the
/// sorted union of every meta's, without repeats; stages and origin take
/// the first non-empty value.
fn expected(metas: &[TraceMeta]) -> TraceMeta {
    let (first, later) = metas.split_first().expect("at least one meta");
    let mut out = first.clone();
    for m in later {
        for t in &m.task_order {
            if !out.task_order.contains(t) {
                out.task_order.push(t.clone());
            }
        }
        if out.stages.is_empty() {
            out.stages = m.stages.clone();
        }
        if out.origin.is_none() {
            out.origin = m.origin.clone();
        }
    }
    let union = |set: fn(&TraceMeta) -> &Vec<TaskKey>| {
        let mut all: Vec<TaskKey> = metas.iter().flat_map(set).cloned().collect();
        all.sort();
        all.dedup();
        all
    };
    out.degraded_tasks = union(|m| &m.degraded_tasks);
    out.recovered_tasks = union(|m| &m.recovered_tasks);
    out
}

#[test]
fn every_join_merges_meta_by_one_rule() {
    cases("every_join_merges_meta_by_one_rule", 512, |rng| {
        let mut metas = Vec::new();
        for _ in 0..rng.range(1, 5) {
            let meta = arb_meta(rng, &metas);
            metas.push(meta);
        }
        let want = expected(&metas);
        let sections: Vec<TraceBundle> = metas
            .iter()
            .map(|meta| TraceBundle {
                meta: meta.clone(),
                ..Default::default()
            })
            .collect();

        let dtb: Vec<u8> = sections.iter().flat_map(|s| s.to_binary_bytes()).collect();
        assert_eq!(TraceBundle::load(&dtb[..]).unwrap().meta, want, ".dtb");

        // The fold's accumulator holds its sets sorted, as every bundle
        // built by a read or by `mark_degraded`/`mark_recovered` does.
        let (first, later) = sections.split_first().unwrap();
        let mut acc = TraceBundle {
            meta: TraceMeta {
                degraded_tasks: Vec::new(),
                recovered_tasks: Vec::new(),
                ..first.meta.clone()
            },
            ..Default::default()
        };
        for t in &first.meta.degraded_tasks {
            acc.mark_degraded(t.clone());
        }
        for t in &first.meta.recovered_tasks {
            acc.mark_recovered(t.clone());
        }
        for s in later {
            acc.merge(s.clone());
        }
        assert_eq!(acc.meta, want, "TraceBundle::merge");
    });
}
