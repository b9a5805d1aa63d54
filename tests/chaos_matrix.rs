//! Chaos matrix: sweep seeded fault schedules over the paper's workloads
//! and hold the fault-tolerance contract:
//!
//! * `record_opts` never panics — every task either succeeds (possibly
//!   after retries) or contributes a salvaged, `degraded`-marked fragment;
//! * the analyzer and advisor consume whatever survived without panicking,
//!   and a degraded bundle is flagged by the degraded-trace detector;
//! * a degraded run's FTG is a *subset* of the clean run's (salvage never
//!   invents dataflow);
//! * every bundle, degraded or not, round-trips through `.dtb`;
//! * a fixed chaos seed reproduces the run bit-for-bit.

use dayu::prelude::*;
use dayu_core::workloads::{arldm, ddmd, pyflextrkr};
use std::collections::BTreeSet;

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
        other => panic!("unknown workload {other}"),
    };
    (spec, fs)
}

const WORKLOADS: [&str; 3] = ["ddmd", "pyflextrkr", "arldm"];

/// The fault shapes the matrix sweeps, all derived from one seed.
fn schedules(seed: u64) -> Vec<FaultSchedule> {
    vec![
        // One transient hiccup early, plus occasional injected latency.
        FaultSchedule::new(seed)
            .with_transient_at(3)
            .with_latency(0.05, 1_000),
        // The device dies a few payload ops in and stays dead.
        FaultSchedule::new(seed).with_dead_at(6),
        // Random faults; sticky, so an unlucky task is lost for good.
        FaultSchedule::new(seed).with_fault_prob(0.02).sticky(),
    ]
}

/// FTG edges as order-independent `kind:label -> kind:label` strings.
fn edge_labels(g: &Graph) -> BTreeSet<String> {
    g.edges
        .iter()
        .map(|e| {
            let (f, t) = (&g.nodes[e.from], &g.nodes[e.to]);
            format!("{:?}:{} -> {:?}:{}", f.kind, f.label, t.kind, t.label)
        })
        .collect()
}

#[test]
fn chaos_matrix_never_panics_and_degrades_to_subsets() {
    for name in WORKLOADS {
        let (spec, fs) = workload(name);
        let clean = record(&spec, &fs).expect("clean run");
        let clean_edges = edge_labels(&Analysis::run(&clean.bundle).ftg);

        for seed in [11, 2026, 0xDA1E] {
            for (i, schedule) in schedules(seed).into_iter().enumerate() {
                let (spec, fs) = workload(name);
                let opts = RecordOptions {
                    retry: RetryPolicy::default().with_backoff(1_000, 10_000),
                    chaos: Some(schedule),
                    ..Default::default()
                };
                let run = record_opts(&spec, &fs, &opts)
                    .unwrap_or_else(|e| panic!("{name}/seed {seed}/schedule {i}: {e}"));

                // Per-task contract: success or salvaged fragment.
                for o in &run.outcomes {
                    assert!(
                        o.succeeded() || o.degraded,
                        "{name}/seed {seed}/schedule {i}: task {} neither \
                         succeeded nor salvaged: {o:?}",
                        o.task
                    );
                }

                // Analyzer and advisor accept whatever survived.
                let analysis = Analysis::run(&run.bundle);
                let _ = advise(&analysis.findings);
                if run.degraded() {
                    assert!(
                        analysis
                            .findings
                            .iter()
                            .any(|f| f.category() == "degraded-trace"),
                        "{name}/seed {seed}/schedule {i}: degraded run not flagged"
                    );
                }

                // Salvage never invents dataflow the clean run lacks.
                let edges = edge_labels(&analysis.ftg);
                assert!(
                    edges.is_subset(&clean_edges),
                    "{name}/seed {seed}/schedule {i}: extra edges {:?}",
                    edges.difference(&clean_edges).collect::<Vec<_>>()
                );

                // Degraded or not, the bundle round-trips through `.dtb`.
                let bytes = run.bundle.to_binary_bytes();
                assert_eq!(TraceBundle::load(&bytes[..]).unwrap(), run.bundle);
            }
        }
    }
}

#[test]
fn fixed_seed_chaos_is_fully_deterministic() {
    // A virtual clock removes wall-time from the bundle; the chaos seed is
    // then the only remaining source of variation, so two runs must match
    // bit-for-bit — outcomes, attempt counts, and salvaged fragments alike.
    let run = |schedule: FaultSchedule| {
        let (spec, fs) = workload("ddmd");
        let opts = RecordOptions {
            retry: RetryPolicy::default().with_backoff(0, 0),
            chaos: Some(schedule),
            manual_clock: true,
            ..Default::default()
        };
        record_opts(&spec, &fs, &opts).expect("salvage mode never errors")
    };

    // Probabilistic faults: the per-task RNG streams derive from the seed.
    let prob = |seed| FaultSchedule::new(seed).with_fault_prob(0.05).sticky();
    let a = run(prob(7));
    let b = run(prob(7));
    assert_eq!(a.outcomes, b.outcomes, "same seed, same per-task fate");
    assert_eq!(a.bundle, b.bundle, "same seed, identical bundle");

    // Guaranteed degradation: every task dies at its first payload op, so
    // the salvaged bundles (not just the outcomes) must also reproduce.
    let c = run(FaultSchedule::new(7).with_dead_at(0));
    let d = run(FaultSchedule::new(7).with_dead_at(0));
    assert!(c.degraded(), "dead-at-0 must lose tasks");
    assert_eq!(c.outcomes, d.outcomes);
    assert_eq!(c.bundle, d.bundle, "identical salvaged fragments");
    assert!(
        c.outcomes.iter().any(|o| o.attempts > 1),
        "retries happened"
    );
}
