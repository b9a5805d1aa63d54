//! Integration: the *semantics* half of the paper's semantics+dynamics
//! split, end to end. Declared I/O contracts alone — no recorded trace
//! and no `ExtentCatalog`, ever — prove a barrier removal safe, reject
//! an unsafe one, and split planted defects between the pre-run static
//! pass and the post-run conformance sweep.

use dayu_core::workloads::corner_case;
use dayu_lint::{
    analyze_contracts, check_conformance, verified, ContractCatalog, Finding, LintConfig,
};
use dayu_sim::{SimOp, SimTask};
use dayu_vfd::MemFs;
use dayu_workflow::{record, transform};

const CHUNK: u64 = corner_case::CHUNK_BYTES;

/// Serialized replay plan of the partitioned chunk writers. The plan
/// layer only knows both tasks write the shared file, so writer 1 is
/// conservatively ordered after writer 0 — the barrier the transform
/// wants to remove.
fn serialized_writers() -> Vec<SimTask> {
    vec![
        SimTask::new("chunk_writer_0")
            .with_program(vec![SimOp::write(corner_case::SHARED_FILE, CHUNK)]),
        SimTask::new("chunk_writer_1")
            .after(&[0])
            .with_program(vec![SimOp::write(corner_case::SHARED_FILE, CHUNK)]),
    ]
}

#[test]
fn disjoint_parallelize_is_discharged_from_contracts_alone() {
    // The workflow's declarations partition the shared dataset into
    // per-writer chunks; the static pass proves them race-free before
    // any VFD is opened.
    let spec = corner_case::partitioned_workflow(2);
    let report = analyze_contracts(&spec, &LintConfig::default());
    assert!(report.is_clean(), "{:?}", report.findings);

    // The declared footprints are the verifier's only oracle here: the
    // plan-level write-write race the rewrite would introduce is
    // discharged by proven disjointness, with nothing ever recorded.
    let contracts = ContractCatalog::from_spec(&spec);
    let mut plan = serialized_writers();
    verified(&mut plan, "parallelize", Some(&contracts), None, |t| {
        transform::parallelize(t, "chunk_writer_0", "chunk_writer_1")
    })
    .expect("declared disjoint partitions must discharge the barrier removal");
    assert!(plan[1].deps.is_empty(), "barrier removed");
}

#[test]
fn overlapping_contracts_reject_the_same_parallelize() {
    // Same plan, but the declarations overlap by 512 bytes: the
    // verifier must refuse the rewrite, restore the plan, and name the
    // colliding byte range.
    let contracts = ContractCatalog::from_spec(&corner_case::racy_workflow(2, 512));
    let mut plan = serialized_writers();
    let before = plan.clone();
    let err = verified(&mut plan, "parallelize", Some(&contracts), None, |t| {
        transform::parallelize(t, "chunk_writer_0", "chunk_writer_1")
    })
    .unwrap_err();
    assert_eq!(plan, before, "plan restored on rejection");
    assert!(
        err.report.findings.iter().any(|f| matches!(
            f,
            Finding::ExtentRace {
                write_write: true,
                ..
            }
        )),
        "{err}"
    );
}

#[test]
fn planted_spill_passes_static_analysis_but_fails_conformance() {
    // The dual defect: declarations are a clean partition (the static
    // pass sees nothing), but writer 0's behaviour spills past its
    // declared chunk — only replaying the recorded trace against the
    // contracts exposes it.
    let spec = corner_case::violating_workflow(2, 256);
    let report = analyze_contracts(&spec, &LintConfig::default());
    assert!(report.is_clean(), "{:?}", report.findings);

    let fs = MemFs::new();
    let run = record(&spec, &fs).expect("record");
    let report = check_conformance(&run.bundle, &spec);
    assert!(
        report.findings.iter().any(|f| matches!(
            f,
            Finding::ContractViolation {
                task,
                undeclared: true,
                start,
                end,
                ..
            } if task == "chunk_writer_0" && *start == CHUNK && *end == CHUNK + 256
        )),
        "spill flagged: {:?}",
        report.findings
    );
}
