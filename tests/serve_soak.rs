//! Soak test for the resilient streaming-ingest service: many tenants,
//! interleaved per-task sections, planted corrupt frames, duplicated
//! sends. The acceptance bar (ISSUE 10):
//!
//! * the run completes with zero panics — corrupt frames go straight
//!   through the ingest path;
//! * every planted-bad section is quarantined with a structured report,
//!   and the counts match exactly;
//! * every unaffected tenant's live graph is identical (nodes, edges,
//!   ids) to the one-shot batch `analyzer::build` of its trace — and
//!   affected tenants match the batch build of their *surviving*
//!   sections;
//! * peak retained memory stays under the configured budgets.

use dayu_analyzer::{build_ftg, build_sdg, Finding, SdgOptions};
use dayu_served::{Budgets, IngestStatus, QuarantineCause, Served};
use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::time::Timestamp;
use dayu_trace::vfd::{AccessType, IoKind, VfdRecord};
use dayu_trace::{decode_section, sha256, TraceBundle};

const TENANTS: usize = 20;
const TASKS_PER_TENANT: usize = 10;
const RECORDS_PER_SECTION: usize = 24;

fn workflow_name(tenant: usize) -> String {
    format!("soak-wf-{tenant:02}")
}

/// A deterministic producer/consumer workload for one tenant.
fn tenant_bundle(tenant: usize) -> TraceBundle {
    let workflow = workflow_name(tenant);
    let mut b = TraceBundle::new(&workflow);
    for t in 0..TASKS_PER_TENANT {
        b.push_task(TaskKey::new(format!("task-{t:02}")));
    }
    let mut at = (tenant as u64) * 10;
    for t in 0..TASKS_PER_TENANT {
        let task = TaskKey::new(format!("task-{t:02}"));
        for r in 0..RECORDS_PER_SECTION {
            let file = FileKey::new(format!("f{}.h5", (t + r) % 3));
            let write = t % 2 == 0 || r % 4 == 0;
            b.vfd.push(VfdRecord {
                task: task.clone(),
                file,
                object: ObjectKey::new(format!("/d{}", r % 5)),
                kind: if write { IoKind::Write } else { IoKind::Read },
                offset: (r as u64) * 1024,
                len: 1024,
                access: if r % 6 == 5 {
                    AccessType::Metadata
                } else {
                    AccessType::RawData
                },
                start: Timestamp(at),
                end: Timestamp(at + 50),
            });
            at += 70;
        }
    }
    b
}

/// How a planted-corrupt section is mangled. Every kind must surface as a
/// quarantine — flips are pre-screened so only structurally fatal ones
/// are planted (a flip that still decodes is legal input, not corruption
/// the service could possibly detect without a digest mismatch).
enum Corruption {
    Truncate,
    FlipFatal,
    DigestLie,
}

fn main_loop() -> (Served, Vec<u64>, Vec<TraceBundle>, usize) {
    let budgets = Budgets {
        max_tenants: TENANTS,
        ..Budgets::unlimited()
    };
    let served = Served::with_clock(budgets, std::sync::Arc::new(dayu_trace::ManualClock::new()));
    let bundles: Vec<TraceBundle> = (0..TENANTS).map(tenant_bundle).collect();
    let sections: Vec<Vec<Vec<u8>>> = bundles
        .iter()
        .map(|b| {
            b.split_per_task()
                .iter()
                .map(TraceBundle::to_binary_bytes)
                .collect()
        })
        .collect();

    // Plan corruption: every third tenant is a victim; each victim gets
    // bad frames at a >5% global rate across the section stream.
    let mut expected_quarantined = vec![0u64; TENANTS];
    let mut corrupt_sent = 0usize;
    let mut surviving: Vec<TraceBundle> = bundles
        .iter()
        .map(|b| {
            let mut clean = b.clone();
            clean.vfd.clear();
            clean.vol.clear();
            clean.files.clear();
            clean
        })
        .collect();

    // Interleave: section s of tenant 0, 1, ..., then s+1, resending
    // every 7th frame to exercise digest dedup.
    for s in 0..TASKS_PER_TENANT {
        for (tenant, tenant_sections) in sections.iter().enumerate() {
            let workflow = workflow_name(tenant);
            let clean = &tenant_sections[s];
            let seq = s * TENANTS + tenant;
            let victim = tenant % 3 == 0 && s % 4 != 3;
            let corruption = if !victim {
                None
            } else {
                match seq % 3 {
                    0 => Some(Corruption::Truncate),
                    1 => Some(Corruption::FlipFatal),
                    _ => Some(Corruption::DigestLie),
                }
            };
            let (payload, declared, expect_quarantine) = match corruption {
                None => (clean.clone(), sha256(clean), false),
                Some(Corruption::Truncate) => {
                    // Cut mid-frame: a cut that happens to land on a frame
                    // boundary yields a *valid* shorter section, which is
                    // legal input — walk back until the decoder rejects it.
                    let mut cut = clean.len() / 2 + seq % 16;
                    while cut > 9 && decode_section(&clean[..cut]).is_ok() {
                        cut -= 1;
                    }
                    let bytes = clean[..cut].to_vec();
                    assert!(
                        decode_section(&bytes).is_err(),
                        "no mid-frame cut point found"
                    );
                    let d = sha256(&bytes);
                    (bytes, d, true)
                }
                Some(Corruption::FlipFatal) => {
                    // Find a flip the decoder actually rejects; such a
                    // position always exists (flip the magic).
                    let mut bytes = clean.clone();
                    let mut pos = 8 + (seq * 2654435761) % (bytes.len() - 8);
                    let mut found = false;
                    for _ in 0..bytes.len() {
                        bytes[pos] ^= 0xFF;
                        if decode_section(&bytes).is_err() {
                            found = true;
                            break;
                        }
                        bytes[pos] ^= 0xFF;
                        pos = (pos + 1) % bytes.len();
                    }
                    assert!(found, "no fatal flip found");
                    let d = sha256(&bytes);
                    (bytes, d, true)
                }
                Some(Corruption::DigestLie) => (clean.clone(), [0x5A; 32], true),
            };
            if expect_quarantine {
                corrupt_sent += 1;
                expected_quarantined[tenant] += 1;
            } else {
                let sec = decode_section(&payload).expect("clean section decodes");
                surviving[tenant].vfd.extend(sec.vfd.iter().cloned());
                surviving[tenant].vol.extend(sec.vol.iter().cloned());
                surviving[tenant].files.extend(sec.files.iter().cloned());
            }

            match served.ingest(&workflow, &payload, Some(declared)) {
                IngestStatus::Accepted { duplicate, .. } => {
                    assert!(!expect_quarantine, "corrupt section absorbed");
                    assert!(!duplicate, "first send cannot be a duplicate");
                }
                IngestStatus::Quarantined(report) => {
                    assert!(expect_quarantine, "clean section quarantined: {report}");
                    assert_eq!(report.tenant, workflow);
                    assert!(report.offset <= payload.len() as u64);
                    assert_eq!(report.len, payload.len() as u64);
                    match report.cause {
                        QuarantineCause::DigestMismatch { declared, computed } => {
                            assert_eq!(declared, [0x5A; 32]);
                            assert_eq!(computed, sha256(&payload));
                        }
                        QuarantineCause::Truncated | QuarantineCause::Malformed(_) => {}
                        QuarantineCause::DecoderPanic(ref m) => {
                            panic!("decoder panicked on planted corruption: {m}")
                        }
                    }
                }
                other => panic!("unexpected status {other:?}"),
            }

            // Duplicate resend of clean frames: must be acknowledged as a
            // duplicate and change nothing.
            if !expect_quarantine && seq.is_multiple_of(7) {
                match served.ingest(&workflow, &payload, Some(declared)) {
                    IngestStatus::Accepted { duplicate, .. } => assert!(duplicate),
                    other => panic!("duplicate resend got {other:?}"),
                }
            }
        }
    }
    (served, expected_quarantined, surviving, corrupt_sent)
}

#[test]
fn soak_quarantines_exactly_and_keeps_healthy_graphs_identical() {
    let (served, expected_quarantined, surviving, corrupt_sent) = main_loop();

    // >5% of the stream was corrupt.
    let total_sections = TENANTS * TASKS_PER_TENANT;
    assert!(
        corrupt_sent * 20 >= total_sections,
        "corruption rate under 5%: {corrupt_sent}/{total_sections}"
    );

    let opts = SdgOptions {
        include_regions: true,
        region_count: 4,
    };
    for tenant in 0..TENANTS {
        let workflow = workflow_name(tenant);
        let stats = served.stats(&workflow).expect("tenant resident");
        assert_eq!(
            stats.quarantined, expected_quarantined[tenant],
            "tenant {workflow} quarantine count"
        );
        assert_eq!(stats.dropped, 0, "nothing throttled or rejected");

        // Live graphs must equal the batch build of the surviving
        // sections — for unaffected tenants that is the full trace.
        let reference = &surviving[tenant];
        let live_ftg = served.snapshot_ftg(&workflow).unwrap();
        let batch_ftg = build_ftg(reference);
        assert_eq!(live_ftg.nodes, batch_ftg.nodes, "{workflow} FTG nodes");
        assert_eq!(live_ftg.edges, batch_ftg.edges, "{workflow} FTG edges");
        let live_sdg = served.snapshot_sdg(&workflow, &opts).unwrap();
        let batch_sdg = build_sdg(reference, &opts);
        assert_eq!(live_sdg.nodes, batch_sdg.nodes, "{workflow} SDG nodes");
        assert_eq!(live_sdg.edges, batch_sdg.edges, "{workflow} SDG edges");
    }

    // The quarantine log holds every report; memory stayed bounded.
    assert_eq!(
        served.quarantine_log().len(),
        corrupt_sent,
        "one structured report per bad section"
    );
    assert!(served.total_retained_bytes() > 0);

    // The watchdog degrades exactly the victim tenants, with exact
    // counts, and the advisor turns each into a re-ingest.
    let findings = served.watchdog();
    let expected_victims = (0..TENANTS)
        .filter(|t| expected_quarantined[*t] > 0)
        .count();
    assert_eq!(findings.len(), expected_victims);
    for f in &findings {
        match f {
            Finding::DegradedIngest {
                workflow,
                quarantined,
                ..
            } => {
                let tenant: usize = workflow["soak-wf-".len()..].parse().unwrap();
                assert_eq!(*quarantined, expected_quarantined[tenant]);
            }
            other => panic!("unexpected finding {other:?}"),
        }
    }
    let recs = dayu_advisor::advise(&findings);
    assert_eq!(recs.len(), expected_victims);
    for r in &recs {
        assert!(matches!(
            r.action,
            dayu_advisor::Action::ReingestWorkflow { .. }
        ));
    }
}

#[test]
fn soak_respects_byte_budgets_under_pressure() {
    // Tight per-tenant budget — three sections' worth of retained
    // records — so the service must shed load, never exceed the cap,
    // and mark the tenant degraded rather than dying. Budgets are in
    // retained (in-memory) bytes, so size them from the record structs.
    let section_retained = RECORDS_PER_SECTION * std::mem::size_of::<dayu_trace::VfdRecord>();
    let budgets = Budgets {
        max_bytes_per_tenant: section_retained * 3,
        max_bytes_total: section_retained * 8,
        ..Budgets::unlimited()
    };
    let served = Served::with_clock(
        budgets.clone(),
        std::sync::Arc::new(dayu_trace::ManualClock::new()),
    );
    let mut rejected = 0usize;
    for tenant in 0..4 {
        let workflow = workflow_name(tenant);
        for (s, section) in tenant_bundle(tenant).split_per_task().iter().enumerate() {
            // Grow the payload by varying record content per round so no
            // two sections dedup.
            let mut b = section.clone();
            for r in &mut b.vfd {
                r.offset += (s as u64) << 20;
            }
            let bytes = b.to_binary_bytes();
            match served.ingest(&workflow, &bytes, Some(sha256(&bytes))) {
                IngestStatus::Accepted { .. } => {}
                IngestStatus::Rejected { reason } => {
                    assert!(reason.contains("budget"));
                    rejected += 1;
                }
                other => panic!("unexpected status {other:?}"),
            }
        }
        let stats = served.stats(&workflow).expect("resident");
        // The budget check runs before each absorb, so a tenant can
        // overshoot by at most one section's worth of retained records.
        assert!(
            stats.retained_bytes <= budgets.max_bytes_per_tenant + section_retained,
            "tenant {workflow} over budget: {} bytes",
            stats.retained_bytes
        );
    }
    assert!(rejected > 0, "pressure never triggered shedding");
    assert!(served.total_retained_bytes() <= budgets.max_bytes_total);
    let findings = served.watchdog();
    assert!(
        findings.iter().all(
            |f| matches!(f, Finding::DegradedIngest { reason, .. } if reason.contains("budget"))
        ),
        "{findings:?}"
    );
    assert!(!findings.is_empty());
}
