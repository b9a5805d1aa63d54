//! `.dtb` decoding through small reader buffers.
//!
//! `dayu-analyze` and `check` read trace files through a `BufReader`, so a
//! frame can straddle the reader's buffer. This test decodes a two-section
//! trace through `BufReader::with_capacity(c, ..)` for every `c` in
//! `1..=64` and for 8192, with `TraceBundle::load` and with the lint
//! pass's `analyze_stream`, and needs the bundle, report and record count
//! the whole slice gives. Truncated copies must fail with the slice's
//! error kind.

use dayu_core::workflow::{record_opts, RecordOptions};
use dayu_core::workloads::ddmd;
use dayu_lint::{analyze_stream, LintConfig};
use dayu_trace::{AccessType, FileKey, IoKind, ObjectKey, Timestamp, TraceBundle, VfdRecord};
use dayu_vfd::MemFs;
use std::io::BufReader;

/// A small `ddmd` recording cut into two sections, each holding the
/// records of half of its tasks, and the length of the first section. The
/// second section also holds a planted read of a file that a later task
/// writes, so the lint report has findings to compare.
fn two_sections() -> (Vec<u8>, usize) {
    let spec = ddmd::workflow(&ddmd::DdmdConfig {
        sim_tasks: 3,
        epochs: 2,
        reread_epochs: vec![2],
        ..Default::default()
    });
    let opts = RecordOptions {
        manual_clock: true,
        ..Default::default()
    };
    let bundle = record_opts(&spec, &MemFs::new(), &opts).unwrap().bundle;
    let mut parts = bundle.split_per_task();
    let second = parts.split_off(parts.len() / 2);
    let mut bytes = Vec::new();
    let mut first_len = 0;
    for half in [parts, second] {
        first_len = bytes.len();
        let mut merged = TraceBundle::default();
        for part in half {
            merged.merge(part);
        }
        assert!(!merged.vol.is_empty() && !merged.vfd.is_empty() && !merged.files.is_empty());
        if first_len > 0 {
            let (first, last) = (
                bundle.meta.task_order[0].clone(),
                merged.vfd[0].task.clone(),
            );
            for (task, kind, start) in [(first, IoKind::Read, 0), (last, IoKind::Write, 100)] {
                merged.vfd.push(VfdRecord {
                    task,
                    file: FileKey::new("planted.h5"),
                    kind,
                    offset: 0,
                    len: 1024,
                    access: AccessType::RawData,
                    object: ObjectKey::new("/d"),
                    start: Timestamp(start),
                    end: Timestamp(start + 50),
                });
            }
        }
        bytes.extend(merged.to_binary_bytes());
    }
    (bytes, first_len)
}

#[test]
fn frames_straddling_the_reader_buffer_decode_as_from_the_slice() {
    let (bytes, first_len) = two_sections();
    let bundle = TraceBundle::load(&bytes[..]).unwrap();
    let lint = analyze_stream(&bytes[..], &LintConfig::default()).unwrap();
    assert_eq!(
        lint.1,
        (bundle.vol.len() + bundle.vfd.len() + bundle.files.len()) as u64
    );
    assert_eq!(lint.0.findings.len(), 1, "the planted read-before-write");
    // Inside the first section's frames, inside the second section's
    // string table, and one byte short of the end.
    let cuts = [first_len / 2, first_len + 20, bytes.len() - 1];
    let slice_errors: Vec<_> = cuts
        .iter()
        .map(|&cut| TraceBundle::load(&bytes[..cut]).unwrap_err().kind())
        .collect();
    for capacity in (1..=64).chain([8192]) {
        let reader = || BufReader::with_capacity(capacity, &bytes[..]);
        assert_eq!(
            TraceBundle::load(reader()).unwrap(),
            bundle,
            "capacity {capacity}"
        );
        assert_eq!(
            analyze_stream(reader(), &LintConfig::default()).unwrap(),
            lint,
            "capacity {capacity}"
        );
        for (&cut, &kind) in cuts.iter().zip(&slice_errors) {
            let reader = || BufReader::with_capacity(capacity, &bytes[..cut]);
            let err = TraceBundle::load(reader()).unwrap_err();
            assert_eq!(err.kind(), kind, "capacity {capacity}, cut {cut}: {err}");
            let err = analyze_stream(reader(), &LintConfig::default()).unwrap_err();
            assert_eq!(err.kind(), kind, "capacity {capacity}, cut {cut}: {err}");
        }
    }
}
