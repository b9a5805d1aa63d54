//! Properties of the `.dtb` encoding over arbitrary bundles. The
//! section decoder gets a corruption sweep mirroring the `.drb`
//! bundle_prop tests in `dayu-workflow`: arbitrary bundles round-trip,
//! every truncation point fails with a structured offset-bearing error, and
//! every single-byte flip either fails the same way or decodes to *some*
//! valid bundle — never a panic, hang, or unbounded allocation.

use dayu_trace::ids::{FileKey, ObjectKey, TaskKey};
use dayu_trace::rng::{cases, ChaosRng};
use dayu_trace::time::{Interval, Timestamp};
use dayu_trace::vfd::{AccessType, FileRecord, IoKind, VfdRecord};
use dayu_trace::vol::{
    DataType, LayoutKind, ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord,
};
use dayu_trace::{decode_section, HeaderMemo, RecordSink, TraceBundle, TraceMeta};
use std::io::{self, BufRead, Read};

/// `lo..=hi` lowercase letters.
fn word(rng: &mut ChaosRng, lo: u64, hi: u64) -> String {
    (0..rng.range(lo, hi + 1))
        .map(|_| char::from(b'a' + rng.range(0, 26) as u8))
        .collect()
}

fn arb_vfd(rng: &mut ChaosRng) -> VfdRecord {
    let t = rng.range(0, 1 << 40);
    VfdRecord {
        task: TaskKey::new(word(rng, 1, 8)),
        file: FileKey::new(word(rng, 1, 8) + ".h5"),
        kind: if rng.chance(0.5) {
            IoKind::Write
        } else {
            IoKind::Read
        },
        offset: rng.range(0, 1 << 30),
        len: rng.range(0, 1 << 20),
        access: if rng.chance(0.5) {
            AccessType::Metadata
        } else {
            AccessType::RawData
        },
        object: ObjectKey::new("/d"),
        start: Timestamp(t),
        end: Timestamp(t + 10),
    }
}

fn arb_access(rng: &mut ChaosRng) -> VolAccess {
    let sel: Vec<u64> = (0..rng.range(0, 3))
        .map(|_| rng.range(0, 1 << 30))
        .collect();
    VolAccess {
        kind: if rng.chance(0.5) {
            VolAccessKind::Write
        } else {
            VolAccessKind::Read
        },
        count: rng.range(1, 1 << 20),
        bytes: rng.range(0, 1 << 40),
        sel_count: sel.iter().map(|d| d + 1).collect(),
        sel_offset: sel,
        at: Timestamp(rng.range(0, 1 << 40)),
    }
}

fn arb_vol(rng: &mut ChaosRng) -> VolRecord {
    let shape: Vec<u64> = (0..rng.range(0, 4))
        .map(|_| rng.range(1, 1 << 20))
        .collect();
    VolRecord {
        task: TaskKey::new(word(rng, 1, 8)),
        file: FileKey::new(word(rng, 1, 8) + ".h5"),
        object: ObjectKey::new("/".to_owned() + &word(rng, 1, 12)),
        kind: ObjectKind::Dataset,
        lifetimes: vec![Interval::new(Timestamp(1), Timestamp(2))],
        description: ObjectDescription {
            logical_size: shape.iter().fold(8, |size: u64, d| size.saturating_mul(*d)),
            dtype: Some(DataType::Float { width: 8 }),
            layout: Some(if rng.chance(0.5) {
                LayoutKind::Chunked
            } else {
                LayoutKind::Contiguous
            }),
            shape,
            chunk_shape: vec![],
        },
        accesses: (0..rng.range(0, 6)).map(|_| arb_access(rng)).collect(),
    }
}

fn arb_file(rng: &mut ChaosRng) -> FileRecord {
    FileRecord {
        task: TaskKey::new(word(rng, 1, 8)),
        file: FileKey::new(word(rng, 1, 8) + ".h5"),
        lifetimes: vec![Interval::new(Timestamp(0), Timestamp(9))],
        stats: Default::default(),
    }
}

/// Up to five tasks, some of them degraded (chaos-salvaged), and records
/// of every family whose names need not appear in the task order.
fn arb_bundle(rng: &mut ChaosRng) -> TraceBundle {
    let mut b = TraceBundle::new("prop-section");
    for _ in 0..rng.range(0, 6) {
        let task = TaskKey::new(word(rng, 1, 8));
        b.push_task(task.clone());
        if rng.chance(0.5) {
            b.mark_degraded(task);
        }
    }
    b.vfd = (0..rng.range(0, 30)).map(|_| arb_vfd(rng)).collect();
    b.vol = (0..rng.range(0, 15)).map(|_| arb_vol(rng)).collect();
    b.files = (0..rng.range(0, 6)).map(|_| arb_file(rng)).collect();
    b
}

/// The decoder, through `decode_section` and `load`, is a fixpoint of
/// the encoder, whose bytes are never more than the JSONL export's.
#[test]
fn round_trip_fixpoint() {
    cases("round_trip_fixpoint", 64, |rng| {
        let b = arb_bundle(rng);
        let bytes = b.to_binary_bytes();
        assert_eq!(decode_section(&bytes).unwrap(), b);
        assert_eq!(TraceBundle::load(&bytes[..]).unwrap(), b);
        assert!(bytes.len() <= b.to_jsonl_bytes().len());
    });
}

/// Cutting the section at any interior point yields a truncation
/// error reported at the cut: the decoder consumed every surviving
/// byte before running out.
#[test]
fn every_cut_point_is_detected() {
    cases("every_cut_point_is_detected", 64, |rng| {
        let bytes = arb_bundle(rng).to_binary_bytes();
        let cut = rng.range(1, bytes.len() as u64) as usize;
        match decode_section(&bytes[..cut]) {
            Ok(_) => panic!("prefix of {cut}/{} bytes decoded", bytes.len()),
            Err(e) => {
                assert_eq!(e.offset, cut as u64);
                assert!(e.is_truncation(), "cut {cut}: {}", e.cause);
            }
        }
    });
}

/// Flipping any single bit never panics: the decode returns an error
/// or some other valid bundle. The decoder reads front to back, so an
/// error lies past the flipped byte — except byte 0, which the magic
/// pre-check rejects at offset 0.
#[test]
fn every_bit_flip_is_err_or_valid() {
    cases("every_bit_flip_is_err_or_valid", 64, |rng| {
        let mut bytes = arb_bundle(rng).to_binary_bytes();
        let pos = rng.range(0, bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << rng.range(0, 8);
        if let Err(e) = decode_section(&bytes) {
            assert!(e.offset <= bytes.len() as u64);
            if pos == 0 {
                assert_eq!(e.offset, 0);
            } else {
                assert!(e.offset > pos as u64, "flip at {pos}: offset {}", e.offset);
            }
        }
    });
}

/// A reader that buffers at most one byte, so the `.dtb` reader decodes
/// every frame a field at a time, through its careful path.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl BufRead for OneByte<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        Ok(&self.0[..self.0.len().min(1)])
    }

    fn consume(&mut self, n: usize) {
        self.0 = &self.0[n..];
    }
}

/// One or two sections of arbitrary bundles, whole, cut or with one bit
/// flipped.
fn arb_blob(rng: &mut ChaosRng) -> Vec<u8> {
    let mut bytes = arb_bundle(rng).to_binary_bytes();
    if rng.chance(0.5) {
        bytes.extend(arb_bundle(rng).to_binary_bytes());
    }
    match rng.range(0, 3) {
        0 => {}
        1 => bytes.truncate(rng.range(0, bytes.len() as u64) as usize),
        _ => {
            let pos = rng.range(0, bytes.len() as u64) as usize;
            bytes[pos] ^= 1 << rng.range(0, 8);
        }
    }
    bytes
}

/// Decoding whole frames from the buffer gives what decoding every frame
/// a field at a time gives: the same bundle, or the same error with the
/// reader left at the same byte.
#[test]
fn buffered_decoding_equals_careful_decoding() {
    cases("buffered_decoding_equals_careful_decoding", 256, |rng| {
        let bytes = arb_blob(rng);
        let mut buffered = &bytes[..];
        let mut careful = OneByte(&bytes);
        let (a, b) = (
            TraceBundle::load(&mut buffered),
            TraceBundle::load(&mut careful),
        );
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => {
                assert_eq!(a.kind(), b.kind());
                assert_eq!(a.to_string(), b.to_string());
            }
            (a, b) => panic!("buffered {a:?}, careful {b:?}"),
        }
        assert_eq!(buffered.len(), careful.0.len(), "bytes left unread");
    });
}

/// A sink that takes `budget` data records and refuses the next.
struct Refusing {
    budget: usize,
    taken: usize,
}

impl Refusing {
    fn take(&mut self) -> io::Result<()> {
        if self.taken == self.budget {
            return Err(io::Error::other("sink full"));
        }
        self.taken += 1;
        Ok(())
    }
}

impl RecordSink for Refusing {
    fn meta(&mut self, _: TraceMeta) -> io::Result<()> {
        Ok(())
    }
    fn vol(&mut self, _: VolRecord) -> io::Result<()> {
        self.take()
    }
    fn vfd(&mut self, _: VfdRecord) -> io::Result<()> {
        self.take()
    }
    fn file(&mut self, _: FileRecord) -> io::Result<()> {
        self.take()
    }
}

/// A sink's error reaches the caller with the refused record's frame
/// read and nothing after it, whichever path decoded the frame.
#[test]
fn sink_errors_leave_the_reader_past_the_refused_frame() {
    cases(
        "sink_errors_leave_the_reader_past_the_refused_frame",
        64,
        |rng| {
            let b = arb_bundle(rng);
            let n = b.vol.len() + b.vfd.len() + b.files.len();
            let bytes = b.to_binary_bytes();
            for budget in 0..n {
                let mut buffered = &bytes[..];
                let mut careful = OneByte(&bytes);
                for reader in [&mut buffered as &mut dyn BufRead, &mut careful] {
                    let mut sink = Refusing { budget, taken: 0 };
                    let err = TraceBundle::stream(reader, &mut sink).unwrap_err();
                    assert_eq!(err.to_string(), "sink full");
                    assert_eq!(sink.taken, budget);
                }
                assert_eq!(buffered.len(), careful.0.len(), "budget {budget} of {n}");
                // The rest decodes as frames: an end tag, or the next record.
                assert!(matches!(buffered.first(), Some(0x00 | 0x02..=0x04)));
            }
        },
    );
}

/// Splitting per task and re-merging the encoded sections in any
/// rotation reconstructs the original metadata and record counts.
#[test]
fn split_sections_remerge_in_any_rotation() {
    cases("split_sections_remerge_in_any_rotation", 64, |rng| {
        let b = arb_bundle(rng);
        let rot = rng.range(0, 8) as usize;
        let sections = b.split_per_task();
        let n = sections.len();
        let mut bytes = Vec::new();
        for i in 0..n {
            bytes.extend(sections[(i + rot % n) % n].to_binary_bytes());
        }
        let back = decode_section(&bytes).unwrap();
        assert_eq!(&back.meta, &b.meta);
        assert_eq!(back.vol.len(), b.vol.len());
        assert_eq!(back.vfd.len(), b.vfd.len());
        assert_eq!(back.files.len(), b.files.len());
    });
}

/// The split the one-pass `split_per_task` replaced: every record list
/// filtered once per task of `all_tasks`.
fn split_by_filter(b: &TraceBundle) -> Vec<TraceBundle> {
    let tasks = b.all_tasks();
    if tasks.is_empty() {
        return vec![b.clone()];
    }
    tasks
        .into_iter()
        .map(|task| TraceBundle {
            meta: b.meta.clone(),
            vol: b.vol.iter().filter(|r| r.task == task).cloned().collect(),
            vfd: b.vfd.iter().filter(|r| r.task == task).cloned().collect(),
            files: b.files.iter().filter(|r| r.task == task).cloned().collect(),
        })
        .collect()
}

/// `split_per_task` equals the per-task filter: same sections in
/// `all_tasks` order, records in bundle order. Records draw their tasks
/// from the task order and from a few names it lacks, so tasks repeat
/// and stragglers appear; some bundles have no records at all.
#[test]
fn split_per_task_equals_per_task_filter() {
    assert_eq!(
        TraceBundle::new("empty").split_per_task(),
        split_by_filter(&TraceBundle::new("empty"))
    );
    cases("split_per_task_equals_per_task_filter", 96, |rng| {
        let mut b = arb_bundle(rng);
        let mut pool: Vec<TaskKey> = ["straggler", "late", "x"].map(TaskKey::new).to_vec();
        pool.extend(b.meta.task_order.iter().cloned());
        let pick = |rng: &mut ChaosRng| pool[rng.range(0, pool.len() as u64) as usize].clone();
        if rng.chance(0.2) {
            b.vol.clear();
            b.vfd.clear();
            b.files.clear();
        }
        for r in &mut b.vol {
            r.task = pick(rng);
        }
        for r in &mut b.vfd {
            r.task = pick(rng);
        }
        for r in &mut b.files {
            r.task = pick(rng);
        }
        assert_eq!(b.split_per_task(), split_by_filter(&b));
    });
}

/// Decoding through a memo gives what the fresh decode gives: the same
/// bundle, or the same error at the same offset.
fn assert_memo_matches_fresh(memo: &mut HeaderMemo, blob: &[u8]) {
    match (decode_section(blob), memo.decode_section(blob)) {
        (Ok(fresh), Ok(shared)) => assert_eq!(shared.into_bundle(), fresh),
        (Err(fresh), Err(shared)) => {
            assert_eq!(shared.offset, fresh.offset);
            assert_eq!(shared.cause.kind(), fresh.cause.kind());
            assert_eq!(shared.cause.to_string(), fresh.cause.to_string());
        }
        (fresh, shared) => panic!("fresh {fresh:?}, memo {shared:?}"),
    }
}

/// Interleaved tenants' `split_per_task` sections, some sent twice and
/// corrupt ones (cut or flipped) between good ones, decode through each
/// tenant's memo, and through one memo all tenants share, to what the
/// fresh decode gives.
#[test]
fn memo_decoding_equals_fresh_decoding_across_tenants() {
    cases(
        "memo_decoding_equals_fresh_decoding_across_tenants",
        96,
        |rng| {
            let tenants: Vec<Vec<Vec<u8>>> = (0..rng.range(1, 4))
                .map(|i| {
                    let mut b = arb_bundle(rng);
                    b.meta.workflow = format!("tenant-{i}");
                    b.split_per_task()
                        .iter()
                        .map(TraceBundle::to_binary_bytes)
                        .collect()
                })
                .collect();
            let mut next = vec![0usize; tenants.len()];
            let mut memos = vec![HeaderMemo::default(); tenants.len()];
            let mut shared = HeaderMemo::default();
            while let Some(t) = (0..tenants.len()).find(|&t| next[t] < tenants[t].len()) {
                let t = (t + rng.range(0, tenants.len() as u64) as usize) % tenants.len();
                let Some(section) = tenants[t].get(next[t]) else {
                    continue;
                };
                let mut blob = section.clone();
                match rng.range(0, 6) {
                    0 => blob.truncate(rng.range(0, blob.len() as u64) as usize),
                    1 => {
                        let pos = rng.range(0, blob.len() as u64) as usize;
                        blob[pos] ^= 1 << rng.range(0, 8);
                    }
                    2 => next[t] = next[t].saturating_sub(1),
                    _ => {}
                }
                assert_memo_matches_fresh(&mut memos[t], &blob);
                assert_memo_matches_fresh(&mut shared, &blob);
                next[t] += 1;
            }
        },
    );
}
