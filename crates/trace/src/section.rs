//! Fallible, offset-reporting decode of `.dtb` sections.
//!
//! The batch readers in [`crate::binary`] already refuse malformed input,
//! but they report a bare `io::Error` with no position — fine when the
//! trace is a trusted local file, useless when sections arrive over a wire
//! from many concurrently-recording tenants and one of them ships a torn
//! or bit-flipped frame. [`decode_section`] decodes straight from the byte
//! slice and, on failure, returns a [`SectionDecodeError`] carrying the
//! exact byte offset the decoder had consumed when it gave up — the ingest
//! service copies both into its quarantine report so an operator can line
//! the offset up against the captured blob.
//!
//! The decode path is allocation-bounded (every length prefix is checked
//! against a sanity cap before any buffer is sized) and never panics on
//! arbitrary bytes: corruption surfaces as `Err`, not as a crash. A flip
//! that happens to decode to *some* valid section is indistinguishable
//! from honest data at this layer — the format carries no per-frame
//! checksum — which is why the wire protocol in `dayu-served` frames every
//! section with a SHA-256 digest ([`crate::sha256()`]) checked before the
//! bytes ever reach this decoder.
//!
//! [`TraceBundle::split_per_task`] is the inverse convenience: it cuts a
//! recorded bundle into per-task sections, each carrying the full bundle
//! meta, so that re-merging any subset in any arrival order reconstructs
//! the same metadata — the shape a per-task section flush produces in a
//! live deployment.

use crate::intern::{Symbol, SymbolMap};
use crate::store::TraceBundle;
use std::fmt;
use std::io;

/// A `.dtb` section blob failed to decode.
#[derive(Debug)]
pub struct SectionDecodeError {
    /// Bytes the decoder had successfully consumed before the failing
    /// read — the position of (or just before) the corruption.
    pub offset: u64,
    /// The underlying decode error.
    pub cause: io::Error,
}

impl SectionDecodeError {
    /// Whether the section simply ended early (torn write / truncated
    /// frame) as opposed to containing structurally invalid bytes.
    pub fn is_truncation(&self) -> bool {
        self.cause.kind() == io::ErrorKind::UnexpectedEof
    }
}

impl fmt::Display for SectionDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "section decode failed at byte {}: {}",
            self.offset, self.cause
        )
    }
}

impl std::error::Error for SectionDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Decodes one or more concatenated `.dtb` sections from `bytes`,
/// merging them with the usual concatenation semantics. Unlike
/// [`TraceBundle::load`], an empty blob is an error, not an empty bundle,
/// and failures report the byte offset at which decoding stopped.
pub fn decode_section(bytes: &[u8]) -> Result<TraceBundle, SectionDecodeError> {
    if bytes.first() != Some(&crate::binary::MAGIC[0]) {
        return Err(SectionDecodeError {
            offset: 0,
            cause: io::Error::new(
                io::ErrorKind::InvalidData,
                "not a .dtb section (missing magic byte)",
            ),
        });
    }
    // The slice itself is the reader: what it has left after a failure
    // says how far the decoder got.
    let mut rest = bytes;
    TraceBundle::load(&mut rest).map_err(|cause| SectionDecodeError {
        offset: (bytes.len() - rest.len()) as u64,
        cause,
    })
}

impl TraceBundle {
    /// Splits the bundle into one section per task (in [`Self::all_tasks`]
    /// order), each carrying the complete bundle meta and only that task's
    /// records. Merging any subset of the sections, in any order and with
    /// any duplication, reconstructs the same metadata; merging all of
    /// them reconstructs a bundle equal to the original up to record
    /// order grouped by task. A bundle that mentions no task at all
    /// splits into a single meta-only section.
    ///
    /// One pass over the records: each goes to its task's section, in
    /// record order, so the split costs the record count, not tasks ×
    /// records.
    pub fn split_per_task(&self) -> Vec<TraceBundle> {
        let tasks = self.all_tasks();
        if tasks.is_empty() {
            return vec![self.clone()];
        }
        // `all_tasks` names every task a record names, so no lookup misses.
        let index: SymbolMap<Symbol, usize> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.symbol(), i))
            .collect();
        let mut sections: Vec<TraceBundle> = tasks
            .iter()
            .map(|_| TraceBundle {
                meta: self.meta.clone(),
                ..Default::default()
            })
            .collect();
        for r in &self.vol {
            sections[index[&r.task.symbol()]].vol.push(r.clone());
        }
        for r in &self.vfd {
            sections[index[&r.task.symbol()]].vfd.push(r.clone());
        }
        for r in &self.files {
            sections[index[&r.task.symbol()]].files.push(r.clone());
        }
        sections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileKey, ObjectKey, TaskKey};
    use crate::sha256::{hex, sha256};
    use crate::time::{Interval, Timestamp};
    use crate::vfd::{AccessType, FileRecord, IoKind, VfdRecord};
    use crate::vol::{
        DataType, LayoutKind, ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord,
    };

    /// Two tasks, each with a dataset carrying a description and two
    /// accesses, two VFD records and a file record.
    fn bundle() -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        for (i, t) in ["t1", "t2"].into_iter().enumerate() {
            b.push_task(TaskKey::new(t));
            b.vol.push(VolRecord {
                task: TaskKey::new(t),
                file: FileKey::new("f.h5"),
                object: ObjectKey::new(format!("/g/d{i}")),
                kind: ObjectKind::Dataset,
                lifetimes: vec![Interval::new(Timestamp(0), Timestamp(5000))],
                description: ObjectDescription {
                    shape: vec![64, 1 << 20],
                    dtype: Some(DataType::Float { width: 8 }),
                    logical_size: 8 << 26,
                    layout: Some(LayoutKind::Chunked),
                    chunk_shape: vec![8, 1 << 14],
                },
                accesses: [VolAccessKind::Write, VolAccessKind::Read]
                    .into_iter()
                    .map(|kind| VolAccess {
                        kind,
                        count: 3,
                        bytes: 1 << 17,
                        sel_offset: vec![0, 300],
                        sel_count: vec![8, 1 << 14],
                        at: Timestamp(1000),
                    })
                    .collect(),
            });
            for (kind, at) in [(IoKind::Write, 1), (IoKind::Read, 300)] {
                b.vfd.push(VfdRecord {
                    task: TaskKey::new(t),
                    file: FileKey::new("f.h5"),
                    kind,
                    offset: 4096 * i as u64,
                    len: 128,
                    access: AccessType::RawData,
                    object: ObjectKey::new(format!("/g/d{i}")),
                    start: Timestamp(at),
                    end: Timestamp(at + 200),
                });
            }
            b.files.push(FileRecord {
                task: TaskKey::new(t),
                file: FileKey::new("f.h5"),
                lifetimes: vec![Interval::new(Timestamp(0), Timestamp(5000))],
                stats: Default::default(),
            });
        }
        b
    }

    /// SHA-256 of [`every_frame_bundle`]'s section bytes, and of the
    /// decode result of its every prefix and single-bit flip.
    const PINNED_FRAMES: [&str; 2] = [
        "2afaa3ba980c6f48536c26df5a26820d441ce414133de8179fe879b7a7498468",
        "63376080e060be5ae718c60943d92cbece292eeb3e6d9d8c411a8b82b6ad3b66",
    ];

    /// A v4 section with a frame of every kind: a meta frame with stages,
    /// a recovered set and an origin; VOL frames with lifetimes, accesses
    /// and selections; a VFD frame of every `IoKind`; a FILE frame.
    fn every_frame_bundle() -> TraceBundle {
        let mut b = TraceBundle::new("wf");
        for t in ["t1", "t2"] {
            b.push_task(TaskKey::new(t));
        }
        b.mark_degraded(TaskKey::new("t2"));
        b.mark_recovered(TaskKey::new("t1"));
        b.meta.stages = vec![vec![TaskKey::new("t1")], vec![TaskKey::new("t2")]];
        b.meta.origin = Some(crate::store::TraceOrigin {
            workload: "ddmd".into(),
            params: "iterations=1".into(),
            tool_version: "0.1.0".into(),
        });
        for (object, kind, dtype, layout) in [
            ("/g", ObjectKind::Group, None, None),
            (
                "/g/d",
                ObjectKind::Dataset,
                Some(DataType::Float { width: 8 }),
                Some(LayoutKind::Chunked),
            ),
            (
                "/g/s",
                ObjectKind::Attribute,
                Some(DataType::FixedBytes { len: 300 }),
                Some(LayoutKind::Compact),
            ),
        ] {
            b.vol.push(VolRecord {
                task: TaskKey::new("t1"),
                file: FileKey::new("f.h5"),
                object: ObjectKey::new(object),
                kind,
                lifetimes: vec![
                    Interval::new(Timestamp(10), Timestamp(900)),
                    Interval::new(Timestamp(1000), Timestamp(200_000)),
                ],
                description: ObjectDescription {
                    shape: vec![64, 1 << 20],
                    dtype,
                    logical_size: 8 << 26,
                    layout,
                    chunk_shape: vec![8, 1 << 14],
                },
                accesses: [VolAccessKind::Write, VolAccessKind::Read]
                    .into_iter()
                    .map(|kind| VolAccess {
                        kind,
                        count: 3,
                        bytes: 1 << 17,
                        sel_offset: vec![0, 300],
                        sel_count: vec![8, 1 << 14],
                        at: Timestamp(150_000),
                    })
                    .collect(),
            });
        }
        for (i, kind) in [
            IoKind::Open,
            IoKind::Write,
            IoKind::Read,
            IoKind::Flush,
            IoKind::Truncate,
            IoKind::Close,
        ]
        .into_iter()
        .enumerate()
        {
            let i = i as u64;
            b.vfd.push(VfdRecord {
                task: TaskKey::new(if i < 3 { "t1" } else { "t2" }),
                file: FileKey::new("f.h5"),
                kind,
                offset: 4096 * i,
                len: 128 << i,
                access: if i.is_multiple_of(2) {
                    AccessType::Metadata
                } else {
                    AccessType::RawData
                },
                object: ObjectKey::new("/g/d"),
                start: Timestamp(1_000_000 + 300 * i),
                end: Timestamp(1_000_200 + 300 * i),
            });
        }
        let mut stats = crate::vfd::FileStats::default();
        stats.read_ops = 1;
        stats.write_ops = 2;
        stats.bytes_read = 128;
        stats.bytes_written = 4096;
        stats.sequential_ops = 1;
        stats.metadata_ops = 3;
        stats.metadata_bytes = 600;
        stats.max_address = 1 << 20;
        b.files.push(FileRecord {
            task: TaskKey::new("t2"),
            file: FileKey::new("f.h5"),
            lifetimes: vec![Interval::new(Timestamp(5), Timestamp(2_000_000))],
            stats,
        });
        b
    }

    #[test]
    fn every_cut_and_flip_of_every_frame_kind_is_pinned() {
        // One line per prefix and per single-bit flip: the decoded bundle's
        // JSONL digest, or the error's offset, kind and message, which the
        // ingest service copies into its quarantine reports.
        let bytes = every_frame_bundle().to_binary_bytes();
        assert_eq!(
            bytes[7],
            crate::binary::MAGIC[7],
            "a current-version section"
        );
        let mut results = crate::sha256::Sha256::new();
        let mut note = |case: String, blob: &[u8]| {
            let line = match decode_section(blob) {
                Ok(b) => format!("{case}: ok {}\n", hex(&sha256(&b.to_jsonl_bytes()))),
                Err(e) => format!("{case}: {} {:?} {}\n", e.offset, e.cause.kind(), e.cause),
            };
            results.update(line.as_bytes());
        };
        for cut in 0..bytes.len() {
            note(format!("cut {cut}"), &bytes[..cut]);
        }
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                note(format!("flip {pos}.{bit}"), &bad);
            }
        }
        let got = [hex(&sha256(&bytes)), hex(&results.finalize())];
        assert_eq!(got, PINNED_FRAMES, "new digests: {got:?}");
    }

    #[test]
    fn valid_section_decodes() {
        let b = bundle();
        let back = decode_section(&b.to_binary_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn empty_and_non_binary_blobs_are_errors() {
        let err = decode_section(b"").unwrap_err();
        assert_eq!(err.offset, 0);
        let err = decode_section(b"{\"Meta\":{}}").unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(!err.is_truncation());
        assert!(err.to_string().contains("at byte 0"));
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        // Exhaustive cut sweep: every proper nonempty prefix of a
        // single-section blob must fail (the section ends with an end
        // tag, so no prefix is complete) as a truncation reported at the
        // cut itself.
        let bytes = bundle().to_binary_bytes();
        for cut in 1..bytes.len() {
            let err = decode_section(&bytes[..cut])
                .map(|_| panic!("prefix of {cut}/{} bytes decoded", bytes.len()))
                .unwrap_err();
            assert_eq!(err.offset, cut as u64, "{}", err.cause);
            assert!(err.is_truncation(), "cut {cut}: {}", err.cause);
        }
    }

    #[test]
    fn every_single_byte_flip_is_error_or_valid() {
        // No per-frame checksum: a flip may decode to a *different* valid
        // bundle, but it must never panic, hang, or over-allocate. The
        // decoder reads front to back, so a flip it rejects is reported
        // past the flipped byte — except byte 0, the magic pre-check.
        let bytes = bundle().to_binary_bytes();
        let mut detected = 0usize;
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                if let Err(e) = decode_section(&bad) {
                    assert!(e.offset <= bad.len() as u64);
                    if pos == 0 {
                        assert_eq!(e.offset, 0);
                    } else {
                        assert!(e.offset > pos as u64, "flip at {pos}: offset {}", e.offset);
                    }
                    detected += 1;
                }
            }
        }
        // The format is dense enough that most flips are structural
        // damage; if almost nothing is detected the decoder is not
        // actually validating.
        assert!(detected > bytes.len(), "only {detected} flips detected");
    }

    #[test]
    fn truncation_classified_as_truncation() {
        let bytes = bundle().to_binary_bytes();
        let err = decode_section(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(err.is_truncation());
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn oversized_string_length_is_rejected_without_allocating() {
        // Magic, then a 1-entry string table whose string claims to be
        // ~u48 bytes long: must fail the cap check, not try to allocate.
        let mut bytes = crate::binary::MAGIC.to_vec();
        bytes.push(1); // one table entry
        bytes.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]); // huge varint len
        let err = decode_section(&bytes).unwrap_err();
        assert!(err.cause.to_string().contains("cap"), "{}", err.cause);
    }

    #[test]
    fn split_per_task_sections_remerge_to_the_original() {
        let mut b = bundle();
        b.mark_degraded(TaskKey::new("t2"));
        b.meta.stages = vec![vec![TaskKey::new("t1")], vec![TaskKey::new("t2")]];
        let sections = b.split_per_task();
        assert_eq!(sections.len(), 2);
        // Concatenate the encoded sections in reverse arrival order:
        // full-meta sections make the merge order-insensitive.
        let mut bytes = Vec::new();
        for s in sections.iter().rev() {
            bytes.extend(s.to_binary_bytes());
        }
        let back = decode_section(&bytes).unwrap();
        assert_eq!(back.meta, b.meta);
        assert_eq!(back.vol.len(), b.vol.len());
        assert_eq!(back.vfd.len(), b.vfd.len());
        assert_eq!(back.files.len(), b.files.len());
    }

    #[test]
    fn taskless_bundle_splits_into_one_meta_section() {
        let b = TraceBundle::new("empty");
        let sections = b.split_per_task();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0], b);
    }
}
