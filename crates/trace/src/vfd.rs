//! File-level (VFD profiler) records — Table II of the paper.
//!
//! | # | Parameter       | Goal                                         |
//! |---|-----------------|----------------------------------------------|
//! | 1 | Task Name       | Create file–task relationship                |
//! | 2 | File Name       | Create file–task relationship                |
//! | 3 | File Lifetime   | Map I/O operations to the task               |
//! | 4 | File Statistics | Capture access pattern to different regions  |
//! | 5 | I/O Operations  | The low-level (e.g. POSIX) I/O behaviour     |
//! | 6 | Access Type     | Metadata vs data operations                  |
//! | 7 | Data Object     | Map I/O operations to data object            |

use crate::ids::{FileKey, ObjectKey, TaskKey};
use crate::time::{Interval, Timestamp};

/// The low-level operation performed (POSIX-equivalent verbs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// `pread`-equivalent.
    Read,
    /// `pwrite`-equivalent.
    Write,
    /// File open.
    Open,
    /// File close.
    Close,
    /// Flush/fsync.
    Flush,
    /// File truncate/extend to a new end-of-file.
    Truncate,
}

crate::to_json!(
    enum IoKind {
        Read,
        Write,
        Open,
        Close,
        Flush,
        Truncate,
    }
);

impl IoKind {
    /// Whether the op moves data bytes (read/write) rather than being a
    /// lifecycle operation.
    pub fn moves_data(self) -> bool {
        matches!(self, IoKind::Read | IoKind::Write)
    }
}

/// Table II parameter 6: whether an operation touched format-internal
/// metadata (superblock, object headers, B-trees, heaps, chunk indexes) or
/// raw dataset content. Separating the two is what lets DaYu expose
/// metadata-overhead bottlenecks (e.g. Fig. 5 and Fig. 7 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Format-internal metadata.
    Metadata,
    /// Dataset payload bytes.
    RawData,
}

crate::to_json!(
    enum AccessType {
        Metadata,
        RawData,
    }
);

/// One low-level I/O operation — Table II parameters 5–7 plus timing.
#[derive(Clone, Debug, PartialEq)]
pub struct VfdRecord {
    /// Table II #1 — task performing the op (from the shared context).
    pub task: TaskKey,
    /// Table II #2 — file operated on.
    pub file: FileKey,
    /// Table II #5 — operation verb.
    pub kind: IoKind,
    /// Table II #5 — file address (byte offset) of the op; 0 for lifecycle
    /// ops.
    pub offset: u64,
    /// Table II #5 — bytes moved (0 for lifecycle ops; new EOF for
    /// `Truncate`).
    pub len: u64,
    /// Table II #6 — metadata vs raw data.
    pub access: AccessType,
    /// Table II #7 — the semantic data object responsible, as published by
    /// the VOL layer through the shared context ("File-Metadata" when no
    /// object was in scope).
    pub object: ObjectKey,
    /// Op start time.
    pub start: Timestamp,
    /// Op end time.
    pub end: Timestamp,
}

crate::to_json!(VfdRecord {
    task,
    file,
    kind,
    offset,
    len,
    access,
    object,
    start,
    end
});

impl VfdRecord {
    /// Duration of the operation in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.since(self.start)
    }

    /// Achieved bandwidth in bytes/second, or `None` for instantaneous or
    /// zero-byte ops.
    pub fn bandwidth(&self) -> Option<f64> {
        let d = self.duration();
        if d == 0 || !self.kind.moves_data() || self.len == 0 {
            None
        } else {
            Some(self.len as f64 / (d as f64 / 1e9))
        }
    }
}

/// Table II parameters 3–4: per-(task, file) lifetime and aggregate
/// statistics, maintained incrementally by the VFD profiler as operations
/// stream through it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileRecord {
    /// Task that opened the file.
    pub task: TaskKey,
    /// The file.
    pub file: FileKey,
    /// Open→close interval (parameter 3). If the file was opened multiple
    /// times by the task, one interval per open.
    pub lifetimes: Vec<Interval>,
    /// Aggregate statistics (parameter 4).
    pub stats: FileStats,
}

crate::to_json!(FileRecord {
    task,
    file,
    lifetimes,
    stats
});

/// Traditional I/O metrics (size, count, sequentiality) per file.
#[derive(Clone, Debug, Default)]
pub struct FileStats {
    /// Number of read operations.
    pub read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Read/write ops whose offset equalled the previous op's end
    /// (sequential access detector).
    pub sequential_ops: u64,
    /// Metadata operations (reads+writes flagged `AccessType::Metadata`).
    pub metadata_ops: u64,
    /// Bytes moved by metadata operations.
    pub metadata_bytes: u64,
    /// Maximum file address touched + 1 (observed extent).
    pub max_address: u64,
    /// Offset immediately after the last data op (internal cursor for the
    /// sequentiality detector). Not serialized and excluded from equality.
    last_end: Option<u64>,
}

crate::to_json!(FileStats {
    read_ops,
    write_ops,
    bytes_read,
    bytes_written,
    sequential_ops,
    metadata_ops,
    metadata_bytes,
    max_address,
    ..
});

impl PartialEq for FileStats {
    fn eq(&self, other: &Self) -> bool {
        // `last_end` is a transient cursor, not part of the statistics.
        self.read_ops == other.read_ops
            && self.write_ops == other.write_ops
            && self.bytes_read == other.bytes_read
            && self.bytes_written == other.bytes_written
            && self.sequential_ops == other.sequential_ops
            && self.metadata_ops == other.metadata_ops
            && self.metadata_bytes == other.metadata_bytes
            && self.max_address == other.max_address
    }
}

impl FileStats {
    /// Folds one operation into the running statistics.
    pub fn record(&mut self, kind: IoKind, offset: u64, len: u64, access: AccessType) {
        if !kind.moves_data() {
            return;
        }
        match kind {
            IoKind::Read => {
                self.read_ops += 1;
                self.bytes_read += len;
            }
            IoKind::Write => {
                self.write_ops += 1;
                self.bytes_written += len;
            }
            _ => unreachable!("moves_data() excluded lifecycle ops"),
        }
        if access == AccessType::Metadata {
            self.metadata_ops += 1;
            self.metadata_bytes += len;
        }
        if self.last_end == Some(offset) {
            self.sequential_ops += 1;
        }
        self.last_end = Some(offset + len);
        self.max_address = self.max_address.max(offset + len);
    }

    /// Total data-moving operations.
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Fraction of data ops that were sequential, in `[0, 1]`.
    pub fn sequential_fraction(&self) -> f64 {
        let t = self.total_ops();
        if t == 0 {
            0.0
        } else {
            self.sequential_ops as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: IoKind, offset: u64, len: u64) -> VfdRecord {
        VfdRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("f"),
            kind,
            offset,
            len,
            access: AccessType::RawData,
            object: ObjectKey::new("/d"),
            start: Timestamp(100),
            end: Timestamp(300),
        }
    }

    #[test]
    fn record_duration_and_bandwidth() {
        let r = op(IoKind::Write, 4096, 512);
        assert_eq!(r.duration(), 200);
        assert_eq!(r.bandwidth(), Some(512.0 / 200e-9));
    }

    #[test]
    fn lifecycle_ops_have_no_bandwidth() {
        let r = op(IoKind::Open, 0, 0);
        assert_eq!(r.bandwidth(), None);
        assert!(!IoKind::Close.moves_data());
        assert!(IoKind::Read.moves_data());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = FileStats::default();
        s.record(IoKind::Write, 0, 100, AccessType::Metadata);
        s.record(IoKind::Write, 100, 400, AccessType::RawData); // sequential
        s.record(IoKind::Read, 0, 100, AccessType::Metadata); // seek back
        s.record(IoKind::Read, 100, 400, AccessType::RawData); // sequential
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.write_ops, 2);
        assert_eq!(s.bytes_read, 500);
        assert_eq!(s.bytes_written, 500);
        assert_eq!(s.metadata_ops, 2);
        assert_eq!(s.metadata_bytes, 200);
        assert_eq!(s.sequential_ops, 2);
        assert_eq!(s.sequential_fraction(), 0.5);
        assert_eq!(s.max_address, 500);
    }

    #[test]
    fn stats_ignore_lifecycle_ops() {
        let mut s = FileStats::default();
        s.record(IoKind::Open, 0, 0, AccessType::Metadata);
        s.record(IoKind::Flush, 0, 0, AccessType::Metadata);
        s.record(IoKind::Truncate, 0, 1 << 20, AccessType::Metadata);
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.sequential_fraction(), 0.0);
    }

    #[test]
    fn json_is_pinned() {
        let r = op(IoKind::Read, 10, 20);
        assert_eq!(
            crate::json::to_string(&r),
            r#"{"task":"t","file":"f","kind":"Read","offset":10,"len":20,"access":"RawData","object":"/d","start":100,"end":300}"#
        );
    }
}
