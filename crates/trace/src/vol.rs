//! Object-level (VOL profiler) records — Table I of the paper.
//!
//! | # | Parameter          | Goal                                        |
//! |---|--------------------|---------------------------------------------|
//! | 1 | Task Name          | Create file–task relationship               |
//! | 2 | File Name          | Create file–task relationship               |
//! | 3 | Object Name        | Map I/O operations to data object           |
//! | 4 | Object Lifetime    | Maintain temporal relationships             |
//! | 5 | Object Description | Enrich data object semantics                |
//! | 6 | Object Access      | Record application memory/object utilization|

use crate::ids::{FileKey, ObjectKey, TaskKey};
use crate::time::{Interval, Timestamp};

/// What kind of data object a VOL record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// The file itself (open/close bracket).
    File,
    /// A group (container of other objects).
    Group,
    /// A dataset holding actual data.
    Dataset,
    /// An attribute attached to another object.
    Attribute,
}

crate::to_json!(
    enum ObjectKind {
        File,
        Group,
        Dataset,
        Attribute,
    }
);

/// Storage layout of a dataset, mirroring HDF5's options. Which layout a
/// dataset uses is the pivotal semantic input to the paper's data-format
/// optimization guidelines (Section III-A.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Data stored inline in the object header; only for tiny datasets.
    Compact,
    /// One contiguous file extent.
    #[default]
    Contiguous,
    /// Fixed-size chunks, each an independent extent located via an index.
    Chunked,
}

crate::to_json!(
    enum LayoutKind {
        Compact,
        Contiguous,
        Chunked,
    }
);

/// Element type stored by a dataset. `VarLen` marks variable-length data —
/// the fragmentation-prone case the paper's Challenge 3 highlights.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Fixed-width integer of the given byte width.
    Int {
        /// Bytes per element (1, 2, 4 or 8).
        width: u8,
    },
    /// IEEE float of the given byte width.
    Float {
        /// Bytes per element (4 or 8).
        width: u8,
    },
    /// Fixed-length string / opaque bytes of the given length.
    FixedBytes {
        /// Bytes per element.
        len: u32,
    },
    /// Variable-length element; each element is a (length, global-heap
    /// reference) descriptor pointing at out-of-line bytes.
    VarLen,
}

impl DataType {
    /// In-dataset bytes per element. For `VarLen` this is the size of the
    /// descriptor (length + heap reference), not the payload.
    pub fn element_size(&self) -> u64 {
        match self {
            DataType::Int { width } | DataType::Float { width } => *width as u64,
            DataType::FixedBytes { len } => *len as u64,
            DataType::VarLen => 16,
        }
    }

    /// Whether elements are variable-length.
    pub fn is_varlen(&self) -> bool {
        matches!(self, DataType::VarLen)
    }
}

crate::to_json!(enum DataType { Int { width }, Float { width }, FixedBytes { len }, VarLen });

/// Table I parameter 5: shape, type, size and layout of a data object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectDescription {
    /// Dataspace dimensions (empty for groups/files).
    pub shape: Vec<u64>,
    /// Element datatype, when the object is a dataset or attribute.
    pub dtype: Option<DataType>,
    /// Logical data size in bytes (product of shape × element size, or the
    /// accumulated variable-length payload size).
    pub logical_size: u64,
    /// Storage layout, when the object is a dataset.
    pub layout: Option<LayoutKind>,
    /// Chunk dimensions when `layout == Chunked`.
    pub chunk_shape: Vec<u64>,
}

crate::to_json!(ObjectDescription {
    shape,
    dtype,
    logical_size,
    layout,
    chunk_shape
});

impl ObjectDescription {
    /// Whether every field is at its default, i.e. nothing was described.
    /// Checked field by field: the mapper asks on every reopen, and `==`
    /// on two empty `Vec`s costs far more than `is_empty`.
    pub fn is_default(&self) -> bool {
        let ObjectDescription {
            shape,
            dtype,
            logical_size,
            layout,
            chunk_shape,
        } = self;
        shape.is_empty()
            && dtype.is_none()
            && *logical_size == 0
            && layout.is_none()
            && chunk_shape.is_empty()
    }

    /// Number of logical elements (product of the shape; 1 for scalars).
    pub fn element_count(&self) -> u64 {
        if self.shape.is_empty() {
            1
        } else {
            self.shape.iter().product()
        }
    }
}

/// Whether an application-level access read or wrote object data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VolAccessKind {
    /// The task read from the object.
    Read,
    /// The task wrote to the object.
    Write,
}

crate::to_json!(
    enum VolAccessKind {
        Read,
        Write,
    }
);

/// Table I parameter 6: application-level read/write activity on a data
/// object. Repeated accesses with the same kind and selection merge into
/// one entry with `count` incremented, which is what keeps the VOL trace's
/// storage footprint near-constant however often a dataset is re-read
/// (paper Fig. 9d).
#[derive(Clone, Debug, PartialEq)]
pub struct VolAccess {
    /// Read or write.
    pub kind: VolAccessKind,
    /// Number of accesses this entry summarizes (≥ 1).
    pub count: u64,
    /// Total logical bytes moved by these accesses.
    pub bytes: u64,
    /// Hyperslab offset per dimension (empty = whole object).
    pub sel_offset: Vec<u64>,
    /// Hyperslab extent per dimension (empty = whole object).
    pub sel_count: Vec<u64>,
    /// When the access happened.
    pub at: Timestamp,
}

crate::to_json!(VolAccess {
    kind,
    count,
    bytes,
    sel_offset,
    sel_count,
    at
});

impl VolAccess {
    /// Whether `other` is a repeat of this access pattern (same kind and
    /// selection) and can merge into this entry. The mapper asks on every
    /// access, mostly with empty selections, so the selections are
    /// compared by length and then element by element rather than with
    /// `Vec`'s `==`, which is slow on two empty vectors.
    pub fn same_pattern(&self, other: &VolAccess) -> bool {
        fn same(a: &[u64], b: &[u64]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
        }
        self.kind == other.kind
            && same(&self.sel_offset, &other.sel_offset)
            && same(&self.sel_count, &other.sel_count)
    }

    /// Folds a repeat access into this entry.
    pub fn fold(&mut self, other: &VolAccess) {
        debug_assert!(self.same_pattern(other));
        self.count += other.count;
        self.bytes += other.bytes;
        self.at = self.at.max(other.at);
    }
}

/// One Table I record: everything the VOL profiler knows about one data
/// object as used by one task within one file.
#[derive(Clone, Debug, PartialEq)]
pub struct VolRecord {
    /// Table I #1 — the accessing task.
    pub task: TaskKey,
    /// Table I #2 — the containing file.
    pub file: FileKey,
    /// Table I #3 — the object's full path.
    pub object: ObjectKey,
    /// What kind of object this is.
    pub kind: ObjectKind,
    /// Table I #4 — acquisition→release interval. A single logical object
    /// opened and closed repeatedly by the same task yields one lifetime per
    /// open/close pair; see [`VolRecord::merge_same_object`].
    pub lifetimes: Vec<Interval>,
    /// Table I #5 — semantic description.
    pub description: ObjectDescription,
    /// Table I #6 — application-level accesses.
    pub accesses: Vec<VolAccess>,
}

crate::to_json!(VolRecord {
    task,
    file,
    object,
    kind,
    lifetimes,
    description,
    accesses
});

impl VolRecord {
    /// Total bytes read by the application through this object.
    pub fn bytes_read(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.kind == VolAccessKind::Read)
            .map(|a| a.bytes)
            .sum()
    }

    /// Total bytes written by the application through this object.
    pub fn bytes_written(&self) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.kind == VolAccessKind::Write)
            .map(|a| a.bytes)
            .sum()
    }

    /// Number of accesses of the given kind (summing merged entries).
    pub fn access_count(&self, kind: VolAccessKind) -> u64 {
        self.accesses
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.count)
            .sum()
    }

    /// Folds `other` (a later open/close of the same `(task, file, object)`)
    /// into this record, concatenating lifetimes and accesses. Panics if the
    /// identity triple differs — merging records of different objects is a
    /// logic error.
    pub fn merge_same_object(&mut self, other: VolRecord) {
        assert_eq!(
            (&self.task, &self.file, &self.object),
            (&other.task, &other.file, &other.object),
            "merge_same_object requires identical (task, file, object)"
        );
        self.lifetimes.extend(other.lifetimes);
        self.accesses.extend(other.accesses);
        // Keep the richer description (a create carries more detail than a
        // bare open).
        if self.description.is_default() {
            self.description = other.description;
        }
    }

    /// First-write/first-read classification used by FTG edge direction:
    /// `(reads_any, writes_any)`.
    pub fn direction(&self) -> (bool, bool) {
        (
            self.accesses.iter().any(|a| a.kind == VolAccessKind::Read),
            self.accesses.iter().any(|a| a.kind == VolAccessKind::Write),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VolRecord {
        VolRecord {
            task: TaskKey::new("t"),
            file: FileKey::new("f.h5"),
            object: ObjectKey::new("/d"),
            kind: ObjectKind::Dataset,
            lifetimes: vec![Interval::new(Timestamp(0), Timestamp(10))],
            description: ObjectDescription {
                shape: vec![4, 8],
                dtype: Some(DataType::Float { width: 8 }),
                logical_size: 256,
                layout: Some(LayoutKind::Contiguous),
                chunk_shape: vec![],
            },
            accesses: vec![
                VolAccess {
                    kind: VolAccessKind::Write,
                    count: 1,
                    bytes: 256,
                    sel_offset: vec![],
                    sel_count: vec![],
                    at: Timestamp(1),
                },
                VolAccess {
                    kind: VolAccessKind::Read,
                    count: 1,
                    bytes: 64,
                    sel_offset: vec![0, 0],
                    sel_count: vec![1, 8],
                    at: Timestamp(2),
                },
            ],
        }
    }

    #[test]
    fn byte_accounting() {
        let r = sample();
        assert_eq!(r.bytes_written(), 256);
        assert_eq!(r.bytes_read(), 64);
        assert_eq!(r.access_count(VolAccessKind::Read), 1);
        assert_eq!(r.direction(), (true, true));
    }

    #[test]
    fn element_sizes() {
        assert_eq!(DataType::Int { width: 4 }.element_size(), 4);
        assert_eq!(DataType::FixedBytes { len: 100 }.element_size(), 100);
        assert_eq!(DataType::VarLen.element_size(), 16);
        assert!(DataType::VarLen.is_varlen());
        assert!(!DataType::Float { width: 8 }.is_varlen());
    }

    #[test]
    fn description_element_count() {
        let d = ObjectDescription {
            shape: vec![4, 8],
            ..Default::default()
        };
        assert_eq!(d.element_count(), 32);
        assert_eq!(ObjectDescription::default().element_count(), 1);
    }

    #[test]
    fn default_description_is_detected_field_by_field() {
        assert!(ObjectDescription::default().is_default());
        assert!(!sample().description.is_default());
        let sized = ObjectDescription {
            logical_size: 1,
            ..Default::default()
        };
        assert!(!sized.is_default());
        let chunked = ObjectDescription {
            chunk_shape: vec![4],
            ..Default::default()
        };
        assert!(!chunked.is_default());
    }

    #[test]
    fn same_pattern_compares_kind_and_selection() {
        let access = |kind, sel_offset: Vec<u64>, sel_count: Vec<u64>| VolAccess {
            kind,
            count: 1,
            bytes: 8,
            sel_offset,
            sel_count,
            at: Timestamp(0),
        };
        let read = VolAccessKind::Read;
        // Empty vs empty: whole-object repeats merge.
        assert!(access(read, vec![], vec![]).same_pattern(&access(read, vec![], vec![])));
        // Empty vs [0]: a selection is not the whole object.
        assert!(!access(read, vec![], vec![]).same_pattern(&access(read, vec![0], vec![])));
        assert!(!access(read, vec![0], vec![]).same_pattern(&access(read, vec![], vec![])));
        assert!(!access(read, vec![], vec![]).same_pattern(&access(read, vec![], vec![0])));
        // Equal non-empty selections merge; any differing element does not.
        let a = access(read, vec![2, 0], vec![1, 8]);
        assert!(a.same_pattern(&access(read, vec![2, 0], vec![1, 8])));
        assert!(!a.same_pattern(&access(read, vec![2, 1], vec![1, 8])));
        assert!(!a.same_pattern(&access(read, vec![2, 0], vec![1, 9])));
        // A different kind never merges.
        assert!(!a.same_pattern(&access(VolAccessKind::Write, vec![2, 0], vec![1, 8])));
        let empty_write = access(VolAccessKind::Write, vec![], vec![]);
        assert!(!access(read, vec![], vec![]).same_pattern(&empty_write));
    }

    #[test]
    fn merge_concatenates_lifetimes_and_accesses() {
        let mut a = sample();
        let mut b = sample();
        b.lifetimes = vec![Interval::new(Timestamp(20), Timestamp(30))];
        a.merge_same_object(b);
        assert_eq!(a.lifetimes.len(), 2);
        assert_eq!(a.accesses.len(), 4);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn merge_rejects_different_objects() {
        let mut a = sample();
        let mut b = sample();
        b.object = ObjectKey::new("/other");
        a.merge_same_object(b);
    }

    #[test]
    fn json_is_pinned() {
        assert_eq!(
            crate::json::to_string(&sample()),
            r#"{"task":"t","file":"f.h5","object":"/d","kind":"Dataset","lifetimes":[{"start":0,"end":10}],"description":{"shape":[4,8],"dtype":{"Float":{"width":8}},"logical_size":256,"layout":"Contiguous","chunk_shape":[]},"accesses":[{"kind":"Write","count":1,"bytes":256,"sel_offset":[],"sel_count":[],"at":1},{"kind":"Read","count":1,"bytes":64,"sel_offset":[0,0],"sel_count":[1,8],"at":2}]}"#
        );
    }
}
