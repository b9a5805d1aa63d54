//! Lightweight interned keys identifying tasks, files and data objects.
//!
//! DaYu correlates records from two independent profiling layers (VOL and
//! VFD) and across many tasks of a workflow. Correlation happens by *name*:
//! the task name supplied by the workflow launcher, the file name, and the
//! full object path inside the file (e.g. `/group/dataset`). These newtypes
//! keep the three name spaces from being mixed up.
//!
//! Since the overhead overhaul, each key holds a [`Symbol`] — an index into
//! the process-wide interner — instead of an owned `String`. Cloning a key
//! (which the VFD profiler does three times per recorded operation) is a
//! `u32` copy, equality and hashing are integer operations, and `as_str`
//! resolves through the interner without allocating. The public API is
//! unchanged: keys still construct from anything string-like, display as
//! their name, order lexicographically, and are written to JSON as plain
//! strings.

use crate::intern::Symbol;
use crate::json::{ToJson, Writer};
use std::fmt;

macro_rules! string_key {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        pub struct $name(Symbol);

        impl $name {
            /// Creates a key from anything string-like, interning the name.
            pub fn new(s: impl AsRef<str>) -> Self {
                Self(Symbol::intern(s.as_ref()))
            }

            /// The underlying name.
            pub fn as_str(&self) -> &'static str {
                self.0.as_str()
            }

            /// The interned symbol behind this key (integer identity within
            /// this process; used by borrow-keyed indexes and the binary
            /// trace store).
            pub fn symbol(&self) -> Symbol {
                self.0
            }

            /// Wraps an already-interned symbol.
            pub fn from_symbol(sym: Symbol) -> Self {
                Self(sym)
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self(Symbol::intern(""))
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $name {
            /// Lexicographic by name (symbols themselves order by interning
            /// time, which would be nondeterministic across runs).
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                if self.0 == other.0 {
                    std::cmp::Ordering::Equal
                } else {
                    self.as_str().cmp(other.as_str())
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }

        impl ToJson for $name {
            fn write_json(&self, w: &mut Writer) {
                w.string(self.as_str());
            }
        }
    };
}

string_key!(
    /// The name of a workflow task, as announced to DaYu by the workflow
    /// launcher or the application itself (the paper notes "the workflow
    /// launcher or application must inform DaYu of the current task").
    TaskKey
);

string_key!(
    /// The name of a file a task interacts with.
    FileKey
);

string_key!(
    /// The full path of a data object (group, dataset or attribute) within a
    /// file, e.g. `/simulation/contact_map`.
    ObjectKey
);

impl ObjectKey {
    /// Object key used for I/O that cannot be attributed to any data object
    /// (e.g. superblock reads before any object is open). Grouped under the
    /// pseudo-object the paper's SDGs label "File-Metadata". The symbol is
    /// cached: this sits on the per-operation record path.
    pub fn file_metadata() -> Self {
        use std::sync::OnceLock;
        static FM: OnceLock<Symbol> = OnceLock::new();
        Self(*FM.get_or_init(|| Symbol::intern("File-Metadata")))
    }

    /// Returns the last path component (the object's leaf name).
    pub fn leaf(&self) -> &str {
        let s = self.as_str();
        s.rsplit('/').next().unwrap_or(s)
    }

    /// Returns the parent path, or `None` when the key has no `/` separator
    /// or is the root.
    pub fn parent(&self) -> Option<&str> {
        let s = self.as_str();
        let idx = s.rfind('/')?;
        if idx == 0 {
            if s.len() > 1 {
                Some("/")
            } else {
                None
            }
        } else {
            Some(&s[..idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let t = TaskKey::new("run_gettracks");
        assert_eq!(t.to_string(), "run_gettracks");
        assert_eq!(t.as_str(), "run_gettracks");
    }

    #[test]
    fn object_leaf_and_parent() {
        let o = ObjectKey::new("/group/inner/dataset");
        assert_eq!(o.leaf(), "dataset");
        assert_eq!(o.parent(), Some("/group/inner"));

        let top = ObjectKey::new("/dataset");
        assert_eq!(top.leaf(), "dataset");
        assert_eq!(top.parent(), Some("/"));

        let root = ObjectKey::new("/");
        assert_eq!(root.parent(), None);

        let bare = ObjectKey::new("dataset");
        assert_eq!(bare.leaf(), "dataset");
        assert_eq!(bare.parent(), None);
    }

    #[test]
    fn keys_are_distinct_types() {
        // Compile-time property; runtime sanity that conversions work.
        let f: FileKey = "a.h5".into();
        let o: ObjectKey = String::from("/d").into();
        assert_eq!(f.as_ref(), "a.h5");
        assert_eq!(o.as_ref(), "/d");
    }

    #[test]
    fn json_is_a_plain_string() {
        let f = FileKey::new("file.h5");
        assert_eq!(crate::json::to_string(&f), "\"file.h5\"");
    }

    #[test]
    fn file_metadata_pseudo_object() {
        assert_eq!(ObjectKey::file_metadata().as_str(), "File-Metadata");
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Intern in reverse order so symbol indices disagree with
        // lexicographic order — Ord must still compare by name.
        let b = TaskKey::new("lexico-b");
        let a = TaskKey::new("lexico-a");
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clones_share_the_symbol() {
        let t = TaskKey::new("shared");
        let c = t.clone();
        assert_eq!(t.symbol(), c.symbol());
        assert_eq!(TaskKey::from_symbol(t.symbol()), t);
    }
}
