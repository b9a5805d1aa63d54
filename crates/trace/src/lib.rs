//! # dayu-trace
//!
//! Trace data model for the DaYu framework.
//!
//! This crate defines the two record families the paper's Data Semantic
//! Mapper collects:
//!
//! * **VOL records** ([`vol::VolRecord`]) — object-level semantics captured by
//!   the high-level (Virtual Object Layer) profiler, covering the six
//!   parameters of Table I of the paper: task name, file name, object name,
//!   object lifetime, object description, and object accesses.
//! * **VFD records** ([`vfd::VfdRecord`]) — file-level I/O semantics captured
//!   by the low-level (Virtual File Driver) profiler, covering the seven
//!   parameters of Table II: task name, file name, file lifetime, file
//!   statistics, I/O operations (with file address regions), access type
//!   (metadata vs raw data), and the data object responsible.
//!
//! It also provides the [`context::SharedContext`] — the analogue of the
//! shared-memory channel the paper uses to communicate the *current data
//! object* from the VOL layer down to the VFD layer so that each low-level
//! operation can be attributed to the semantic object that caused it — and
//! the [`store::TraceBundle`] container used by the Workflow Analyzer,
//! persisted as `.dtb` ([`binary`]) and exported as JSON Lines, and the
//! [`json`] writer every JSON document goes through.

pub mod binary;
pub mod context;
pub mod ids;
pub mod intern;
pub mod json;
pub mod rng;
pub mod section;
pub mod sha256;
pub mod store;
pub mod sync;
pub mod time;
pub mod vfd;
pub mod vol;
pub mod wire;

pub use context::SharedContext;
pub use ids::{FileKey, ObjectKey, TaskKey};
pub use intern::{Symbol, SymbolMap, SymbolSet};
pub use section::{decode_section, SectionDecodeError};
pub use sha256::{sha256, Sha256};
pub use store::{RecordSink, TraceBundle, TraceMeta, TraceOrigin};
pub use time::{Clock, ManualClock, RealClock, Timestamp};
pub use vfd::{AccessType, FileRecord, IoKind, VfdRecord};
pub use vol::{ObjectDescription, ObjectKind, VolAccess, VolAccessKind, VolRecord};
