//! # dayu-vfd
//!
//! The Virtual File Driver (VFD) layer: every byte the self-describing
//! format library (`dayu-hdf`) reads or writes flows through the [`Vfd`]
//! trait defined here, exactly as HDF5 routes all low-level I/O through its
//! VFD plugin interface. This is the interception point for the paper's
//! low-level profiler: a wrapper driver (in `dayu-mapper`) records each
//! operation together with its file address, size, metadata/raw-data flag
//! and the responsible data object.
//!
//! Drivers provided:
//!
//! * [`MemVfd`] / [`MemFs`] — in-memory files shared across open/close
//!   cycles and across tasks, the substrate for deterministic workflow runs;
//! * [`FileVfd`] — a real `std::fs::File`, for measuring profiler overhead
//!   against an actual filesystem;
//! * [`FaultyVfd`] — fault injection for failure-path tests, driven by the
//!   seeded [`FaultSchedule`] chaos engine;
//! * [`CrashVfd`] — deterministic process-death simulation (torn writes,
//!   write-back cache loss) for crash-consistency tests.
//!
//! No driver here checks a replay: a replayed run records a trace like any
//! other, and `dayu_workflow::rerun` diffs that trace against the
//! recording afterwards.

pub mod crash;
pub mod faulty;
pub mod file;
pub mod mem;
pub mod retry;

pub use crash::{CrashController, CrashSchedule, CrashVfd};
pub use faulty::{ChaosRng, FaultInjector, FaultSchedule, FaultyVfd};
pub use file::FileVfd;
pub use mem::{MemFs, MemVfd};
pub use retry::RetryPolicy;

use dayu_trace::vfd::AccessType;
use std::fmt;

/// Errors surfaced by drivers.
#[derive(Debug)]
pub enum VfdError {
    /// Read past the end of file.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Current end of file.
        eof: u64,
    },
    /// An injected or real I/O failure.
    Io(std::io::Error),
    /// Driver was closed and used again.
    Closed,
}

impl fmt::Display for VfdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfdError::OutOfBounds { offset, len, eof } => write!(
                f,
                "read [{offset}, {}) past end of file ({eof})",
                offset + len
            ),
            VfdError::Io(e) => write!(f, "I/O error: {e}"),
            VfdError::Closed => write!(f, "driver already closed"),
        }
    }
}

impl std::error::Error for VfdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VfdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for VfdError {
    fn from(e: std::io::Error) -> Self {
        VfdError::Io(e)
    }
}

/// Driver result type.
pub type Result<T> = std::result::Result<T, VfdError>;

/// One open file image, addressed by byte offset.
///
/// Each operation carries an [`AccessType`] flag supplied by the format
/// library (which knows whether it is touching format metadata or dataset
/// payload); plain storage drivers ignore it, profiling wrappers record it
/// (Table II parameter 6).
pub trait Vfd: Send {
    /// Reads `buf.len()` bytes starting at `offset`. Reading any byte at or
    /// past end-of-file is an error ([`VfdError::OutOfBounds`]).
    fn read(&mut self, offset: u64, buf: &mut [u8], access: AccessType) -> Result<()>;

    /// Writes `data` at `offset`, extending the file if needed.
    fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> Result<()>;

    /// Current end-of-file (one past the highest written byte, or as set by
    /// [`Vfd::truncate`]).
    fn eof(&self) -> u64;

    /// Sets the end-of-file, discarding bytes beyond it or extending with
    /// zeros.
    fn truncate(&mut self, eof: u64) -> Result<()>;

    /// Forces buffered bytes down (no-op for memory drivers).
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Releases the file image. Further use is an error. Drivers that share
    /// backing storage (e.g. [`MemVfd`]) persist their contents for the next
    /// open.
    fn close(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Blanket forwarding so `Box<dyn Vfd>` is itself a `Vfd` (lets wrappers and
/// the format library be generic or boxed interchangeably).
impl Vfd for Box<dyn Vfd> {
    fn read(&mut self, offset: u64, buf: &mut [u8], access: AccessType) -> Result<()> {
        (**self).read(offset, buf, access)
    }
    fn write(&mut self, offset: u64, data: &[u8], access: AccessType) -> Result<()> {
        (**self).write(offset, data, access)
    }
    fn eof(&self) -> u64 {
        (**self).eof()
    }
    fn truncate(&mut self, eof: u64) -> Result<()> {
        (**self).truncate(eof)
    }
    fn flush(&mut self) -> Result<()> {
        (**self).flush()
    }
    fn close(&mut self) -> Result<()> {
        (**self).close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = VfdError::OutOfBounds {
            offset: 10,
            len: 5,
            eof: 12,
        };
        assert_eq!(e.to_string(), "read [10, 15) past end of file (12)");
        assert_eq!(VfdError::Closed.to_string(), "driver already closed");
        let io: VfdError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
    }

    #[test]
    fn boxed_vfd_forwards() {
        let mut v: Box<dyn Vfd> = Box::new(MemVfd::new());
        v.write(0, b"abc", AccessType::RawData).unwrap();
        let mut buf = [0u8; 3];
        v.read(0, &mut buf, AccessType::RawData).unwrap();
        assert_eq!(&buf, b"abc");
        assert_eq!(v.eof(), 3);
        v.truncate(1).unwrap();
        assert_eq!(v.eof(), 1);
        v.flush().unwrap();
        v.close().unwrap();
    }
}
