//! The VOL → VFD communication channel.
//!
//! HDF5's abstraction layers make direct communication between a VOL plugin
//! and a VFD plugin "inherently difficult"; the paper bridges them with a
//! region of shared memory through which the VOL layer publishes the *current
//! task* and *current data object* so the VFD profiler can attribute every
//! low-level operation to its semantic cause. Whether an operation touches
//! metadata or raw data reaches the driver with the call itself, as HDF5's
//! `H5FD_mem_t` does, so the channel does not carry it.
//!
//! [`SharedContext`] is the in-process analogue: a cheaply clonable handle to
//! shared state written by the high-level layer (object open/read/write) and
//! read by the low-level profiler on every I/O operation. Readers take no
//! lock. The task and the innermost object are each published as one
//! atomic word, the interned symbol's index plus one (zero for none), so
//! [`SharedContext::task`] (every VOL event) is one acquire load and
//! [`SharedContext::snapshot`] (every VFD op) two. Writers that push or pop
//! a scope serialize under the scope stack's mutex, so nested scopes
//! restore exactly. DESIGN.md's record-path section has the measurement.

use crate::ids::{ObjectKey, TaskKey};
use crate::intern::Symbol;
use crate::sync::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot of what the high-level layer is currently doing, as visible to
/// the low-level profiler.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContextSnapshot {
    /// The task the workflow launcher announced, if any.
    pub task: Option<TaskKey>,
    /// The data object whose operation is in progress, if any.
    pub object: Option<ObjectKey>,
}

/// An optional symbol in one word: its index plus one, zero for none.
fn pack(symbol: Option<Symbol>) -> u64 {
    symbol.map_or(0, |s| u64::from(s.index()) + 1)
}

/// The inverse of [`pack`].
fn unpack(word: u64) -> Option<Symbol> {
    word.checked_sub(1)
        .map(|index| Symbol::from_index(index as u32))
}

#[derive(Debug, Default)]
struct Inner {
    /// The announced task, packed.
    task: AtomicU64,
    /// The innermost object, packed. Stored only while `stack` is locked.
    scope: AtomicU64,
    /// The packed objects of the enclosing scopes, so nested VOL
    /// operations (e.g. reading a chunk index while writing a dataset)
    /// restore the outer object on exit.
    stack: Mutex<Vec<u64>>,
}

/// Shared state through which the VOL layer labels VFD operations.
///
/// Clones share the same state. One `SharedContext` per *task* (thread of
/// application activity) is the intended granularity, matching the paper
/// where statistics are "collected as entries in a hash table in the
/// duration of the task".
#[derive(Clone, Debug, Default)]
pub struct SharedContext {
    inner: Arc<Inner>,
}

impl SharedContext {
    /// A fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces the current task. The workflow launcher or the application
    /// must call this before the task performs I/O (paper: "The workflow
    /// launcher or application must inform DaYu of the current task").
    pub fn set_task(&self, task: impl Into<TaskKey>) {
        let word = pack(Some(task.into().symbol()));
        self.inner.task.store(word, Ordering::Release);
    }

    /// Clears the current task (end of task).
    pub fn clear_task(&self) {
        self.inner.task.store(pack(None), Ordering::Release);
    }

    /// The currently announced task, if any.
    pub fn task(&self) -> Option<TaskKey> {
        unpack(self.inner.task.load(Ordering::Acquire)).map(TaskKey::from_symbol)
    }

    /// Pushes an object scope: all VFD operations until the matching
    /// [`SharedContext::exit_object`] are attributed to `object`. Scopes
    /// nest; the outer attribution is restored on exit.
    pub fn enter_object(&self, object: impl Into<ObjectKey>) {
        let word = pack(Some(object.into().symbol()));
        let mut stack = lock(&self.inner.stack);
        stack.push(self.inner.scope.load(Ordering::Relaxed));
        self.inner.scope.store(word, Ordering::Release);
    }

    /// Pops the innermost object scope.
    pub fn exit_object(&self) {
        let mut stack = lock(&self.inner.stack);
        let outer = stack.pop().unwrap_or_else(|| pack(None));
        self.inner.scope.store(outer, Ordering::Release);
    }

    /// Snapshot of the current attribution, taken by the VFD profiler when
    /// recording an operation.
    pub fn snapshot(&self) -> ContextSnapshot {
        let object = unpack(self.inner.scope.load(Ordering::Acquire));
        ContextSnapshot {
            task: self.task(),
            object: object.map(ObjectKey::from_symbol),
        }
    }

    /// Runs `f` inside an object scope; exception-safe convenience over
    /// `enter_object`/`exit_object`.
    pub fn with_object<R>(&self, object: impl Into<ObjectKey>, f: impl FnOnce() -> R) -> R {
        self.enter_object(object);
        let guard = ScopeGuard { ctx: self };
        let r = f();
        drop(guard);
        r
    }
}

struct ScopeGuard<'a> {
    ctx: &'a SharedContext,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.ctx.exit_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_context_snapshot() {
        let ctx = SharedContext::new();
        let s = ctx.snapshot();
        assert_eq!(s.task, None);
        assert_eq!(s.object, None);
    }

    #[test]
    fn task_set_and_clear() {
        let ctx = SharedContext::new();
        ctx.set_task("openmm_0");
        assert_eq!(ctx.task(), Some(TaskKey::new("openmm_0")));
        ctx.clear_task();
        assert_eq!(ctx.task(), None);
    }

    #[test]
    fn object_scopes_nest_and_restore() {
        let ctx = SharedContext::new();
        ctx.enter_object("/outer");
        ctx.enter_object("/inner");
        assert_eq!(ctx.snapshot().object, Some(ObjectKey::new("/inner")));
        ctx.exit_object();
        assert_eq!(ctx.snapshot().object, Some(ObjectKey::new("/outer")));
        ctx.exit_object();
        assert_eq!(ctx.snapshot().object, None);
    }

    #[test]
    fn unbalanced_exit_is_harmless() {
        let ctx = SharedContext::new();
        ctx.exit_object();
        ctx.exit_object();
        assert_eq!(ctx.snapshot().object, None);
    }

    #[test]
    fn with_object_restores_on_return() {
        let ctx = SharedContext::new();
        let out = ctx.with_object("/d", || {
            assert_eq!(ctx.snapshot().object, Some(ObjectKey::new("/d")));
            7
        });
        assert_eq!(out, 7);
        assert_eq!(ctx.snapshot().object, None);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedContext::new();
        let b = a.clone();
        a.set_task("t");
        assert_eq!(b.task(), Some(TaskKey::new("t")));
        b.enter_object("/x");
        assert_eq!(a.snapshot().object, Some(ObjectKey::new("/x")));
    }

    #[test]
    fn readers_see_only_published_objects() {
        let ctx = SharedContext::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..2000 {
                    ctx.enter_object(if i % 2 == 0 { "/even" } else { "/odd" });
                    ctx.exit_object();
                }
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            s.spawn(|| {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Some(o) = ctx.snapshot().object {
                        assert!(["/even", "/odd"].contains(&o.as_str()), "{o}");
                    }
                }
            });
        });
    }
}
