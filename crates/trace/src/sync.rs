//! The one way the workspace takes a `std::sync` lock, and its one
//! parallel map.
//!
//! A panic while a lock is held poisons it, and std's `lock()`, `read()`
//! and `write()` then return an error on every later call. These helpers
//! take the guard back out of the error instead, so one panicking caller
//! (a bug, or a test that expects a panic) does not fail every caller
//! after it. No lock in the workspace uses poisoning to detect a torn
//! update.
//!
//! [`par_map`] maps independent items on scoped threads and keeps their
//! order: a stage's tasks and h5bench's ranks go through it.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Locks `m`, recovering the guard if a panic poisoned it.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes shared access to `l`, recovering the guard if a panic poisoned it.
#[inline]
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Takes exclusive access to `l`, recovering the guard if a panic
/// poisoned it.
#[inline]
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set while this thread maps items for a [`par_map`] call.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a [`par_map`] worker until dropped, also
/// when the mapped closure panics, so a caller that catches the panic
/// gets its parallelism back.
struct Worker {
    was: bool,
}

impl Worker {
    fn enter() -> Self {
        Self {
            was: IN_WORKER.with(|w| w.replace(true)),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.was));
    }
}

/// The machine's available parallelism, read once per process: each read
/// can cost tens of microseconds (cgroup files), and the stage runner
/// asks once per stage.
fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Maps every item through `f` and returns the results in input order.
///
/// `min(width, items.len())` scoped threads pull items from one shared
/// queue, the caller among them, where the width is the machine's
/// available parallelism. A call with fewer than two items, or one made
/// from inside another `par_map`'s `f`, runs on the caller alone, so
/// nesting never oversubscribes the machine. A panic in `f` is re-raised
/// here once every thread has stopped.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_on(width(), items, f)
}

/// [`par_map`] at a given width.
fn par_map_on<T: Sync, R: Send>(width: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = width.min(items.len());
    if threads < 2 || IN_WORKER.with(Cell::get) {
        return items.iter().map(f).collect();
    }
    // The shared queue is an index into `items`. `Relaxed` suffices: the
    // counter publishes no data, and results come back through the joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = Worker::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => done.push((i, f(item))),
                None => return done,
            }
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic;

    #[test]
    fn a_panic_under_the_lock_does_not_poison_later_callers() {
        let m = Mutex::new(1);
        let l = RwLock::new(1);
        let _ = panic::catch_unwind(|| {
            let _g = lock(&m);
            let _w = write(&l);
            panic!("poison both");
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        *lock(&m) += 1;
        *write(&l) += 1;
        assert_eq!(*lock(&m), 2);
        assert_eq!(*read(&l), 2);
    }

    /// Whether two items of one call run at once: item 0 waits for item 1's
    /// signal, which only a second thread can send (the timeout turns a
    /// serial run into a failure, not a hang).
    fn runs_two_at_once(width: usize) -> bool {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let items: Vec<usize> = (0..8).collect();
        let out = par_map_on(width, &items, |&i| match i {
            0 => lock(&rx)
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok(),
            1 => tx.send(()).is_ok(),
            _ => true,
        });
        out.iter().all(|&ok| ok)
    }

    #[test]
    fn two_items_run_at_once_from_width_two() {
        for width in [2, 4, 8] {
            assert!(runs_two_at_once(width), "width {width}");
        }
    }

    #[test]
    fn order_and_results_do_not_depend_on_width() {
        let items: Vec<u64> = (0..1000).collect();
        // Uneven work, so threads finish items out of order.
        let f = |&x: &u64| (0..x % 17).fold(x, |a, b| a.wrapping_mul(31).wrapping_add(b));
        let serial: Vec<u64> = items.iter().map(f).collect();
        for width in [1, 2, 4, 8] {
            assert_eq!(par_map_on(width, &items, f), serial, "width {width}");
        }
        assert_eq!(par_map(&items, f), serial);
        assert!(par_map_on(4, &[] as &[u64], f).is_empty());
    }

    #[test]
    fn width_one_and_single_items_run_on_the_caller() {
        let caller = std::thread::current().id();
        let items = [1, 2, 3];
        let on = par_map_on(1, &items, |_| std::thread::current().id());
        assert!(on.iter().all(|t| *t == caller));
        let on = par_map_on(8, &items[..1], |_| std::thread::current().id());
        assert_eq!(on, [caller]);
    }

    #[test]
    fn a_nested_call_runs_inline() {
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..4).collect();
        let out = par_map_on(4, &outer, |&i| {
            let me = std::thread::current().id();
            let threads = par_map_on(4, &inner, |_| std::thread::current().id());
            assert!(
                threads.iter().all(|t| *t == me),
                "nested call left its thread"
            );
            par_map_on(4, &inner, |&j| i * 10 + j)
        });
        let want: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn a_panic_in_a_worker_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        for width in [1, 2, 4] {
            let err = panic::catch_unwind(|| {
                par_map_on(width, &items, |&i| {
                    assert!(i != 11, "item eleven");
                    i
                })
            })
            .expect_err("the panic propagates");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| err.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("item eleven"), "width {width}");
        }
        // The caller is not left marked as a worker: a later call still
        // runs on more than one thread.
        assert!(runs_two_at_once(2));
    }
}
