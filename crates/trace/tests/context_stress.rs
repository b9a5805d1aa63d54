//! Many-thread stress test for `SharedContext` — readers of the paper's
//! shared-memory VOL→VFD channel must see only objects a writer published,
//! and nested scopes must restore exactly, no matter how many writer and
//! reader threads hammer one shared handle.

use dayu_trace::SharedContext;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const WRITERS: usize = 4;
const READERS: usize = 4;
const ITERS: usize = 5_000;

/// Every writer publishes only objects from this table, so any object a
/// reader's snapshot names must be one of them.
const OBJECTS: [&str; 4] = ["/w0/meta", "/w0/raw", "/w1/meta", "/w1/raw"];

#[test]
fn readers_see_only_published_objects_under_many_threads() {
    let ctx = SharedContext::new();
    ctx.set_task("stress");
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let ctx = ctx.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    let object = OBJECTS[(w + i) % OBJECTS.len()];
                    // Alternate flat and nested scopes to exercise the
                    // save/restore stack as well as the fast path.
                    if i % 3 == 0 {
                        ctx.enter_object(object);
                        ctx.enter_object(OBJECTS[(w + i + 1) % OBJECTS.len()]);
                        ctx.exit_object();
                        ctx.exit_object();
                    } else {
                        ctx.with_object(object, || {});
                    }
                }
            });
        }
        let stop = &stop;
        let observed = &observed;
        for _ in 0..READERS {
            let ctx = ctx.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = ctx.snapshot();
                    assert_eq!(snap.task.as_ref().map(|t| t.as_str()), Some("stress"));
                    if let Some(o) = &snap.object {
                        assert!(OBJECTS.contains(&o.as_str()), "unpublished object {o}");
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // Writers are the first WRITERS spawned handles; once the scope's
        // writer threads are done, release the readers. Joining happens
        // implicitly at scope end, so flag completion from a monitor thread.
        let ctx_done = ctx.clone();
        s.spawn(move || {
            // The monitor just waits for quiescence: after every writer
            // exits all its scopes the object must be None; poll until the
            // snapshot stays empty, then stop the readers.
            loop {
                std::thread::yield_now();
                if ctx_done.snapshot().object.is_none() {
                    // Writers may still be mid-loop; give them a moment and
                    // re-check a few times before declaring quiescence.
                    if (0..100).all(|_| {
                        std::thread::yield_now();
                        ctx_done.snapshot().object.is_none()
                    }) {
                        stop.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
        });
    });

    // After all scopes unwound, the context is back to just the task.
    let end = ctx.snapshot();
    assert_eq!(end.task.as_ref().map(|t| t.as_str()), Some("stress"));
    assert_eq!(end.object, None);
}

#[test]
fn nested_scopes_restore_exactly_while_contended() {
    // One thread runs a deterministic nest; others churn their own clones
    // of a *different* context to verify instances do not interfere.
    let shared = SharedContext::new();
    let noise = SharedContext::new();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let noise = noise.clone();
            s.spawn(move || {
                for _ in 0..ITERS {
                    noise.with_object("/noise", || {});
                }
            });
        }
        let shared = &shared;
        s.spawn(move || {
            for _ in 0..ITERS {
                shared.enter_object("/a");
                shared.enter_object("/b");
                let snap = shared.snapshot();
                assert_eq!(snap.object.as_ref().map(|o| o.as_str()), Some("/b"));
                shared.exit_object();
                let snap = shared.snapshot();
                assert_eq!(snap.object.as_ref().map(|o| o.as_str()), Some("/a"));
                shared.exit_object();
                assert_eq!(shared.snapshot().object, None);
            }
        });
    });
    assert_eq!(noise.snapshot().object, None);
}
