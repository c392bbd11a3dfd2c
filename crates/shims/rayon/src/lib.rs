#![warn(missing_docs)]
//! Offline stand-in for the `rayon` crate.
//!
//! The build container has no registry access, so this shim implements the
//! subset of the rayon 1.x API the workspace uses — the scoped fork-join
//! core that `cinct::engine::QueryEngine` parallelizes batches with:
//!
//! * [`scope`] / [`Scope::spawn`], mapped onto [`std::thread::scope`];
//! * [`current_num_threads`], mapped onto
//!   [`std::thread::available_parallelism`].
//!
//! One addition the real crate does not have: [`spawned_tasks`], a
//! process-wide count of [`Scope::spawn`] calls. Each task is an OS thread
//! here, so a test can assert that a code path creates none
//! (`crates/core/tests/query_spawns.rs` does, for the query paths).
//!
//! Differences from the real crate: there is no global work-stealing pool —
//! every `spawn` is an OS thread for the duration of the scope. Callers
//! therefore spawn **one task per chunk of work** (at most one per desired
//! thread), not one per item; `QueryEngine` already chunks this way, which
//! also gives identical scheduling under the real crate. Swap the
//! workspace `rayon` path dependency for the registry crate when network
//! access is available.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Tasks spawned since process start (a statistic: publishes no data).
static SPAWNED: AtomicU64 = AtomicU64::new(0);

/// How many tasks [`Scope::spawn`] has started in this process — on this
/// shim, how many OS threads the workspace's parallel code has created.
pub fn spawned_tasks() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

/// A scope for spawning parallel tasks that may borrow from the caller's
/// stack. Created by [`scope`]; tasks may spawn further tasks through the
/// reference they receive.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Run `body` in parallel with the caller. The task receives a scope
    /// reference so it can spawn nested tasks, mirroring rayon's API.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        SPAWNED.fetch_add(1, Ordering::Relaxed);
        let inner = self.inner;
        inner.spawn(move || {
            let nested = Scope { inner };
            body(&nested);
        });
    }
}

/// Create a fork-join scope: tasks spawned inside all complete before
/// `scope` returns. Panics in tasks propagate to the caller (via the
/// joining `std::thread::scope`), as with the real crate.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    thread::scope(|s| {
        let wrapper = Scope { inner: s };
        op(&wrapper)
    })
}

/// Number of threads a parallel scope can usefully occupy — the machine's
/// available parallelism (the real crate reports its global pool size).
///
/// Resolved **once per process** and cached: `available_parallelism` is a
/// syscall, and callers on serving hot paths (`QueryEngine::run`, the
/// `cinct serve` request loop) consult the knob per batch/request. The
/// real rayon crate sizes its global pool once at startup, so caching
/// also matches upstream semantics.
pub fn current_num_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolve a user-facing thread-count knob under the workspace's shared
/// convention: **`0` means "auto"** (the machine's available parallelism,
/// [`current_num_threads`]); any other value is taken literally. Every
/// thread knob in the workspace — `QueryEngine::parallel`,
/// `ShardedBuilder::threads`, the server's worker count — routes through
/// this so the convention cannot drift between layers.
pub fn resolve_threads(n: usize) -> usize {
    if n == 0 {
        current_num_threads()
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_tasks() {
        let spawned_before = spawned_tasks();
        let counter = AtomicUsize::new(0);
        let total: usize = scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            42
        });
        assert_eq!(total, 42);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        // Other tests in this process spawn too, so at least these eight.
        assert!(spawned_tasks() >= spawned_before + 8);
    }

    #[test]
    fn tasks_can_borrow_and_write_disjoint_chunks() {
        let mut out = vec![0usize; 100];
        scope(|s| {
            for (i, chunk) in out.chunks_mut(30).enumerate() {
                s.spawn(move |_| {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = i * 1000 + k;
                    }
                });
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i / 30) * 1000 + i % 30);
        }
    }

    #[test]
    fn nested_spawns() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn zero_resolves_to_auto() {
        assert_eq!(resolve_threads(0), current_num_threads());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
