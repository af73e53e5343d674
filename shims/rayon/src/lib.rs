#![warn(missing_docs)]

//! Offline shim for the slice of `rayon` the fleet executor uses: [`scope`]
//! and [`Scope::spawn`].
//!
//! The build environment has no crates.io access, so this maps the API onto
//! `std::thread::scope`. Two deliberate divergences from real rayon:
//!
//! * there is no work-stealing pool — every `spawn` is an OS thread, so
//!   callers should spawn a few long-lived workers that pull from a shared
//!   queue rather than one task per item (which is what the fleet does);
//! * `Scope` carries the extra `'env` lifetime `std::thread::scope`
//!   requires; rayon's single-lifetime `Scope<'scope>` is strictly more
//!   permissive, so code written against this shim also compiles against
//!   real rayon, not necessarily vice versa.

/// A scope handle that can spawn borrowing tasks; all tasks are joined
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope. The task
    /// receives a scope handle so it can spawn further tasks.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        self.inner.spawn(move || f(&Scope { inner }));
    }
}

/// Runs `op` with a scope whose spawned tasks may borrow local state; every
/// task completes before `scope` returns.
///
/// # Panics
/// Propagates panics from spawned tasks, like `std::thread::scope`.
pub fn scope<'env, OP, R>(op: OP) -> R
where
    OP: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R + Send,
    R: Send,
{
    std::thread::scope(|s| op(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_tasks() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_spawn_works() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s2| {
                counter.fetch_add(1, Ordering::Relaxed);
                s2.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }
}
