//! The one wait primitive behind the event-driven paths: a mutex-guarded
//! value with a condvar signalled on every change, so a thread waits for
//! the state it needs instead of polling for it. Also [`lock`], the one
//! way a mutex is taken.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `m`, entering it even when it is poisoned. Every lock in the
/// workspace is taken through this one function.
///
/// A panic caught by the supervisor (DESIGN §7) can poison a lock that the
/// operator's restart, the elastic supervisor or a results reader must
/// take next. Each of them restores the value it needs or reads one that
/// any single assignment leaves valid; a thread that panicked on poison
/// instead would turn one thread's failure into a hang or an abort in the
/// thread trying to clean up after it.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A mutex-guarded value with a condvar for waiting on changes to it. Its
/// lock is entered even when poisoned, for the reason given at [`lock`].
#[derive(Debug, Default)]
pub struct Watched<T> {
    value: Mutex<T>,
    changed: Condvar,
}

impl<T> Watched<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Watched {
            value: Mutex::new(value),
            changed: Condvar::new(),
        }
    }

    /// Locks the value.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        lock(&self.value)
    }

    /// Applies `f` under the lock, then wakes every waiter.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let ret = f(&mut self.lock());
        self.changed.notify_all();
        ret
    }

    /// Releases `guard` until the next [`update`](Watched::update). Wake-ups
    /// can be spurious: call in a loop on the awaited condition.
    pub fn wait<'a>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// [`wait`](Watched::wait) that also returns once `timeout` has passed.
    pub fn wait_timeout<'a>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        self.changed
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Waits while `pending` holds of the value, for at most `timeout`;
    /// the caller reads from the returned guard which of the two ended it.
    pub fn wait_timeout_while(
        &self,
        timeout: Duration,
        pending: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'_, T> {
        self.changed
            .wait_timeout_while(self.lock(), timeout, pending)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn an_update_wakes_a_waiter_long_before_its_deadline() {
        let flag = Arc::new(Watched::new(false));
        let theirs = Arc::clone(&flag);
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            let set = *theirs.wait_timeout_while(Duration::from_secs(60), |set| !*set);
            (set, t0.elapsed())
        });
        flag.update(|set| *set = true);
        let (set, waited) = waiter.join().unwrap();
        assert!(set);
        assert!(waited < Duration::from_secs(30), "waited {waited:?}");
    }

    #[test]
    fn a_timed_wait_ends_without_an_update() {
        let flag = Watched::new(false);
        assert!(!*flag.wait_timeout_while(Duration::from_millis(5), |set| !*set));
        let guard = flag.wait_timeout(flag.lock(), Duration::from_millis(5));
        assert!(!*guard);
    }

    #[test]
    fn a_poisoned_lock_is_still_usable() {
        fn take(w: &Watched<u32>, free: bool) -> MutexGuard<'_, u32> {
            if free {
                lock(&w.value)
            } else {
                w.lock()
            }
        }
        for free in [false, true] {
            let count = Arc::new(Watched::new(0));
            let theirs = Arc::clone(&count);
            let _ = std::thread::spawn(move || {
                let _guard = take(&theirs, free);
                panic!("poison the lock");
            })
            .join();
            assert!(count.value.is_poisoned());
            assert_eq!(
                count.update(|n| {
                    *n += 1;
                    *n
                }),
                1
            );
            assert_eq!(*take(&count, free), 1);
        }
    }
}
