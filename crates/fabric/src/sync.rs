//! Poison-free locking primitives.
//!
//! Thin wrappers over `std::sync` with the `parking_lot` calling
//! convention (`lock()` / `read()` / `write()` return guards directly).
//! A panicking lock holder aborts the experiment anyway, so instead of
//! propagating `PoisonError` through every registry call site we recover
//! the guard: the protected structures are left consistent by design
//! (every critical section either completes or the process is tearing
//! down).

use std::sync::{self, LockResult};

/// Unwrap a lock acquisition, recovering the guard from a poisoned lock.
fn recover<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// New mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        recover(self.0.lock())
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// New lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.0.get_mut())
    }
}

impl<T: Clone> Clone for RwLock<T> {
    fn clone(&self) -> Self {
        RwLock::new(self.read().clone())
    }
}

impl<T: Clone> Clone for Mutex<T> {
    fn clone(&self) -> Self {
        Mutex::new(self.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the next lock() succeeds.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn clone_clones_contents() {
        let l = RwLock::new(7);
        let c = l.clone();
        *l.write() = 9;
        assert_eq!(*c.read(), 7);
    }
}
