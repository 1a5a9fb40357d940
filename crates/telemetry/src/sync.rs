//! The workspace's one mutex, and so its one poison policy.
//!
//! Every lock in the repository guards a plain record — a probe log, a
//! counter block, a trace sink — that stays well formed whatever line a
//! holder panics on. A panic therefore does not make the value unusable:
//! [`Mutex::lock`] and [`Mutex::into_inner`] hand it over regardless, and
//! the panic itself surfaces where the thread is joined.

use std::sync::{MutexGuard, PoisonError};

/// `std::sync::Mutex` without the poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_lock_leaves_the_value_usable() {
        let shared = Arc::new(Mutex::new(vec![1u32]));
        let holder = Arc::clone(&shared);
        let died = std::thread::spawn(move || {
            let mut guard = holder.lock();
            guard.push(2);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());

        shared.lock().push(3);
        assert_eq!(*shared.lock(), [1, 2, 3]);
        let owned = Arc::try_unwrap(shared).expect("the holder is gone");
        assert_eq!(owned.into_inner(), [1, 2, 3]);
    }

    #[test]
    fn unsized_values_lock_through_a_shared_handle() {
        let shared: Arc<Mutex<dyn std::fmt::Debug + Send>> = Arc::new(Mutex::new(7u8));
        assert_eq!(format!("{:?}", &*shared.lock()), "7");
    }
}
