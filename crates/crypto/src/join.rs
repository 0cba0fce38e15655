//! Fork-join for the two halves of a CRT private-key operation on the
//! portable kernel.
//!
//! Where the CPU has AVX-512 IFMA, a private-key operation runs both
//! halves on the calling thread on the two-stream kernel
//! ([`crate::bignum::Montgomery::pow_pair`]) and never comes here, so
//! no helper is started. What remains are CPUs without IFMA and the
//! mul-only reference path (`RsaPrivateKey::sign_digest_mul_only`).
//!
//! [`join`] offers the second half to long-lived helper threads, one
//! per core beyond the first, while the calling thread computes the
//! first half. When the caller is done it takes the second half back if
//! no helper has started it yet, so an operation never waits for a
//! helper that is not running. On an idle host a helper starts at once
//! and the halves overlap; when every core is busy the caller usually
//! runs both halves itself, as if there were no helpers. Helpers start
//! on first use and stay parked while nothing is on offer. Reusing them
//! avoids creating and tearing down a thread, with its stack and signal
//! stack mappings, on every operation.

use crate::bignum::Uint;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// A second half on offer: the closure until someone takes it, then
/// the helper's outcome once it has run.
struct Task {
    job: Mutex<Option<Box<dyn FnOnce() -> Uint + Send>>>,
    outcome: Mutex<Option<thread::Result<Uint>>>,
    done: Condvar,
}

/// Tasks on offer, oldest first. A task the caller took back stays
/// queued until a helper pops and skips it.
static QUEUE: Mutex<VecDeque<Arc<Task>>> = Mutex::new(VecDeque::new());
/// Signalled when a task is queued.
static READY: Condvar = Condvar::new();
/// Helpers running: zero on a one-core host or if none could be spawned.
static HELPERS: OnceLock<usize> = OnceLock::new();

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // No lock here is held across a job, so a poisoned lock still
    // guards consistent data.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn helpers() -> usize {
    *HELPERS.get_or_init(|| {
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        (1..cores)
            .take_while(|_| thread::Builder::new().name("crt-helper".into()).spawn(serve).is_ok())
            .count()
    })
}

/// A helper's loop: take the oldest task, run it unless the caller took
/// it back, publish the result or the panic and wake the caller.
fn serve() {
    loop {
        let task = {
            let mut queue = lock(&QUEUE);
            loop {
                match queue.pop_front() {
                    Some(task) => break task,
                    None => queue = READY.wait(queue).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        let Some(job) = lock(&task.job).take() else {
            continue;
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(job));
        *lock(&task.outcome) = Some(outcome);
        task.done.notify_one();
    }
}

/// Runs `first` on the calling thread and `second` on a helper if one
/// picks it up before `first` returns, otherwise on the calling thread
/// afterwards; the results are the same either way. A panic in
/// `second` on a helper resumes on the caller.
pub(crate) fn join(
    first: impl FnOnce() -> Uint,
    second: impl FnOnce() -> Uint + Send + 'static,
) -> (Uint, Uint) {
    if helpers() == 0 {
        return (first(), second());
    }
    let task = Arc::new(Task {
        job: Mutex::new(Some(Box::new(second))),
        outcome: Mutex::new(None),
        done: Condvar::new(),
    });
    lock(&QUEUE).push_back(Arc::clone(&task));
    READY.notify_one();
    let a = first();
    let taken_back = lock(&task.job).take();
    if let Some(job) = taken_back {
        return (a, job());
    }
    let mut outcome = lock(&task.outcome);
    loop {
        match outcome.take() {
            Some(Ok(b)) => return (a, b),
            Some(Err(panic)) => panic::resume_unwind(panic),
            None => outcome = task.done.wait(outcome).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn results_keep_their_sides() {
        for i in 0..64u64 {
            let (a, b) = join(|| Uint::from_u64(i), move || Uint::from_u64(i + 1000));
            assert_eq!((a, b), (Uint::from_u64(i), Uint::from_u64(i + 1000)));
        }
    }

    #[test]
    fn second_half_runs_on_a_helper_when_one_is_free() {
        // The first half waits until the second has started, which
        // only a helper can do while the caller is still in the first.
        let (started, wait) = mpsc::channel();
        let caller = thread::current().id();
        let (a, b) = join(
            || {
                let helped = wait.recv_timeout(Duration::from_secs(10)).is_ok();
                Uint::from_u64(u64::from(helped))
            },
            move || {
                let on_helper = thread::current().id() != caller;
                let _ = started.send(());
                Uint::from_u64(u64::from(on_helper))
            },
        );
        let helped = helpers() > 0;
        assert_eq!(a, Uint::from_u64(u64::from(helped)));
        assert_eq!(b, Uint::from_u64(u64::from(helped)));
    }

    #[test]
    fn helper_panic_resumes_on_the_caller_and_the_helper_survives() {
        for _ in 0..4 {
            let outcome = panic::catch_unwind(|| {
                join(Uint::one, || -> Uint { panic!("second half failed") })
            });
            let payload = outcome.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"second half failed"));
        }
        let (a, b) = join(|| Uint::from_u64(2), || Uint::from_u64(3));
        assert_eq!((a, b), (Uint::from_u64(2), Uint::from_u64(3)));
    }
}
