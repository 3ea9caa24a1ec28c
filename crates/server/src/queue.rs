//! Bounded admission queue with micro-batch draining.
//!
//! This is the daemon's only buffer between the network and the model, so
//! its capacity *is* the admission-control policy: `try_push` never
//! blocks and never allocates past the cap — a full queue is an immediate
//! [`PushError::Full`], which the HTTP layer turns into `429`. Memory is
//! therefore bounded by `capacity × sizeof(job)` no matter how hard
//! clients push.
//!
//! The consumer side implements the micro-batch window: [`drain_batch`]
//! blocks until at least one job is queued, then keeps collecting only
//! while some producer holds an [`Arrival`] — a request partway through
//! arriving that could still join the batch — and stops at `max_batch`
//! jobs or `window` past the first one, whichever comes first. A lone
//! request with nothing else in flight is drained at once; the window is
//! only an upper bound, paid in full just when an arrival never completes.
//!
//! [`drain_batch`]: BatchQueue::drain_batch

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed load now rather than buffer.
    Full,
    /// The queue has been closed for shutdown.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    /// Live [`Arrival`] guards: requests that may still be pushed.
    arriving: usize,
    closed: bool,
}

/// A fixed-capacity MPSC queue whose consumer drains in micro-batches.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    arrived: Condvar,
}

fn lock_recover<'a, T>(m: &'a Mutex<State<T>>) -> MutexGuard<'a, State<T>> {
    // Queue state is a plain VecDeque, a count and a flag; no invariant
    // can be broken mid-panic, so a poisoned lock is safe to adopt.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> BatchQueue<T> {
    pub fn new(capacity: usize) -> BatchQueue<T> {
        BatchQueue {
            state: Mutex::new(State { items: VecDeque::new(), arriving: 0, closed: false }),
            capacity: capacity.max(1),
            arrived: Condvar::new(),
        }
    }

    /// The admission cap this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently waiting (racy by nature; for stats only).
    pub fn len(&self) -> usize {
        lock_recover(&self.state).items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking. Full or closed queues refuse immediately.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.arrived.notify_all();
        Ok(())
    }

    /// Announce a request that has started to arrive. Until the guard is
    /// dropped, `drain_batch` keeps an open batch waiting for it (up to
    /// its window), so drop it as soon as the job is pushed or known never
    /// to be.
    pub fn arrival(&self) -> Arrival<'_, T> {
        lock_recover(&self.state).arriving += 1;
        Arrival { queue: self }
    }

    /// Close the queue: future pushes fail, and `drain_batch` returns
    /// whatever is left, then `None`.
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.arrived.notify_all();
    }

    /// Block until at least one job arrives, then collect up to
    /// `max_batch` jobs while an [`Arrival`] is live, for at most `window`
    /// past the first job.
    /// Returns `None` once the queue is closed *and* drained — the
    /// consumer's shutdown signal.
    pub fn drain_batch(&self, max_batch: usize, window: Duration) -> Option<Vec<T>> {
        let max_batch = max_batch.max(1);
        let mut state = lock_recover(&self.state);
        loop {
            if !state.items.is_empty() {
                break;
            }
            if state.closed {
                return None;
            }
            state = self
                .arrived
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        let deadline = Instant::now() + window;
        while state.items.len() < max_batch && state.arriving > 0 && !state.closed {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, timeout) = self
                .arrived
                .wait_timeout(state, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let n = state.items.len().min(max_batch);
        Some(state.items.drain(..n).collect())
    }
}

/// A request partway through arriving; see [`BatchQueue::arrival`].
/// Dropping it wakes the batcher, which closes its batch once no arrival
/// is left.
pub struct Arrival<'a, T> {
    queue: &'a BatchQueue<T>,
}

impl<T> Drop for Arrival<'_, T> {
    fn drop(&mut self) {
        lock_recover(&self.queue.state).arriving -= 1;
        self.queue.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_buffering() {
        let q = BatchQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_respects_max_batch_and_leaves_the_rest() {
        let q = BatchQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let batch = q.drain_batch(3, Duration::from_millis(0)).unwrap();
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_remaining_then_signals_shutdown() {
        let q = BatchQueue::new(4);
        q.try_push("job").unwrap();
        q.close();
        assert_eq!(q.try_push("late"), Err(PushError::Closed));
        assert_eq!(q.drain_batch(10, Duration::from_millis(0)), Some(vec!["job"]));
        assert_eq!(q.drain_batch(10, Duration::from_millis(0)), None);
    }

    #[test]
    fn consumer_wakes_on_push_from_another_thread() {
        let q = Arc::new(BatchQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.drain_batch(4, Duration::from_millis(1)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42u32).unwrap();
        let batch = consumer.join().expect("consumer panicked").unwrap();
        assert_eq!(batch, vec![42]);
    }

    #[test]
    fn window_collects_stragglers_into_one_batch() {
        let q = Arc::new(BatchQueue::new(16));
        q.try_push(0).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                q.try_push(1).unwrap();
            })
        };
        // A generous window should pick up the straggler in the same batch.
        let batch = q.drain_batch(16, Duration::from_millis(500)).unwrap();
        producer.join().expect("producer panicked");
        // The straggler lands in this batch (common) or the next (legal);
        // either way nothing is lost.
        let mut seen = batch;
        if seen.len() < 2 {
            seen.extend(q.drain_batch(16, Duration::from_millis(0)).unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    /// Far longer than any test should take: a drain that returns well
    /// before it was closed by the arrival rule, not by the window.
    const LONG_WINDOW: Duration = Duration::from_secs(10);

    fn well_before_window(started: Instant) {
        let waited = started.elapsed();
        assert!(waited < LONG_WINDOW / 2, "drain waited {waited:?}, as if for the window");
    }

    #[test]
    fn lone_job_with_nothing_arriving_drains_at_once() {
        let q = BatchQueue::new(8);
        q.try_push(7).unwrap();
        let started = Instant::now();
        assert_eq!(q.drain_batch(32, LONG_WINDOW), Some(vec![7]));
        well_before_window(started);
    }

    #[test]
    fn held_arrival_joins_the_open_batch() {
        let q = BatchQueue::new(8);
        q.try_push(0).unwrap();
        let arrival = q.arrival();
        let started = Instant::now();
        let batch = std::thread::scope(|scope| {
            scope.spawn(|| {
                let arrival = arrival;
                std::thread::sleep(Duration::from_millis(50));
                q.try_push(1).unwrap();
                drop(arrival);
            });
            q.drain_batch(32, LONG_WINDOW)
        });
        assert_eq!(batch, Some(vec![0, 1]));
        well_before_window(started);
    }

    #[test]
    fn arrival_dropped_without_a_push_releases_the_batch() {
        let q = BatchQueue::new(8);
        q.try_push(0).unwrap();
        let arrival = q.arrival();
        let started = Instant::now();
        let batch = std::thread::scope(|scope| {
            scope.spawn(|| {
                let arrival = arrival;
                std::thread::sleep(Duration::from_millis(50));
                drop(arrival); // e.g. the request was answered 400
            });
            q.drain_batch(32, LONG_WINDOW)
        });
        assert_eq!(batch, Some(vec![0]));
        well_before_window(started);
    }

    #[test]
    fn arrival_never_released_costs_exactly_one_window() {
        let q = BatchQueue::new(8);
        let _stalled = q.arrival();
        q.try_push(0).unwrap();
        let window = Duration::from_millis(100);
        let started = Instant::now();
        assert_eq!(q.drain_batch(32, window), Some(vec![0]));
        let waited = started.elapsed();
        assert!(waited >= window, "returned after {waited:?}, before the window");
        assert!(waited < LONG_WINDOW / 2, "waited {waited:?}, far past the window");
    }
}
