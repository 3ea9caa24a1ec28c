//! Deterministic scoped work-stealing parallelism for the Auto-Suggest
//! pipeline.
//!
//! The offline pipeline is embarrassingly parallel at three grains —
//! notebooks (replay), candidates (join enumeration / scoring), and whole
//! model families trained side by side ([`join`]). This crate provides the
//! one substrate all of them share, built on `std::thread::scope` with **no
//! external dependencies** and one hard guarantee:
//!
//! > **Determinism contract.** Every combinator returns results in input
//! > order and bit-identical to the sequential execution, regardless of
//! > thread count, scheduling, or steal order. Parallelism never changes
//! > *what* is computed, only *when*.
//!
//! The contract holds because work items only write to their own output
//! slot (keyed by input index), and callers fold the returned vector in
//! input order after the parallel map completes. Anything order-sensitive
//! (floating point accumulation, tie-breaking) therefore behaves exactly
//! as in the sequential loop.
//!
//! ## Scheduling
//!
//! Each call carves the input into contiguous chunks (a few per worker)
//! and deals them round-robin onto per-worker deques. Workers drain their
//! own deque LIFO-from-front and, when empty, steal from the back of
//! sibling deques — classic work-stealing at chunk granularity, which
//! keeps the common case contention-free while still balancing skewed
//! workloads (one huge notebook no longer serialises the tail).
//!
//! Workers are spawned per call via `std::thread::scope`, so closures may
//! borrow freely from the caller. Spawn cost (~tens of µs) is amortised by
//! the [`SEQ_CUTOFF`] guard: small inputs run inline on the caller thread.
//!
//! ## Thread-count knobs
//!
//! Priority order: [`set_thread_override`] (tests/benches) >
//! `AUTOSUGGEST_THREADS` (read once per process) >
//! `std::thread::available_parallelism()`.
//!
//! ## Fault isolation
//!
//! Every task body runs under `catch_unwind`, so one panicking item can
//! never poison the work queues or abort sibling items: all remaining
//! chunks are still executed. [`Pool::par_map`] re-raises the first panic
//! (in input order) once the whole input has been processed — a panic is a
//! programming error and should surface — while [`Pool::par_try_map`]
//! converts panics into per-item `Err` values via [`TaskPanic`], which is
//! what batch pipelines (notebook replay) use to degrade gracefully.
//! Mutex poisoning is recovered rather than propagated, so a panic on one
//! worker can never cascade into `PoisonError` panics on its siblings.

use autosuggest_obs as obs;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Inputs smaller than this run inline: thread spawn overhead would exceed
/// the win. Callers with very cheap per-item work should pass higher
/// `min_items` to [`Pool::with_min_items`] instead of tuning this.
const SEQ_CUTOFF: usize = 2;

/// Chunks dealt per worker; >1 so stealing has something to grab.
const CHUNKS_PER_WORKER: usize = 4;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

/// A panic captured from a pool task, demoted to a value so sibling tasks
/// keep running. `index` is the input position of the panicking item;
/// `message` is the stringified panic payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    pub index: usize,
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`&str` and `String` payloads cover `panic!` in practice).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock a mutex, recovering from poisoning: a panic elsewhere must not
/// cascade into `PoisonError` panics on healthy workers. The guarded data
/// (queue indices / result slots) is always in a consistent state because
/// no task code runs while a lock is held.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Force the global thread count (0 / `None` clears the override).
/// Intended for tests and benches that sweep thread counts in-process;
/// production code should use the `AUTOSUGGEST_THREADS` environment
/// variable instead.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

fn env_threads() -> Option<usize> {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("AUTOSUGGEST_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The effective worker count for new pool invocations.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A (stateless) handle bundling scheduling parameters. Cheap to construct;
/// the worker threads themselves are scoped to each call.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
    min_items: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// Pool honouring the global knobs (override > env > hardware).
    pub fn global() -> Pool {
        Pool { threads: current_threads(), min_items: SEQ_CUTOFF }
    }

    /// Pool with an explicit worker count (still ≥1).
    pub fn with_threads(threads: usize) -> Pool {
        Pool { threads: threads.max(1), min_items: SEQ_CUTOFF }
    }

    /// Raise the sequential cutoff for cheap per-item work.
    pub fn with_min_items(mut self, min_items: usize) -> Pool {
        self.min_items = min_items.max(SEQ_CUTOFF);
        self
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, returning results in input order.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Map `f` over `0..n`, returning results in index order. The most
    /// general entry point — everything else lowers to it.
    ///
    /// If an item panics, the remaining items still run to completion and
    /// the first panic **in input order** is re-raised afterwards, so the
    /// caller observes the same panic the sequential loop would (modulo
    /// trailing items), and sibling work is never lost to queue poisoning.
    pub fn par_map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let caught = self.run_indexed_catch(n, &f);
        let mut out = Vec::with_capacity(n);
        for item in caught {
            match item {
                Ok(v) => out.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        debug_assert_eq!(out.len(), n);
        out
    }

    /// Fallible map preserving deterministic ordering of successes *and*
    /// failures: `out[i]` is exactly `f(&items[i])`, with a panic in item
    /// `i` demoted to `Err(E::from(TaskPanic))`. One broken item never
    /// aborts or reorders its siblings, at any thread count.
    pub fn par_try_map<T, U, E, F>(&self, items: &[T], f: F) -> Vec<Result<U, E>>
    where
        T: Sync,
        U: Send,
        E: Send + From<TaskPanic>,
        F: Fn(&T) -> Result<U, E> + Sync,
    {
        let caught = self.run_indexed_catch(items.len(), &|i| f(&items[i]));
        caught
            .into_iter()
            .enumerate()
            .map(|(index, r)| match r {
                Ok(inner) => inner,
                Err(payload) => Err(E::from(TaskPanic {
                    index,
                    message: panic_message(payload.as_ref()),
                })),
            })
            .collect()
    }

    /// The scheduling core: map `f` over `0..n` with every call guarded by
    /// `catch_unwind`, returning per-item results in index order. Runs
    /// inline below the parallel cutoff (identical catch semantics, so
    /// behaviour never depends on thread count).
    fn run_indexed_catch<U, F>(&self, n: usize, f: &F) -> Vec<Result<U, Box<dyn Any + Send>>>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let guarded = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i)));
        let workers = self.threads.min(n);
        if workers <= 1 || n < self.min_items {
            return (0..n).map(guarded).collect();
        }

        // Workers inherit the submitting thread's observability context,
        // so spans opened inside tasks nest under the caller's span and
        // metrics land in the caller's registry — span structure stays
        // identical to the inline path above at any thread count.
        let ambient = obs::ambient();

        // Deal contiguous chunks round-robin onto per-worker deques.
        let chunk_size = n.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        let chunks: Vec<(usize, usize)> = (0..n)
            .step_by(chunk_size)
            .map(|start| (start, (start + chunk_size).min(n)))
            .collect();
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (ci, _) in chunks.iter().enumerate() {
            lock_recover(&queues[ci % workers]).push_back(ci);
        }

        type Caught<U> = Result<U, Box<dyn Any + Send>>;
        let results: Mutex<Vec<(usize, Vec<Caught<U>>)>> =
            Mutex::new(Vec::with_capacity(chunks.len()));
        let guarded = &guarded;
        let chunks = &chunks;
        let queues = &queues;
        let results_ref = &results;

        std::thread::scope(|scope| {
            for w in 0..workers {
                let ambient = ambient.clone();
                scope.spawn(move || {
                    obs::with_ambient(&ambient, || {
                        let mut local: Vec<(usize, Vec<Caught<U>>)> = Vec::new();
                        loop {
                            // Own queue first (front), then steal (back)
                            // from siblings in ring order.
                            let mut claimed: Option<usize> = None;
                            for probe in 0..workers {
                                let qi = (w + probe) % workers;
                                let mut q = lock_recover(&queues[qi]);
                                claimed =
                                    if probe == 0 { q.pop_front() } else { q.pop_back() };
                                if claimed.is_some() {
                                    break;
                                }
                            }
                            let Some(ci) = claimed else { break };
                            let (start, end) = chunks[ci];
                            local.push((start, (start..end).map(guarded).collect()));
                        }
                        if !local.is_empty() {
                            lock_recover(results_ref).extend(local);
                        }
                    });
                });
            }
        });

        let mut parts = results.into_inner().unwrap_or_else(|p| p.into_inner());
        parts.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(n);
        for (_, part) in parts {
            out.extend(part);
        }
        debug_assert_eq!(out.len(), n);
        out
    }

    /// Run `a` and `b` side by side and return both results: `b` on one
    /// scoped worker, `a` on the calling thread — or, at one thread,
    /// inline, `a` then `b`. Both run under the caller's observability
    /// context. A panic in either is caught; once both have finished, the
    /// first (`a`'s before `b`'s) is re-raised.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        let (ra, rb) = if self.threads <= 1 {
            (catch_unwind(AssertUnwindSafe(a)), catch_unwind(AssertUnwindSafe(b)))
        } else {
            let ambient = obs::ambient();
            std::thread::scope(|scope| {
                let worker = scope.spawn(move || {
                    obs::with_ambient(&ambient, || catch_unwind(AssertUnwindSafe(b)))
                });
                let ra = catch_unwind(AssertUnwindSafe(a));
                (ra, worker.join().unwrap_or_else(Err))
            })
        };
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
        }
    }
}

/// [`Pool::par_map`] on the global pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    Pool::global().par_map(items, f)
}

/// [`Pool::par_map_indexed`] on the global pool.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    Pool::global().par_map_indexed(n, f)
}

/// [`Pool::join`] on the global pool.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    Pool::global().join(a, b)
}

/// [`Pool::par_try_map`] on the global pool.
pub fn par_try_map<T, U, E, F>(items: &[T], f: F) -> Vec<Result<U, E>>
where
    T: Sync,
    U: Send,
    E: Send + From<TaskPanic>,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    Pool::global().par_try_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 16] {
            let got = Pool::with_threads(threads).par_map(&items, |&x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_propagates_ambient_spans_to_workers() {
        let items: Vec<u64> = (0..64).collect();
        let (sum, snap) = obs::with_local_registry(|| {
            let _outer = obs::span("outer");
            let mapped = Pool::with_threads(4).par_map(&items, |&x| {
                let _task = obs::span("task");
                obs::counter_add("tasks", 1);
                x
            });
            mapped.iter().sum::<u64>()
        });
        assert_eq!(sum, items.iter().sum::<u64>());
        assert_eq!(snap.counters.get("tasks"), Some(&(items.len() as u64)));
        let task = snap.spans.get("outer/task").copied().unwrap_or_default();
        assert_eq!(
            task.calls,
            items.len() as u64,
            "worker spans must nest under the submitting span: {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_indexed_handles_edge_sizes() {
        for n in [0usize, 1, 2, 3, 7] {
            let got = Pool::with_threads(4).par_map_indexed(n, |i| i * 2);
            assert_eq!(got, (0..n).map(|i| i * 2).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn skewed_workloads_are_stolen() {
        // One item is 1000x heavier; with stealing, the other workers must
        // still process the remaining items (this is a liveness/correctness
        // smoke test — timing is not asserted).
        let items: Vec<u64> = (0..64).collect();
        let counter = AtomicU64::new(0);
        let got = Pool::with_threads(4).par_map(&items, |&x| {
            let spins = if x == 0 { 200_000 } else { 200 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(i ^ x));
            }
            counter.fetch_add(1, Ordering::Relaxed);
            (x, acc & 1)
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        assert_eq!(got.len(), 64);
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn override_beats_env() {
        set_thread_override(Some(3));
        assert_eq!(current_threads(), 3);
        assert_eq!(Pool::global().threads(), 3);
        set_thread_override(None);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn panics_propagate_not_deadlock() {
        // One item panics; the panic must reach the caller, but every
        // sibling item must still have run (no aborted chunks, no poisoned
        // queues) and the pool must stay fully usable afterwards.
        let items: Vec<usize> = (0..64).collect();
        let completed = AtomicU64::new(0);
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).par_map(&items, |&i| {
                if i == 33 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert!(result.is_err());
        let payload = result.unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            63,
            "sibling tasks must complete despite the panic"
        );
        // The pool is stateless per call, but this also proves no global
        // state (env cache, override) was corrupted by the unwind.
        let again = Pool::with_threads(4).par_map(&items, |&i| i + 1);
        assert_eq!(again, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn first_panic_in_input_order_wins() {
        // Items 7 and 50 both panic; regardless of which worker hits which
        // first, the re-raised payload must be item 7's (input order).
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let result = std::panic::catch_unwind(|| {
                Pool::with_threads(threads).par_map(&items, |&i| {
                    if i == 7 || i == 50 {
                        panic!("boom-{i}");
                    }
                    i
                })
            });
            let payload = result.unwrap_err();
            assert_eq!(panic_message(payload.as_ref()), "boom-7", "threads={threads}");
        }
    }

    #[test]
    fn par_try_map_isolates_panics_and_errors_deterministically() {
        #[derive(Debug, PartialEq)]
        enum E {
            Odd(usize),
            Panic(String),
        }
        impl From<TaskPanic> for E {
            fn from(p: TaskPanic) -> E {
                E::Panic(format!("{}@{}", p.message, p.index))
            }
        }
        let items: Vec<usize> = (0..97).collect();
        let run = |threads: usize| {
            Pool::with_threads(threads).par_try_map(&items, |&i| {
                if i % 10 == 3 {
                    panic!("injected {i}");
                }
                if i % 2 == 1 {
                    return Err(E::Odd(i));
                }
                Ok(i * 2)
            })
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
        assert_eq!(one[0], Ok(0));
        assert_eq!(one[1], Err(E::Odd(1)));
        assert_eq!(one[3], Err(E::Panic("injected 3@3".into())));
        assert_eq!(one.len(), 97);
        // Every slot is filled: successes and failures interleave in input
        // order with nothing dropped.
        let panics = one.iter().filter(|r| matches!(r, Err(E::Panic(_)))).count();
        assert_eq!(panics, 10);
    }

    #[test]
    fn join_runs_inline_a_then_b_at_one_thread() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let log = |side: &'static str| {
            lock_recover(&order).push((side, std::thread::current().id()));
            side.len()
        };
        assert_eq!(Pool::with_threads(1).join(|| log("a"), || log("bb")), (1, 2));
        assert_eq!(*lock_recover(&order), vec![("a", caller), ("bb", caller)]);
        lock_recover(&order).clear();
        assert_eq!(Pool::with_threads(2).join(|| log("a"), || log("bb")), (1, 2));
        let ran = lock_recover(&order).clone();
        assert_eq!(ran.len(), 2);
        for (side, thread) in ran {
            assert_eq!(thread == caller, side == "a", "only b leaves the caller thread");
        }
    }

    #[test]
    fn join_reraises_the_first_panic_after_both_sides_finish() {
        for threads in [1, 2] {
            let pool = Pool::with_threads(threads);
            let finished = AtomicU64::new(0);
            let both = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| -> u8 { panic!("boom-a") }, || -> u8 { panic!("boom-b") })
            }));
            assert_eq!(panic_message(both.unwrap_err().as_ref()), "boom-a", "threads={threads}");
            let only_b = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || finished.fetch_add(1, Ordering::SeqCst),
                    || -> u8 { panic!("boom-b") },
                )
            }));
            assert_eq!(panic_message(only_b.unwrap_err().as_ref()), "boom-b", "threads={threads}");
            let only_a = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.join(
                    || -> u8 { panic!("boom-a") },
                    || finished.fetch_add(1, Ordering::SeqCst),
                )
            }));
            assert_eq!(panic_message(only_a.unwrap_err().as_ref()), "boom-a", "threads={threads}");
            assert_eq!(finished.load(Ordering::SeqCst), 2, "the other side always completes");
        }
    }

    #[test]
    fn join_runs_both_sides_under_the_callers_ambient() {
        for threads in [1, 2] {
            let (_, snap) = obs::with_local_registry(|| {
                let _outer = obs::span("outer");
                Pool::with_threads(threads).join(
                    || {
                        let _s = obs::span("left");
                        obs::counter_add("sides", 1);
                    },
                    || {
                        let _s = obs::span("right");
                        obs::counter_add("sides", 1);
                    },
                )
            });
            assert_eq!(snap.counters.get("sides"), Some(&2), "threads={threads}");
            for path in ["outer/left", "outer/right"] {
                assert_eq!(
                    snap.spans.get(path).map(|s| s.calls),
                    Some(1),
                    "threads={threads}: {path} missing from {:?}",
                    snap.spans.keys().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p1 = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(p1.as_ref()), "plain str");
        let p2 = std::panic::catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(p2.as_ref()), "formatted 42");
        let p3 = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(panic_message(p3.as_ref()), "non-string panic payload");
    }
}
