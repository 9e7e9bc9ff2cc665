//! # plinius-parallel
//!
//! Minimal fork/join helpers for the compute hot path, built on
//! [`std::thread::scope`]. The build environment has no crates.io access, so this crate
//! stands in for the small slice of `rayon` the workspace needs: splitting a mutable
//! buffer into disjoint chunks processed across threads (`par_chunks_mut`) and mapping a
//! slice of independent items to a result vector in item order (`par_map`).
//!
//! # Determinism contract
//!
//! Every helper partitions work by *item/chunk index*, never by thread id, and callers
//! receive each chunk or item exactly as the serial loop would. As long as the
//! per-item closure is itself deterministic, the overall result is **bit-identical for
//! every thread count** — the property the training loop's crash/resume tests rely on.
//! Threads may interleave side effects (e.g. charges to the shared simulation clock),
//! but commutative accounting (atomic additions) reaches the same totals regardless.
//!
//! The default worker count comes from [`max_threads`]: the `PLINIUS_THREADS`
//! environment variable when set, otherwise [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable overriding the worker-thread count (`1` forces serial
/// execution; useful to verify the bit-identical-across-thread-counts invariant).
pub const THREADS_ENV: &str = "PLINIUS_THREADS";

/// Upper bound on the worker count, to keep a misconfigured environment from spawning
/// an absurd number of scoped threads per kernel call.
const MAX_THREAD_CAP: usize = 64;

/// The worker-thread budget for parallel kernels: `PLINIUS_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism (both capped at 64).
pub fn max_threads() -> usize {
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREAD_CAP);
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_THREAD_CAP)
}

/// Processes `data` in disjoint chunks of `chunk_len` elements across up to `threads`
/// scoped threads, calling `f(chunk_index, chunk)` for every chunk.
///
/// Chunk boundaries depend only on `chunk_len` (the last chunk may be shorter), and
/// chunks are distributed round-robin over the workers, so the set of `(index, chunk)`
/// invocations is independent of the thread count. With `threads <= 1` (or a single
/// chunk) everything runs on the calling thread.
///
/// # Panics
///
/// Panics if `chunk_len` is zero, and propagates panics from `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        chunk_len > 0,
        "par_chunks_mut needs a non-zero chunk length"
    );
    if data.is_empty() {
        return;
    }
    let num_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.clamp(1, num_chunks);
    if threads == 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let mut assignments: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        assignments[i % threads].push((i, chunk));
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut workers = assignments.into_iter();
        let local = workers.next().expect("at least one worker");
        for work in workers {
            s.spawn(move || {
                for (i, chunk) in work {
                    f(i, chunk);
                }
            });
        }
        // The calling thread takes the first share instead of idling at the join.
        for (i, chunk) in local {
            f(i, chunk);
        }
    });
}

/// Maps every item of `items` through `f(index, item)` across up to `threads` scoped
/// threads, returning the results **in item order**.
///
/// Items are distributed round-robin over the workers (so a few large items interleave
/// with small ones instead of all landing on one band); the output vector is identical
/// for every thread count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<I, R, F>(items: &[I], threads: usize, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut assignments: Vec<Vec<(usize, &mut Option<R>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, slot) in out.iter_mut().enumerate() {
        assignments[i % threads].push((i, slot));
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut workers = assignments.into_iter();
        let local = workers.next().expect("at least one worker");
        for work in workers {
            s.spawn(move || {
                for (i, slot) in work {
                    *slot = Some(f(i, &items[i]));
                }
            });
        }
        for (i, slot) in local {
            *slot = Some(f(i, &items[i]));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot is filled by exactly one worker"))
        .collect()
}

/// Runs `f(index, item)` for every item of `items` across up to `threads` scoped
/// threads, mutating the items in place.
///
/// This is the in-place sibling of [`par_map`]: instead of collecting results it hands
/// each worker exclusive `&mut` access to its items (distributed round-robin by item
/// index, like every helper in this crate), so callers can pre-stage per-item output
/// buffers and avoid any allocation in the dispatch path when `threads <= 1`.
/// The set of `(index, &mut item)` invocations is independent of the thread count.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_chunks_mut(items, 1, threads, |i, chunk| f(i, &mut chunk[0]));
}

// --------------------------------------------------------------------- pipeline

/// Why a [`Pipeline`] operation could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// `send` was called while a job is already in flight (the pipeline is depth-1:
    /// `recv`/`drain` the previous result first).
    Busy,
    /// `recv` was called with no job in flight.
    Idle,
    /// The worker thread is gone (its closure panicked, or the pipeline was closed).
    WorkerGone,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Busy => write!(f, "pipeline already has a job in flight"),
            PipelineError::Idle => write!(f, "pipeline has no job in flight"),
            PipelineError::WorkerGone => write!(f, "pipeline worker thread is gone"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// The single exchange slot shared between the caller and the worker.
enum Slot<J, R> {
    /// No job pending, no result ready.
    Empty,
    /// A job waiting for the worker to pick it up.
    Job(J),
    /// The worker is running the job.
    Running,
    /// A finished result waiting for `recv`.
    Done(R),
    /// The pipeline is shutting down (or the worker's closure panicked).
    Closed,
}

struct PipelineShared<J, R> {
    slot: Mutex<Slot<J, R>>,
    cv: Condvar,
}

/// Marks the slot `Closed` even if the worker's closure panics, so a blocked `recv`
/// wakes up with [`PipelineError::WorkerGone`] instead of deadlocking.
struct CloseOnExit<J, R>(Arc<PipelineShared<J, R>>);

impl<J, R> Drop for CloseOnExit<J, R> {
    fn drop(&mut self) {
        *self.0.slot.lock().expect("pipeline slot poisoned") = Slot::Closed;
        self.0.cv.notify_all();
    }
}

/// A depth-1 background pipeline: one dedicated worker thread, one job in flight.
///
/// This is the executor primitive behind the trainer's *overlapped* persistence mode:
/// the caller stages a cheap snapshot, `send`s it, keeps computing, and `recv`s (or
/// `drain`s) the expensive result at the next join point — classic double buffering.
/// The worker lives exactly as long as the `Pipeline` value (it is joined on drop), so
/// jobs never outlive the state their closure captured.
///
/// The exchange goes through a single pre-allocated slot guarded by a mutex/condvar
/// pair: a `send`/`recv` cycle *moves* the job and result values and performs **no
/// heap allocation**, which the allocation-free steady-state mirror path relies on.
///
/// # Example
///
/// ```
/// use plinius_parallel::Pipeline;
///
/// let mut pipe: Pipeline<u64, u64> = Pipeline::spawn("squarer", |x| x * x);
/// pipe.send(12)?;
/// // ... overlap other work here ...
/// assert_eq!(pipe.recv()?, 144);
/// assert_eq!(pipe.drain()?, None); // nothing in flight any more
/// # Ok::<(), plinius_parallel::PipelineError>(())
/// ```
pub struct Pipeline<J, R> {
    shared: Arc<PipelineShared<J, R>>,
    worker: Option<JoinHandle<()>>,
    in_flight: bool,
}

impl<J, R> fmt::Debug for Pipeline<J, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

impl<J: Send + 'static, R: Send + 'static> Pipeline<J, R> {
    /// Spawns the worker thread; every job sent to the pipeline runs through `f`, in
    /// submission order, on that one thread.
    pub fn spawn<F>(name: &str, mut f: F) -> Self
    where
        F: FnMut(J) -> R + Send + 'static,
    {
        let shared = Arc::new(PipelineShared {
            slot: Mutex::new(Slot::Empty),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                let guard = CloseOnExit(worker_shared);
                loop {
                    let job = {
                        let mut slot = guard.0.slot.lock().expect("pipeline slot poisoned");
                        loop {
                            match std::mem::replace(&mut *slot, Slot::Empty) {
                                Slot::Job(job) => {
                                    *slot = Slot::Running;
                                    break job;
                                }
                                Slot::Closed => {
                                    *slot = Slot::Closed;
                                    return;
                                }
                                other => {
                                    // Empty, or a Done the caller has not collected
                                    // yet: park until the state changes.
                                    *slot = other;
                                    slot = guard.0.cv.wait(slot).expect("pipeline slot poisoned");
                                }
                            }
                        }
                    };
                    let result = f(job);
                    let mut slot = guard.0.slot.lock().expect("pipeline slot poisoned");
                    if matches!(*slot, Slot::Closed) {
                        return;
                    }
                    *slot = Slot::Done(result);
                    guard.0.cv.notify_all();
                }
            })
            .expect("failed to spawn pipeline worker");
        Pipeline {
            shared,
            worker: Some(worker),
            in_flight: false,
        }
    }

    /// Hands `job` to the worker. Returns immediately; collect the result with
    /// [`Pipeline::recv`] or [`Pipeline::drain`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::Busy`] if a job is already in flight (the pipeline is
    /// depth-1), [`PipelineError::WorkerGone`] if the worker died.
    pub fn send(&mut self, job: J) -> Result<(), PipelineError> {
        if self.in_flight {
            return Err(PipelineError::Busy);
        }
        let mut slot = self.shared.slot.lock().expect("pipeline slot poisoned");
        match *slot {
            Slot::Closed => Err(PipelineError::WorkerGone),
            Slot::Empty => {
                *slot = Slot::Job(job);
                self.shared.cv.notify_all();
                self.in_flight = true;
                Ok(())
            }
            // With `in_flight == false` the slot can only be Empty or Closed.
            _ => unreachable!("pipeline slot out of sync with in_flight flag"),
        }
    }

    /// Blocks until the in-flight job completes and returns its result.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Idle`] if nothing is in flight, [`PipelineError::WorkerGone`]
    /// if the worker died before delivering the result.
    pub fn recv(&mut self) -> Result<R, PipelineError> {
        if !self.in_flight {
            return Err(PipelineError::Idle);
        }
        let mut slot = self.shared.slot.lock().expect("pipeline slot poisoned");
        loop {
            match std::mem::replace(&mut *slot, Slot::Empty) {
                Slot::Done(result) => {
                    self.in_flight = false;
                    self.shared.cv.notify_all();
                    return Ok(result);
                }
                Slot::Closed => {
                    *slot = Slot::Closed;
                    self.in_flight = false;
                    return Err(PipelineError::WorkerGone);
                }
                other => {
                    *slot = other;
                    slot = self.shared.cv.wait(slot).expect("pipeline slot poisoned");
                }
            }
        }
    }

    /// Collects the in-flight result if there is one: `Ok(Some(result))` after a
    /// completed job, `Ok(None)` when idle.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WorkerGone`] if the worker died with a job in flight.
    pub fn drain(&mut self) -> Result<Option<R>, PipelineError> {
        if self.in_flight {
            self.recv().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Whether a job is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }
}

impl<J, R> Drop for Pipeline<J, R> {
    fn drop(&mut self) {
        // Close the slot (discarding any pending job or uncollected result) and join
        // the worker so nothing outlives the pipeline.
        if let Ok(mut slot) = self.shared.slot.lock() {
            *slot = Slot::Closed;
        }
        self.shared.cv.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_visits_every_chunk_once_with_correct_indices() {
        for threads in [1usize, 2, 3, 8] {
            let mut data: Vec<usize> = vec![0; 23];
            par_chunks_mut(&mut data, 5, threads, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += idx + 1;
                }
            });
            let expected: Vec<usize> = (0..23).map(|i| i / 5 + 1).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_short_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, 8, |_, _| panic!("no chunks expected"));
        let mut one = vec![7u8];
        let calls = AtomicUsize::new(0);
        par_chunks_mut(&mut one, 4, 8, |idx, chunk| {
            assert_eq!((idx, chunk.len()), (0, 1));
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero chunk length")]
    fn par_chunks_mut_rejects_zero_chunk_len() {
        par_chunks_mut(&mut [0u8; 4], 0, 2, |_, _| {});
    }

    #[test]
    fn par_map_preserves_item_order_for_every_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|v| v * v + 1).collect();
        for threads in [1usize, 2, 5, 16, 64] {
            let mapped = par_map(&items, threads, |i, v| {
                assert_eq!(items[i], *v);
                v * v + 1
            });
            assert_eq!(mapped, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_for_each_mut_visits_every_item_in_place() {
        for threads in [1usize, 2, 3, 8] {
            let mut items: Vec<(usize, u64)> = (0..17).map(|i| (i, 0u64)).collect();
            par_for_each_mut(&mut items, threads, |idx, item| {
                assert_eq!(item.0, idx, "index must match item position");
                item.1 = (idx as u64) * 3 + 1;
            });
            let expected: Vec<(usize, u64)> = (0..17).map(|i| (i, (i as u64) * 3 + 1)).collect();
            assert_eq!(items, expected, "threads={threads}");
        }
        // Empty input is a no-op.
        let mut empty: Vec<u8> = Vec::new();
        par_for_each_mut(&mut empty, 4, |_, _| panic!("no items expected"));
    }

    #[test]
    fn par_map_on_empty_slice_returns_empty() {
        let out: Vec<u8> = par_map(&[] as &[u8], 4, |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn pipeline_runs_jobs_in_order_on_one_worker() {
        let mut pipe: Pipeline<u64, (u64, String)> = Pipeline::spawn("test-worker", |x| {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            (x * 2, name)
        });
        assert!(!pipe.in_flight());
        for i in 0..10u64 {
            pipe.send(i).unwrap();
            assert!(pipe.in_flight());
            let (doubled, name) = pipe.recv().unwrap();
            assert_eq!(doubled, i * 2);
            assert_eq!(name, "test-worker");
        }
        assert!(!pipe.in_flight());
    }

    #[test]
    fn pipeline_is_depth_one() {
        let mut pipe: Pipeline<u8, u8> = Pipeline::spawn("depth", |x| x);
        pipe.send(1).unwrap();
        assert_eq!(pipe.send(2), Err(PipelineError::Busy));
        assert_eq!(pipe.recv().unwrap(), 1);
        assert_eq!(pipe.recv(), Err(PipelineError::Idle));
        assert_eq!(pipe.drain().unwrap(), None);
        pipe.send(3).unwrap();
        assert_eq!(pipe.drain().unwrap(), Some(3));
    }

    #[test]
    fn pipeline_worker_keeps_mutable_state_across_jobs() {
        let mut total = 0u64;
        let mut pipe: Pipeline<u64, u64> = Pipeline::spawn("acc", move |x| {
            total += x;
            total
        });
        pipe.send(5).unwrap();
        assert_eq!(pipe.recv().unwrap(), 5);
        pipe.send(7).unwrap();
        assert_eq!(pipe.recv().unwrap(), 12);
    }

    #[test]
    fn pipeline_moves_buffers_without_copying() {
        // The job and result move through the slot: a Vec survives the round trip
        // with its contents (and the worker can reuse/return it).
        let mut pipe: Pipeline<Vec<u8>, Vec<u8>> = Pipeline::spawn("bufs", |mut v: Vec<u8>| {
            for b in v.iter_mut() {
                *b ^= 0xFF;
            }
            v
        });
        pipe.send(vec![0x00, 0x0F, 0xF0]).unwrap();
        assert_eq!(pipe.recv().unwrap(), vec![0xFF, 0xF0, 0x0F]);
    }

    #[test]
    fn pipeline_surfaces_a_panicked_worker_instead_of_deadlocking() {
        let mut pipe: Pipeline<u8, u8> = Pipeline::spawn("panicky", |x| {
            if x == 13 {
                panic!("unlucky");
            }
            x
        });
        pipe.send(1).unwrap();
        assert_eq!(pipe.recv().unwrap(), 1);
        pipe.send(13).unwrap();
        assert_eq!(pipe.recv(), Err(PipelineError::WorkerGone));
        // Dead worker: further sends fail cleanly too.
        assert_eq!(pipe.send(2), Err(PipelineError::WorkerGone));
    }

    #[test]
    fn dropping_a_pipeline_with_an_inflight_job_joins_cleanly() {
        let pipe: Pipeline<(), ()> = Pipeline::spawn("sleepy", |()| {
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let mut pipe = pipe;
        pipe.send(()).unwrap();
        drop(pipe); // must not hang or leak the worker
    }

    #[test]
    fn pipeline_error_display_names_the_condition() {
        assert!(PipelineError::Busy.to_string().contains("in flight"));
        assert!(PipelineError::Idle.to_string().contains("no job"));
        assert!(PipelineError::WorkerGone.to_string().contains("worker"));
    }

    #[test]
    fn max_threads_honours_the_env_override() {
        // `PLINIUS_THREADS` is process-global; this is the only test that mutates it.
        let prev = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(max_threads(), 3);
        std::env::set_var(THREADS_ENV, "0"); // invalid: falls back to auto-detect
        assert!(max_threads() >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(max_threads() >= 1);
        std::env::set_var(THREADS_ENV, "4096"); // capped
        assert_eq!(max_threads(), 64);
        std::env::remove_var(THREADS_ENV);
        assert!(max_threads() >= 1);
        // Put back the value the suite runs under, so later tests in this binary
        // keep the thread count their CI leg selected.
        if let Some(v) = prev {
            std::env::set_var(THREADS_ENV, v);
        }
    }
}
