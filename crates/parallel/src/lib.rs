#![warn(missing_docs)]

//! # ceaff-parallel — the workspace's work pool
//!
//! A from-scratch, zero-dependency thread pool for CEAFF's dense kernels
//! and pairwise-similarity construction. The build environment vendors
//! every external crate, so instead of the real `rayon` this crate
//! provides the few primitives the workspace actually needs:
//!
//! * **Persistent workers.** A process-wide pool is spawned lazily on the
//!   first parallel dispatch; workers park on a condvar between jobs, so
//!   steady-state dispatch costs one mutex lock and a wakeup, not a
//!   thread spawn.
//! * **Chunked index-range scheduling.** A job is `Fn(chunk_index)`
//!   invoked once per chunk; chunks are claimed dynamically from an
//!   atomic cursor for load balance.
//! * **Deterministic fixed-chunk partitioning.** *Which indices form a
//!   chunk* is decided by the caller from the problem size alone — never
//!   from the thread count — and every chunk writes a disjoint output
//!   range. Results are therefore bitwise-identical for any thread count,
//!   including the sequential fallback. See `DESIGN.md` ("Scheduling
//!   model") for why this pins f32 accumulation order.
//!
//! ## Thread-count control
//!
//! The default width is `CEAFF_THREADS` (if set and valid) or the
//! machine's available parallelism. [`set_default_threads`] overrides it
//! process-wide (the CLI's `--threads` flag); [`with_threads`] overrides
//! it for a scope on the current thread — the hook the determinism tests
//! use to run the same kernel at 1, 2 and 8 threads in one process.
//!
//! ```
//! use ceaff_parallel::{par_chunks_mut, with_threads};
//!
//! let mut data = vec![0u64; 1024];
//! with_threads(4, || {
//!     par_chunks_mut(&mut data, 128, |chunk_idx, chunk| {
//!         for (i, v) in chunk.iter_mut().enumerate() {
//!             *v = (chunk_idx * 128 + i) as u64;
//!         }
//!     });
//! });
//! assert_eq!(data[513], 513);
//! ```

mod pool;

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A cooperative cancellation probe: returns `true` once the dispatching
/// scope wants in-flight kernels abandoned (deadline passed, cancel
/// requested). Checked at chunk granularity by the pool.
pub type CancelProbe = Arc<dyn Fn() -> bool + Send + Sync>;

thread_local! {
    /// Scoped cancel probe installed by [`install_cancel_probe`]. Captured
    /// from the *dispatching* thread at `par_for` time and carried inside
    /// the job, because pool workers are separate OS threads that never
    /// see this thread-local.
    static CANCEL_PROBE: RefCell<Option<CancelProbe>> = const { RefCell::new(None) };
}

/// Install `probe` as the cancel probe for every parallel region
/// dispatched from this thread until the returned guard drops. Once the
/// probe returns `true`, kernels stop executing chunk bodies and return
/// early with **partially-written output** — callers own discarding the
/// result. With no probe installed (the default) dispatch behaviour is
/// bit-for-bit identical to before this hook existed.
#[must_use = "the probe is uninstalled when the guard drops"]
pub fn install_cancel_probe(probe: CancelProbe) -> CancelProbeGuard {
    let prev = CANCEL_PROBE.with(|cell| cell.replace(Some(probe)));
    CancelProbeGuard { prev }
}

/// Remove this thread's cancel probe until the returned guard drops, so
/// regions dispatched meanwhile run exactly as with no probe installed.
#[must_use = "the previous probe is restored when the guard drops"]
pub fn clear_cancel_probe() -> CancelProbeGuard {
    let prev = CANCEL_PROBE.with(|cell| cell.replace(None));
    CancelProbeGuard { prev }
}

/// Restores the previously-installed probe (if any) on drop; returned by
/// [`install_cancel_probe`] and [`clear_cancel_probe`]. Nestable,
/// innermost wins.
pub struct CancelProbeGuard {
    prev: Option<CancelProbe>,
}

impl Drop for CancelProbeGuard {
    fn drop(&mut self) {
        CANCEL_PROBE.with(|cell| cell.replace(self.prev.take()));
    }
}

/// Whether this thread's installed cancel probe (if any) has fired.
/// Callers use this between kernel launches to decide whether the buffers
/// they just filled are trustworthy.
pub fn cancel_probe_fired() -> bool {
    CANCEL_PROBE.with(|cell| cell.borrow().as_ref().is_some_and(|probe| probe()))
}

/// Configuration for the pool, resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of OS threads a parallel region may use (including the
    /// calling thread). `1` disables parallelism entirely.
    pub threads: usize,
}

impl ParallelConfig {
    /// Resolve from `CEAFF_THREADS`, falling back to the machine's
    /// available parallelism. Invalid or zero values mean "auto".
    pub fn from_env() -> Self {
        let threads = std::env::var("CEAFF_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(available_parallelism);
        Self {
            threads: threads.clamp(1, pool::MAX_THREADS),
        }
    }

    /// Install this configuration as the process-wide default.
    pub fn install(self) {
        set_default_threads(self.threads);
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide default width; 0 = not yet resolved.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default number of threads (resolving `CEAFF_THREADS`
/// on first call).
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => {
            let resolved = ParallelConfig::from_env().threads;
            // Racing first calls resolve to the same value; keep whichever
            // store wins.
            let _ =
                DEFAULT_THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
            DEFAULT_THREADS.load(Ordering::Relaxed)
        }
        n => n,
    }
}

/// Set the process-wide default number of threads (e.g. from a `--threads`
/// CLI flag). Clamped to `[1, 256]`. Takes effect for every subsequent
/// parallel region without an active [`with_threads`] override.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads.clamp(1, pool::MAX_THREADS), Ordering::Relaxed);
}

/// The width the *next* parallel region dispatched from this thread will
/// use: the innermost [`with_threads`] override, or the process default.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_threads)
        .clamp(1, pool::MAX_THREADS)
}

/// Run `f` with every parallel region dispatched from this thread limited
/// to exactly `threads` OS threads. Nestable; the innermost scope wins.
/// The pool grows on demand, so a request wider than the machine still
/// runs that many OS threads (they timeslice) — which is precisely what
/// the determinism suite wants to exercise.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|cell| cell.replace(Some(threads.clamp(1, pool::MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

/// Whether splitting `len` items into fixed `chunk_size`-element chunks
/// can engage more than one thread right now: more than one chunk *and* a
/// current width above one. The partition — and therefore every result —
/// is identical either way; this is purely a "skip the dispatch
/// bookkeeping" gate for hot callers (kernels, benchmarks) that branch to
/// a plain sequential loop, or refuse to report a parallel speedup, when
/// no real parallelism can happen.
pub fn would_parallelize(len: usize, chunk_size: usize) -> bool {
    current_threads() > 1 && len.div_ceil(chunk_size.max(1)) > 1
}

/// Run `body(chunk_index)` for every index in `0..chunks` across
/// [`current_threads`] OS threads. The chunk set is the caller's fixed
/// partition of the problem; execution order across chunks is unspecified,
/// so bodies must write disjoint data (each chunk owns its output range).
pub fn par_for(chunks: usize, body: impl Fn(usize) + Sync) {
    let probe = CANCEL_PROBE.with(|cell| cell.borrow().clone());
    pool::execute(&body, chunks, current_threads(), probe);
}

/// Split `data` into consecutive `chunk_size`-element chunks (the last may
/// be shorter) and run `body(chunk_index, chunk)` for each in parallel.
///
/// The partition depends only on `data.len()` and `chunk_size`, never on
/// the thread count — the crate's determinism contract.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_size: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let chunk_size = chunk_size.max(1);
    let len = data.len();
    let chunks = len.div_ceil(chunk_size);
    let base = SendPtr(data.as_mut_ptr());
    par_for(chunks, |c| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(len);
        // SAFETY: chunk index ranges `[start, end)` are pairwise disjoint
        // and within `data`, so each invocation gets an exclusive slice;
        // the borrow of `data` outlives the dispatch (par_for blocks).
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.add(start), end - start) };
        body(c, chunk);
    });
}

/// Shared-slice variant of [`par_chunks_mut`].
pub fn par_chunks<T: Sync>(data: &[T], chunk_size: usize, body: impl Fn(usize, &[T]) + Sync) {
    let chunk_size = chunk_size.max(1);
    let len = data.len();
    let chunks = len.div_ceil(chunk_size);
    par_for(chunks, |c| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(len);
        body(c, &data[start..end]);
    });
}

/// Split `0..len` into consecutive `grain`-sized index ranges and run
/// `body(range)` for each in parallel. Same partition contract as
/// [`par_chunks_mut`].
pub fn par_range(len: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    let grain = grain.max(1);
    let chunks = len.div_ceil(grain);
    par_for(chunks, |c| {
        let start = c * grain;
        body(start..(start + grain).min(len));
    });
}

/// Compute `f(i)` for every `i in 0..n` in parallel and collect the
/// results in index order. Per-index outputs land in their own slot, so
/// the result is identical for any thread count.
///
/// If an installed cancel probe fires mid-build, the chunks the pool
/// skipped leave their slots at `T::default()` — the vector is then
/// partially-written garbage that the caller owns discarding (poll
/// [`cancel_probe_fired`] after the call), exactly as with the in-place
/// kernels. With no probe, or an unfired one, every slot is computed.
pub fn par_map<T: Send + Default>(n: usize, grain: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut out, grain.max(1), |c, chunk| {
        let start = c * grain.max(1);
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(start + off));
        }
    });
    out.into_iter()
        .map(|slot| slot.unwrap_or_default())
        .collect()
}

/// A raw pointer that may cross threads (the chunks it hands out are
/// disjoint, see [`par_chunks_mut`]). Closures must capture the wrapper,
/// not the field, so offsetting goes through a method.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// Same contract as `pointer::add`: `offset` must stay within the
    /// allocation the wrapped pointer came from.
    unsafe fn add(&self, offset: usize) -> *mut T {
        self.0.add(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_covers_every_chunk_exactly_once() {
        let hits: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
        with_threads(4, || {
            par_for(97, |c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_partitions_disjointly() {
        let mut data = vec![0usize; 1000];
        with_threads(8, || {
            par_chunks_mut(&mut data, 7, |c, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = c * 7 + i;
                }
            });
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let run = |threads: usize| {
            with_threads(threads, || {
                let mut acc = vec![0.0f32; 513];
                par_chunks_mut(&mut acc, 64, |c, chunk| {
                    for (i, v) in chunk.iter_mut().enumerate() {
                        let idx = (c * 64 + i) as f32;
                        *v = (idx * 0.1).sin() + idx / 3.0;
                    }
                });
                acc
            })
        };
        let seq = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), seq, "thread count {threads} diverged");
        }
    }

    #[test]
    fn par_map_collects_in_index_order() {
        let out = with_threads(4, || par_map(100, 9, |i| i * i));
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_range_covers_len() {
        let sum = AtomicU64::new(0);
        with_threads(3, || {
            par_range(1000, 13, |r| {
                sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn empty_and_single_chunk_inputs() {
        par_for(0, |_| panic!("must not run"));
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
        let mut one = vec![1u8];
        with_threads(8, || par_chunks_mut(&mut one, 4, |_, c| c[0] = 9));
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_for(32, |c| {
                    if c == 17 {
                        panic!("chunk 17 exploded");
                    }
                });
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("chunk 17"), "unexpected payload: {msg}");
        // The pool must still be usable afterwards.
        let mut data = vec![0u8; 64];
        with_threads(4, || par_chunks_mut(&mut data, 8, |_, c| c.fill(1)));
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn would_parallelize_gates_on_width_and_chunk_count() {
        with_threads(1, || {
            assert!(!would_parallelize(10_000, 64), "width 1 never parallel");
        });
        with_threads(4, || {
            assert!(would_parallelize(10_000, 64));
            assert!(!would_parallelize(64, 64), "one chunk is sequential");
            assert!(!would_parallelize(0, 64), "empty input is sequential");
            // chunk_size 0 is clamped, not a division panic.
            assert!(would_parallelize(2, 0));
        });
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let outer = current_threads();
        with_threads(2, || {
            assert_eq!(current_threads(), 2);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn config_clamps_to_at_least_one() {
        let cfg = ParallelConfig { threads: 0 };
        // install clamps; current_threads never reports 0.
        cfg.install();
        assert!(default_threads() >= 1);
        set_default_threads(available_parallelism());
    }

    #[test]
    fn cancel_probe_stops_chunk_execution() {
        use std::sync::atomic::AtomicBool;
        for threads in [1, 4] {
            let flag = Arc::new(AtomicBool::new(false));
            let probe_flag = flag.clone();
            let guard = install_cancel_probe(Arc::new(move || probe_flag.load(Ordering::Relaxed)));
            let executed = AtomicU64::new(0);
            with_threads(threads, || {
                par_for(1000, |c| {
                    if c == 0 {
                        flag.store(true, Ordering::Relaxed);
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    // Give other participants time to observe the flag.
                    std::thread::yield_now();
                });
            });
            drop(guard);
            let ran = executed.load(Ordering::Relaxed);
            assert!(
                ran < 1000,
                "cancel must skip most chunks at {threads} threads, ran {ran}"
            );
            assert!(!cancel_probe_fired(), "guard must uninstall the probe");
        }
    }

    #[test]
    fn probe_guard_nests_and_restores() {
        assert!(!cancel_probe_fired());
        let g1 = install_cancel_probe(Arc::new(|| false));
        assert!(!cancel_probe_fired());
        {
            let _g2 = install_cancel_probe(Arc::new(|| true));
            assert!(cancel_probe_fired());
        }
        assert!(
            !cancel_probe_fired(),
            "inner guard must restore outer probe"
        );
        drop(g1);
        // With no probe the full chunk set runs.
        let hits = AtomicU64::new(0);
        with_threads(4, || {
            par_for(64, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn cleared_probe_runs_every_chunk_and_restores_on_drop() {
        let outer = install_cancel_probe(Arc::new(|| true));
        {
            let _clear = clear_cancel_probe();
            assert!(!cancel_probe_fired());
            let hits = AtomicU64::new(0);
            with_threads(4, || {
                par_for(64, |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
        assert!(cancel_probe_fired(), "the outer probe must be restored");
        drop(outer);
    }

    #[test]
    fn oversubscription_beyond_core_count_works() {
        // 8 threads on any machine, even single-core: workers timeslice.
        let mut data = vec![0u32; 4096];
        with_threads(8, || {
            par_chunks_mut(&mut data, 16, |c, chunk| chunk.fill(c as u32));
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v as usize, i / 16);
        }
    }
}
