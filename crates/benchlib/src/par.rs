//! Deterministic parallel execution of independent benchmark work.
//!
//! The paper's protocol is embarrassingly parallel: every (machine,
//! benchmark, rep) cell derives an independent seed, so cells can run on
//! any thread in any order as long as results land back in their original
//! slots. This module provides that guarantee: [`parallel_map_indexed`]
//! splits `0..n` into contiguous chunks, one per worker, and writes each
//! result into a pre-sized buffer indexed by `i`, so the output `Vec` is
//! bit-identical to the serial `(0..n).map(f)` regardless of thread
//! count. [`parallel_for_each_mut`] is its in-place twin for the sharded
//! DES, and [`run_reps_par`] the rep-loop instance, the parallel twin of
//! [`crate::run_reps`].
//!
//! # The worker team
//!
//! Both entry points fork-join on one process-wide team of worker
//! threads, created on first use and kept for the life of the process.
//! The sharded DES forks once per lock-step window, thousands of times a
//! run, and a window's work (~200 ns) is far smaller than an OS thread
//! spawn; a fan-out onto a persistent team costs a wake and a join.
//!
//! * **Job handoff.** A fork-join writes a type-erased chunk function into
//!   the mailbox of each worker it needs, bumps that mailbox's generation
//!   counter and runs chunk 0 itself; worker `w` runs chunk `w + 1`. A
//!   shared pending counter tells the caller when all chunks are done.
//! * **Waiting.** An idle worker spins briefly on its generation, then
//!   parks; the caller unparks only workers marked asleep. The caller
//!   waits for the chunk counter the same way. The spin budget is short
//!   (~1k `spin_loop`s, ~20 µs): a spinning worker holds a core other
//!   threads — the daemon's HTTP handlers — may need. On a 1-core host
//!   waits park at once, since the awaited thread cannot run meanwhile.
//! * **Busy team.** One fork-join runs at a time. A caller that finds
//!   another thread mid fork-join runs its chunks inline, in order.
//! * **Panics.** A panic in any chunk is caught. The caller waits for
//!   every chunk, since none may still borrow its closure, then re-raises
//!   it; the team stays usable.
//! * **Width.** The team grows to the widest job count ever requested and
//!   never shrinks.
//!
//! On a 2-core host (`nproc` 2) one fork-join of two no-op chunks costs
//! ~0.8 µs on the team, against ~35 µs to spawn and join an OS thread
//! (`pool_wake_ns` / `pool_spawn_ns` in the substrate hot-path bench).
//!
//! Worker count resolution (first match wins):
//! 1. an explicit [`set_jobs`] call (the CLI's `--jobs N`);
//! 2. the `DOEBENCH_JOBS` environment variable;
//! 3. `std::thread::available_parallelism()`.
//!
//! Nested calls degrade to serial: a `parallel_map_indexed` reached from
//! inside a worker (or the caller's own chunk) runs inline on that
//! thread, so fanning a campaign grid out at the cell level does not
//! multiply threads per rep loop.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::hint::spin_loop;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread, ThreadId};

use crate::stats::Samples;

/// Explicit jobs override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on team workers, and on a caller while it runs its share of
    /// one fork-join; nested parallel calls then run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Set the worker count explicitly (the CLI's `--jobs N`).
///
/// Takes precedence over `DOEBENCH_JOBS` and auto-detection. `jobs = 1`
/// selects the serial path exactly; `0` clears the override.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The worker count parallel runs will use right now.
///
/// Resolution order: [`set_jobs`] override, then the `DOEBENCH_JOBS`
/// environment variable (ignored when unparsable or zero), then
/// `available_parallelism()`; at least 1.
pub fn effective_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    // Resolved once per process: `available_parallelism()` re-reads the
    // cgroup filesystem on every call (microseconds), and fine-grained
    // parallel regions — the sharded DES asks once per lock-step window —
    // cannot afford that on their coordination path.
    static AUTO_JOBS: OnceLock<usize> = OnceLock::new();
    *AUTO_JOBS.get_or_init(|| {
        // dessan::allow(env-read): documented worker-count override knob, read once at startup.
        if let Ok(v) = std::env::var("DOEBENCH_JOBS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Chunk `p` of `[0, n)` split into `parts` near-equal contiguous chunks;
/// the first `n % parts` chunks are one longer.
fn chunk_range(n: usize, parts: usize, p: usize) -> Range<usize> {
    let base = n / parts;
    let rem = n % parts;
    let start = p * base + p.min(rem);
    start..start + base + usize::from(p < rem)
}

/// Map `f` over `0..n`, preserving index order exactly.
///
/// With more than one effective job this fork-joins on the worker team:
/// indices split into contiguous chunks, one per worker, each writing
/// into its disjoint slice of the pre-sized output buffer — so the result
/// is the same `Vec` the serial loop produces, element for element. The
/// calling thread works the first chunk. With one job, on `n <= 1`, or
/// when already inside a fork-join, it is exactly the serial loop.
pub fn parallel_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs().min(n.max(1));
    if jobs <= 1 || n <= 1 || IN_POOL.with(|p| p.get()) {
        return (0..n).map(f).collect();
    }

    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for_each_chunk(&mut out, jobs, |i, slot| *slot = Some(f(i)));
    out.into_iter()
        .map(|slot| slot.expect("every index filled"))
        .collect()
}

/// Apply `f` to every element of `items` in place, splitting the slice
/// into contiguous chunks across the worker team.
///
/// The mutable-state twin of [`parallel_map_indexed`], built for the
/// sharded DES engine (`simtime::shard`): each shard lane is one `&mut`
/// element, workers own disjoint chunks, and `f` receives the element's
/// index alongside the element. Results must not depend on execution
/// order — the engine guarantees that by merging cross-shard events
/// canonically at window barriers.
///
/// With one effective job, a short slice, or from inside a fork-join,
/// this is exactly the serial `for` loop — same bytes. Neither path
/// allocates once the team has grown to `jobs`, which is what lets the
/// sharded storm phases of the allocation test pin the engine's pooled
/// scratch at any job count.
pub fn parallel_for_each_mut<S, F>(items: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let n = items.len();
    let jobs = effective_jobs().min(n.max(1));
    if jobs <= 1 || n <= 1 || IN_POOL.with(|p| p.get()) {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    for_each_chunk(items, jobs, f);
}

/// Parallel twin of [`crate::run_reps`]: run `reps` independent benchmark
/// executions across the worker team, collecting one observation per run
/// in rep order.
///
/// The closure must derive all randomness from the rep index it receives
/// (per-rep seeds, per-rep sim worlds); given that, the returned
/// [`Samples`] is bit-identical to `run_reps` for every job count.
pub fn run_reps_par(reps: usize, run: impl Fn(usize) -> f64 + Sync) -> Samples {
    assert!(reps > 0, "need at least one repetition");
    parallel_map_indexed(reps, run).into_iter().collect()
}

/// `items`' base pointer, shared with the team to rebuild disjoint chunks.
struct ChunkBase<S>(*mut S);

// SAFETY: the pointer is only used to rebuild disjoint `&mut [S]` chunks,
// each on one thread, and moving an `S: Send` to another thread is sound.
unsafe impl<S: Send> Sync for ChunkBase<S> {}

impl<S> ChunkBase<S> {
    /// Accessor, so closures capture the whole `Sync` wrapper rather than
    /// its raw-pointer field.
    fn ptr(&self) -> *mut S {
        self.0
    }
}

/// One fork-join over `items` in `parts` contiguous chunks, with `f`
/// receiving each element's index. The chunk bounds are computed per
/// part, so the split allocates nothing.
fn for_each_chunk<S: Send>(items: &mut [S], parts: usize, f: impl Fn(usize, &mut S) + Sync) {
    let n = items.len();
    let base = ChunkBase(items.as_mut_ptr());
    fork_join(parts, &|p| {
        let r = chunk_range(n, parts, p);
        // SAFETY: `fork_join` runs each part once; parts' ranges are disjoint
        // and within `[0, n)`, and `items` stays borrowed until all finish.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(r.start), r.len()) };
        for (off, item) in chunk.iter_mut().enumerate() {
            f(r.start + off, item);
        }
    });
}

/// A chunk function: called once with each part index of one fork-join.
type ChunkFn<'a> = dyn Fn(usize) + Sync + 'a;

/// `spin_loop` iterations a waiting thread burns before it parks: ~20 µs
/// on a 2-core x86 host. Long enough to ride out back-to-back lock-step
/// windows without a park; short enough that an idle worker gives its
/// core back to other threads quickly. A 1-core host parks at once: the
/// thread it waits for cannot run while it spins.
const SPIN: u32 = 1 << 10;

/// The process-wide worker team, created on the first fork-join.
static TEAM: OnceLock<Team> = OnceLock::new();

/// One fork-join's work, as handed to each worker it wakes.
#[derive(Clone, Copy)]
struct Job {
    /// The caller's chunk function, its lifetime erased (see [`fork_join`]).
    /// It dangles once its fork-join returns; a worker reads it only
    /// between its wake-up and its `pending` decrement.
    chunk: &'static ChunkFn<'static>,
    /// The coordinating thread, which the worker finishing the last chunk
    /// unparks if it sleeps.
    caller: ThreadId,
}

/// The process-wide worker team.
struct Team {
    /// `spin_loop`s before a wait parks: [`SPIN`], or 0 on a 1-core host.
    spin: u32,
    /// Held by the thread coordinating a fork-join (the *coordinator*).
    busy: AtomicBool,
    /// The latest coordinator's handle. Workers clone it when a job names
    /// a coordinator they have not seen, so a steady caller costs no
    /// shared reference-count traffic.
    caller: UnsafeCell<Option<Thread>>,
    /// The team; worker `w` runs chunk `w + 1`. Coordinator only.
    workers: UnsafeCell<Vec<Worker>>,
    /// How far the current job has got.
    progress: Progress,
}

// SAFETY: `caller` and `workers` are written only by the coordinator, which
// `busy` (acquire/release) makes exclusive; a worker reads `caller` only
// between its wake-up and its `pending` decrement, while it is stable.
unsafe impl Sync for Team {}

/// Completion of the current job, on a cache line of its own: workers
/// write it, the coordinator spins on it.
#[derive(Default)]
#[repr(align(128))]
struct Progress {
    /// Worker chunks of the current job that have not finished.
    pending: AtomicUsize,
    /// True while the coordinator is parked (or about to park) on `pending`.
    caller_asleep: AtomicBool,
}

/// A team member as the coordinator sees it.
struct Worker {
    mailbox: Arc<Mailbox>,
    thread: Thread,
}

/// What a coordinator and one worker share, on a cache line of its own:
/// the coordinator writes the job and bumps the generation, so a waking
/// worker fetches both in one transfer.
#[derive(Default)]
#[repr(align(128))]
struct Mailbox {
    /// Jobs published to this worker so far.
    gen: AtomicU64,
    /// True while the worker is parked (or about to park).
    asleep: AtomicBool,
    /// The latest job; written by the coordinator before the generation.
    job: UnsafeCell<Option<Job>>,
    /// The panic of this worker's last chunk, if it panicked.
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the coordinator writes `job` before bumping `gen` and the worker
// reads it after, until its `pending` decrement; `panic` is written by the
// worker before that decrement and read by the coordinator after it.
unsafe impl Sync for Mailbox {}

impl Mailbox {
    /// Spin `spin` times, then park, until the generation moves past `seen`.
    fn wait_past(&self, seen: u64, spin: u32) -> u64 {
        for _ in 0..spin {
            let gen = self.gen.load(Ordering::Acquire);
            if gen != seen {
                return gen;
            }
            spin_loop();
        }
        // Dekker handshake with `fork_join`'s wake: either this load sees
        // the new generation, or the coordinator sees `asleep` and unparks.
        self.asleep.store(true, Ordering::SeqCst);
        loop {
            let gen = self.gen.load(Ordering::SeqCst);
            if gen != seen {
                self.asleep.store(false, Ordering::Relaxed);
                return gen;
            }
            thread::park();
        }
    }
}

/// Run `body` with this thread marked as inside a fork-join, so nested
/// parallel calls run inline; the mark is cleared even on unwind.
fn in_pool<R>(body: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_POOL.with(|p| p.set(false));
        }
    }
    IN_POOL.with(|p| p.set(true));
    let _reset = Reset;
    body()
}

/// Releases the team's `busy` flag when the coordinator is done.
struct Coordinating<'a>(&'a AtomicBool);

impl Drop for Coordinating<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Run `chunk(p)` for every `p` in `0..parts` (`parts >= 2`): chunk 0 on
/// the calling thread, the rest on the team — or all inline, in order,
/// when another thread is mid fork-join. Returns once every chunk has
/// finished; a panic in any chunk is re-raised after that.
fn fork_join(parts: usize, chunk: &ChunkFn<'_>) {
    let team = TEAM.get_or_init(Team::new);
    if team
        .busy
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        in_pool(|| (0..parts).for_each(chunk));
        return;
    }
    let _coordinating = Coordinating(&team.busy);
    // SAFETY: holding `busy` makes this thread the only one touching
    // `caller` and `workers`, and no worker is running a chunk.
    let (caller, workers) = unsafe { (&mut *team.caller.get(), &mut *team.workers.get()) };
    let current = thread::current();
    let me = current.id();
    if caller.as_ref().map(Thread::id) != Some(me) {
        *caller = Some(current);
    }
    while workers.len() < parts - 1 {
        let part = workers.len() + 1;
        workers.push(team.spawn(part));
    }
    let workers = &workers[..parts - 1];

    // SAFETY: workers use the erased borrow only until their `pending`
    // decrement, and this call neither returns nor unwinds before
    // `pending` reaches zero — `chunk` outlives every use.
    let erased = unsafe { std::mem::transmute::<&ChunkFn<'_>, &'static ChunkFn<'static>>(chunk) };
    let job = Job {
        chunk: erased,
        caller: me,
    };
    team.progress.pending.store(parts - 1, Ordering::Relaxed);
    for w in workers {
        // SAFETY: the worker reads its job only after the bump below.
        unsafe { *w.mailbox.job.get() = Some(job) };
        w.mailbox.gen.fetch_add(1, Ordering::SeqCst);
        if w.mailbox.asleep.load(Ordering::SeqCst) {
            w.thread.unpark();
        }
    }

    let mine = catch_unwind(AssertUnwindSafe(|| in_pool(|| chunk(0))));
    team.progress.wait(team.spin);

    let mut theirs = None;
    for w in workers {
        // SAFETY: `pending` is zero, so the worker is done with its slots
        // until it is woken again.
        if let Some(payload) = unsafe { (*w.mailbox.panic.get()).take() } {
            theirs.get_or_insert(payload);
        }
    }
    drop(_coordinating);
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

impl Team {
    /// A team with no workers yet, its spin budget set by the host.
    fn new() -> Team {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        Team {
            spin: if cores > 1 { SPIN } else { 0 },
            busy: AtomicBool::new(false),
            caller: UnsafeCell::new(None),
            workers: UnsafeCell::new(Vec::new()),
            progress: Progress::default(),
        }
    }

    /// Start the worker that runs chunk `part` of every job it is woken for.
    fn spawn(&'static self, part: usize) -> Worker {
        let mailbox = Arc::new(Mailbox::default());
        let own = Arc::clone(&mailbox);
        let handle = thread::Builder::new()
            .name(format!("benchlib-worker-{part}"))
            .spawn(move || self.serve(&own, part))
            .expect("spawn a benchlib team worker");
        Worker {
            mailbox,
            thread: handle.thread().clone(),
        }
    }

    /// A worker's life: wait for a job, run chunk `part`, report, repeat.
    fn serve(&self, mailbox: &Mailbox, part: usize) {
        IN_POOL.with(|p| p.set(true));
        let mut seen = 0;
        let mut caller: Option<Thread> = None;
        loop {
            seen = mailbox.wait_past(seen, self.spin);
            // SAFETY: the coordinator wrote the job before bumping our
            // generation and writes it again only after our decrement.
            let job = unsafe { *mailbox.job.get() }.expect("job published before wake");
            if caller.as_ref().map(Thread::id) != Some(job.caller) {
                // SAFETY: as above; the coordinator set `caller` before the job.
                caller = unsafe { (*self.caller.get()).clone() };
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.chunk)(part))) {
                // SAFETY: read by the coordinator only after our decrement.
                unsafe { *mailbox.panic.get() = Some(payload) };
            }
            self.progress.finish_one(caller.as_ref());
        }
    }
}

impl Progress {
    /// A worker's end of its chunk: the last one unparks a sleeping
    /// coordinator.
    fn finish_one(&self, caller: Option<&Thread>) {
        // Dekker handshake with `wait`, as in `Mailbox::wait_past`.
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.caller_asleep.load(Ordering::SeqCst)
        {
            // May be late and hit a coordinator that has moved on; parking
            // is always re-checked, so a stray unpark is harmless.
            if let Some(caller) = caller {
                caller.unpark();
            }
        }
    }

    /// The coordinator's end: spin `spin` times, then park, until every
    /// worker chunk has finished.
    fn wait(&self, spin: u32) {
        for _ in 0..spin {
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            spin_loop();
        }
        self.caller_asleep.store(true, Ordering::SeqCst);
        while self.pending.load(Ordering::SeqCst) != 0 {
            thread::park();
        }
        self.caller_asleep.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Serializes tests that touch the process-global jobs override.
    static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `body` with the jobs override pinned, restoring it after.
    fn with_jobs<R>(jobs: usize, body: impl FnOnce() -> R) -> R {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct Reset(usize);
        impl Drop for Reset {
            fn drop(&mut self) {
                JOBS_OVERRIDE.store(self.0, Ordering::Relaxed);
            }
        }
        let _reset = Reset(JOBS_OVERRIDE.load(Ordering::Relaxed));
        set_jobs(jobs);
        body()
    }

    #[test]
    fn chunks_cover_everything() {
        let lens = |n, parts| -> Vec<usize> {
            let ranges: Vec<_> = (0..parts).map(|p| chunk_range(n, parts, p)).collect();
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "n={n} parts={parts}");
            }
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, n);
            ranges.iter().map(|r| r.len()).collect()
        };
        assert_eq!(lens(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(lens(3, 8), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(lens(0, 2), vec![0, 0]);
        assert_eq!(lens(1000, 64).iter().sum::<usize>(), 1000);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(31)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = with_jobs(jobs, || {
                parallel_map_indexed(1000, |i| (i as u64).wrapping_mul(31))
            });
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_reps_par_matches_run_reps() {
        let f = |i: usize| (i as f64).sin() * 1e3;
        let serial = crate::run_reps(257, f);
        let par = with_jobs(8, || run_reps_par(257, f));
        assert_eq!(par.summary(), serial.summary());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_panics() {
        run_reps_par(0, |_| 0.0);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let out = with_jobs(4, || {
            parallel_map_indexed(8, |i| {
                // Inner call must not fork again; it still must be correct.
                let inner = parallel_map_indexed(5, |j| j * 10);
                inner[i % 5]
            })
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 0, 10, 20]);
    }

    #[test]
    fn for_each_mut_matches_serial_loop() {
        let serial: Vec<u64> = (0..500).map(|i| (i as u64).wrapping_mul(37) ^ 5).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = vec![5; 500];
            with_jobs(jobs, || {
                parallel_for_each_mut(&mut items, |i, x| *x ^= (i as u64).wrapping_mul(37));
            });
            assert_eq!(items, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn for_each_mut_handles_short_and_empty_slices() {
        let mut empty: Vec<u32> = Vec::new();
        with_jobs(8, || parallel_for_each_mut(&mut empty, |_, _| panic!()));
        let mut one = [41u32];
        with_jobs(8, || {
            parallel_for_each_mut(&mut one, |i, x| *x += 1 + i as u32)
        });
        assert_eq!(one, [42]);
    }

    #[test]
    fn worker_panic_reaches_caller_and_team_recovers() {
        with_jobs(4, || {
            let caught = std::panic::catch_unwind(|| {
                parallel_map_indexed(8, |i| {
                    // Index 7 is in the last chunk, which a worker runs.
                    assert_ne!(i, 7, "chunk on a worker panicked");
                    i
                })
            });
            let payload = caught.expect_err("the worker's panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("chunk on a worker panicked"), "{msg}");
            // The caller's own chunk panicking is re-raised the same way.
            let caught = std::panic::catch_unwind(|| {
                parallel_for_each_mut(&mut [0u8; 8], |i, _| assert_ne!(i, 0, "caller chunk"))
            });
            assert!(caught.is_err());
            // The team is usable afterwards.
            assert_eq!(
                parallel_map_indexed(100, |i| i * 3),
                (0..100).map(|i| i * 3).collect::<Vec<_>>()
            );
        });
    }

    #[test]
    fn concurrent_callers_each_get_the_serial_map() {
        let map = |i: usize| (i as u64).wrapping_mul(0x9E37) ^ 11;
        let serial: Vec<u64> = (0..64).map(map).collect();
        with_jobs(2, || {
            // Four callers race for the team; the losers run inline.
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(move || {
                        (0..200)
                            .map(|_| parallel_map_indexed(64, map))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for caller in callers {
                let maps = caller.join().expect("caller thread");
                assert!(maps.iter().all(|m| *m == serial));
            }
        });
    }

    #[test]
    fn team_width_follows_set_jobs() {
        let serial: Vec<usize> = (0..300).map(|i| i * i).collect();
        for jobs in [2, 8, 2, 64] {
            assert_eq!(
                with_jobs(jobs, || parallel_map_indexed(300, |i| i * i)),
                serial,
                "jobs={jobs}"
            );
            let mut items = vec![0usize; 300];
            with_jobs(jobs, || {
                parallel_for_each_mut(&mut items, |i, x| *x = i * i)
            });
            assert_eq!(items, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn nested_call_from_a_worker_runs_inline() {
        let out = with_jobs(4, || {
            parallel_map_indexed(4, |i| {
                let me = std::thread::current().id();
                let inner = parallel_map_indexed(6, |_| std::thread::current().id());
                (i, inner.iter().all(|&t| t == me), me)
            })
        });
        assert!(
            out.iter().all(|&(_, inline, _)| inline),
            "nested calls must stay on their thread"
        );
        // Chunk 3 ran on a team worker, not on the caller.
        assert_ne!(out[3].2, std::thread::current().id());
    }

    #[test]
    fn effective_jobs_is_positive() {
        assert!(with_jobs(0, effective_jobs) >= 1);
        assert_eq!(with_jobs(7, effective_jobs), 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// run_reps_par equals run_reps for arbitrary rep and job counts.
        #[test]
        fn prop_par_equals_serial(reps in 1usize..300, jobs in 1usize..17) {
            let f = |i: usize| ((i as f64) * 0.73).cos() * 41.0;
            let serial = crate::run_reps(reps, f);
            let par = with_jobs(jobs, || run_reps_par(reps, f));
            prop_assert_eq!(par.summary(), serial.summary());
        }
    }
}
