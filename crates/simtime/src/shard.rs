//! Conservative (lookahead-based) parallel DES: sharded time-window
//! execution with a deterministic merge.
//!
//! [`EventQueue`] runs one world on one core. The storm worlds put 10³–10⁴
//! concurrent events in that queue, and `run_reps_par` can only
//! parallelize *across* repetitions — one huge world still serializes a
//! whole rep. This module splits a single world's event population into
//! per-shard queues and executes the shards in lock-step **time windows**:
//!
//! ```text
//! loop {
//!     gvt  = min over shards of next-event time        (global virtual time)
//!     end  = min(gvt + lookahead, horizon)             (window bound)
//!     for each shard in parallel:                      (injected executor)
//!         drain tie batches while next-event time < end
//!     deliver cross-shard events emitted this window   (canonical order)
//! }
//! ```
//!
//! **Lookahead** is the minimum virtual-time delay of any cross-shard
//! interaction, declared by the world from its own channel model. An
//! event emitted inside the window `[gvt, end)` toward another shard
//! therefore arrives at `emission + lookahead ≥ end` — never inside the
//! executing window — so every shard can drain its window without
//! observing its peers. A world whose partition has *no* cross-shard
//! channel (the mpisim and netsim storms) declares no lookahead at all
//! (`None`): its window is `[gvt, horizon)`, so each `run_until` is one
//! fork-join in which every lane drains free-running to the horizon, with
//! no per-window barrier. The contract is *enforced*, not assumed:
//! [`LaneCtx::send_to`] asserts the arrival time is at or past the window
//! bound, so an over-promised lookahead — or a send from a world that
//! declared none — fails loudly instead of silently corrupting
//! determinism.
//!
//! **Determinism.** The result is bit-identical to serial execution at
//! any shard count, under two conditions the worlds uphold:
//!
//! 1. *Partition respects state coupling.* Shards share no mutable
//!    state; anything coupled (mpisim pairs sharing a NUMA copy port)
//!    lives in one shard. Then the serial `(time, seq)` pop order,
//!    restricted to one shard's events, equals that shard's local
//!    `(time, seq)` order by induction over scheduling — per-shard seqs
//!    are assigned in the same relative order the serial queue would
//!    assign them.
//! 2. *Tie batches are order-canonical.* The engine hands the handler a
//!    whole same-timestamp batch ([`EventQueue::pop_batch`] — the PR-6
//!    tie-group seam). A world whose same-timestamp events interact
//!    across a shard boundary must process the batch in a
//!    content-derived order (sort by payload key) rather than seq order,
//!    because boundary-delivered events get their dst-queue seqs at the
//!    window barrier. Worlds with no cross-shard events (the storms, by
//!    partition construction) may keep plain seq order — condition 1
//!    alone makes it serial-equal.
//!
//! Cross-shard events buffered during a window are merged at the barrier
//! in canonical `(time, source shard, emission index)` order before being
//! scheduled into their destination queues, so dst-queue seq assignment —
//! and therefore every downstream tie group — is independent of executor
//! interleaving and worker count.
//!
//! Threading is *injected*: [`ShardRunner::run_until`] takes an executor
//! closure so `benchlib`'s persistent worker team can fork-join the lanes
//! once per window without this crate depending on it (the dependency
//! points the other way). A fork-join costs ~1 µs on a 2-core host
//! (`nproc` 2), which is why declaring no lookahead matters: the 10k-rank
//! mpisim storm went from ~5000 windows of ~9 events (~15 ms a run) to
//! one window (~9 ms).
//! [`serial_exec`] is the in-crate oracle; with it, the sharded path is
//! plain deterministic single-threaded code.
//!
//! Shard-count selection mirrors the queue-policy knob: a process-wide
//! [`ShardPolicy`] default resolved once from `DOEBENCH_SHARDS`
//! (`serial` / `auto` / a shard count), overridable programmatically for
//! A/B harnesses.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

use crate::event::{EventQueue, QueuePolicy, Scheduled};
use crate::time::{SimDuration, SimTime};

/// How many shards a sharded-capable world should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One shard: the sharded code path at shard count 1 (the oracle the
    /// differential tests compare against).
    Serial,
    /// Exactly `n` shards (clamped to the world's maximum).
    Sharded(usize),
    /// `available_parallelism()`, clamped to the world's maximum.
    Auto,
}

impl ShardPolicy {
    /// Resolve to a concrete shard count for a world that can support at
    /// most `max_shards` shards (e.g. one shard per NUMA domain).
    ///
    /// Shard count and worker count are independent: 8 shards on a 1-core
    /// host run the same lanes serially and produce the same bytes.
    pub fn resolve(self, max_shards: usize) -> usize {
        let max = max_shards.max(1);
        match self {
            ShardPolicy::Serial => 1,
            ShardPolicy::Sharded(n) => n.clamp(1, max),
            ShardPolicy::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, max),
        }
    }
}

/// Process-wide default shard policy, resolved once from
/// `DOEBENCH_SHARDS`. Encoding: 0 unset, 1 serial, 2 auto, `n + 2` for
/// `Sharded(n)` with `n >= 2`.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

const SHARDS_SERIAL: usize = 1;
const SHARDS_AUTO: usize = 2;

fn encode_shards(p: ShardPolicy) -> usize {
    match p {
        ShardPolicy::Serial | ShardPolicy::Sharded(0) | ShardPolicy::Sharded(1) => SHARDS_SERIAL,
        ShardPolicy::Auto => SHARDS_AUTO,
        ShardPolicy::Sharded(n) => n + 2,
    }
}

/// Override the process-wide default [`ShardPolicy`]. Worlds already
/// constructed are unaffected. Intended for A/B harnesses that run the
/// same workload at several shard counts in one process.
pub fn set_default_shard_policy(p: ShardPolicy) {
    DEFAULT_SHARDS.store(encode_shards(p), AtomicOrdering::Relaxed);
}

/// The process-wide default [`ShardPolicy`]: `DOEBENCH_SHARDS` if set
/// (`serial` / `1`, `auto` / `0`, or a shard count), else `Auto`.
pub fn default_shard_policy() -> ShardPolicy {
    match DEFAULT_SHARDS.load(AtomicOrdering::Relaxed) {
        0 => {
            // dessan::allow(env-read): documented sharded-DES A/B knob (DOEBENCH_SHARDS=serial|auto|N), read once at first use.
            let p = match std::env::var("DOEBENCH_SHARDS").as_deref() {
                Ok("serial") | Ok("1") => ShardPolicy::Serial,
                Ok("auto") | Ok("0") | Err(_) => ShardPolicy::Auto,
                Ok(s) => match s.trim().parse::<usize>() {
                    Ok(n) if n >= 2 => ShardPolicy::Sharded(n),
                    Ok(_) => ShardPolicy::Serial,
                    Err(_) => ShardPolicy::Auto,
                },
            };
            DEFAULT_SHARDS.store(encode_shards(p), AtomicOrdering::Relaxed);
            p
        }
        SHARDS_SERIAL => ShardPolicy::Serial,
        SHARDS_AUTO => ShardPolicy::Auto,
        n => ShardPolicy::Sharded(n - 2),
    }
}

/// Process-global telemetry: windows executed, cross-shard events
/// delivered, and tie batches merged across every [`ShardRunner`] in the
/// process (exported on `doebenchd`'s `/stats`). Updated once per
/// `run_until`, not per window.
static TOTAL_WINDOWS: AtomicU64 = AtomicU64::new(0);
static TOTAL_CROSS_EVENTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MERGE_BATCHES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-global shard counters:
/// `(windows, cross_events, merge_batches)`.
pub fn global_shard_counters() -> (u64, u64, u64) {
    (
        TOTAL_WINDOWS.load(AtomicOrdering::Relaxed),
        TOTAL_CROSS_EVENTS.load(AtomicOrdering::Relaxed),
        TOTAL_MERGE_BATCHES.load(AtomicOrdering::Relaxed),
    )
}

/// Per-runner shard/window counters, surfaced in the storm reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards (lanes) the runner executes.
    pub shards: usize,
    /// Lock-step time windows executed so far.
    pub windows: u64,
    /// Events delivered across a shard boundary at window barriers.
    pub cross_events: u64,
    /// Same-timestamp tie batches drained (summed over shards).
    pub merge_batches: u64,
}

/// A cross-shard event buffered during a window, delivered at the
/// barrier. `(at, src, idx)` is the canonical merge key: `src` is the
/// emitting shard and `idx` its emission index within the window, so the
/// merge order — and the dst-queue seqs it assigns — is independent of
/// executor interleaving.
#[derive(Debug)]
struct CrossEvent<T> {
    at: SimTime,
    dst: u32,
    src: u32,
    idx: u32,
    payload: T,
}

/// One shard: its world, its event queue, and its pooled window scratch.
///
/// Public only as an opaque executor item — an executor receives
/// `&mut [Lane<W, T>]` and a per-lane closure, nothing more.
#[derive(Debug)]
pub struct Lane<W, T> {
    shard: usize,
    world: W,
    queue: EventQueue<T>,
    /// Tie-group scratch, reused across every batch (allocation-free
    /// once warm).
    batch: Vec<Scheduled<T>>,
    /// Cross-shard emissions this window, reused across windows.
    outbox: Vec<CrossEvent<T>>,
    /// Tie batches drained (the merge-batch counter's per-lane share).
    batches: u64,
    /// Events popped and handed to the handler.
    events: u64,
}

impl<W, T> Lane<W, T> {
    /// Drain every tie batch strictly before `window_end`, handing each
    /// whole same-timestamp group to the handler. Allocation-free once
    /// the batch scratch and queue arena are warm.
    // doebench::hot
    // doebench::effects(no-block)
    fn drain_window<E, H>(&mut self, window_end: SimTime, handler: &H) -> Result<(), E>
    where
        H: Fn(&mut W, SimTime, &[Scheduled<T>], &mut LaneCtx<'_, T>) -> Result<(), E>,
    {
        while let Some(t) = self.queue.peek_time() {
            if t >= window_end {
                break;
            }
            self.queue.pop_batch(&mut self.batch);
            self.batches += 1;
            self.events += self.batch.len() as u64;
            let mut ctx = LaneCtx {
                shard: self.shard,
                window_end,
                queue: &mut self.queue,
                outbox: &mut self.outbox,
            };
            handler(&mut self.world, t, &self.batch, &mut ctx)?;
        }
        Ok(())
    }
}

/// The handler's scheduling surface while it processes one tie batch.
#[derive(Debug)]
pub struct LaneCtx<'a, T> {
    shard: usize,
    window_end: SimTime,
    queue: &'a mut EventQueue<T>,
    outbox: &'a mut Vec<CrossEvent<T>>,
}

impl<T> LaneCtx<'_, T> {
    /// The shard this batch executes on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The exclusive upper bound of the executing window. Local events
    /// scheduled below it are drained later in this same window.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// Schedule a follow-up event on this shard's own queue (any future
    /// time, including inside the current window).
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        self.queue.schedule(at, payload);
    }

    /// Emit an event to shard `dst`, delivered at the window barrier.
    ///
    /// # Panics
    /// Panics if `at` is inside the executing window — that means the
    /// world's declared lookahead over-promised (or, with none declared,
    /// that it has a cross-shard channel after all), and conservative
    /// execution would be unsound.
    pub fn send_to(&mut self, dst: usize, at: SimTime, payload: T) {
        assert!(
            at >= self.window_end,
            "cross-shard event at {at:?} lands inside the window ending {:?}: \
             the world's lookahead is not conservative",
            self.window_end
        );
        self.outbox.push(CrossEvent {
            at,
            dst: dst as u32,
            src: self.shard as u32,
            idx: self.outbox.len() as u32,
            payload,
        });
    }
}

/// Execute the per-lane closure over every lane, serially. The in-crate
/// oracle executor; `benchlib::parallel_for_each_mut` is its pooled twin.
pub fn serial_exec<W, T>(lanes: &mut [Lane<W, T>], f: &(dyn Fn(&mut Lane<W, T>) + Sync)) {
    for lane in lanes {
        f(lane);
    }
}

/// The sharded conservative-window engine: per-shard queues, lock-step
/// windows, canonical barrier merge.
#[derive(Debug)]
pub struct ShardRunner<W, T> {
    lanes: Vec<Lane<W, T>>,
    /// `None`: no cross-shard channel, one window per `run_until`.
    lookahead: Option<SimDuration>,
    windows: u64,
    cross_events: u64,
    /// Barrier merge scratch, reused across windows.
    xfer: Vec<CrossEvent<T>>,
}

impl<W, T> ShardRunner<W, T> {
    /// One lane per world. `lookahead` is the world-declared minimum
    /// cross-shard delay (must be positive — a zero window never
    /// advances), or `None` for a partition with no cross-shard channel,
    /// whose lanes then run free to each horizon; `cap` pre-sizes each
    /// lane's queue arena and batch scratch so the steady state is
    /// allocation-free.
    pub fn new(
        worlds: Vec<W>,
        lookahead: Option<SimDuration>,
        policy: QueuePolicy,
        cap: usize,
    ) -> Self {
        assert!(!worlds.is_empty(), "a runner needs at least one shard");
        assert!(
            lookahead.is_none_or(|d| d > SimDuration::ZERO),
            "lookahead must be positive: a zero-width window cannot advance"
        );
        let lanes = worlds
            .into_iter()
            .enumerate()
            .map(|(shard, world)| Lane {
                shard,
                world,
                queue: EventQueue::with_policy_and_capacity(policy, cap),
                batch: Vec::with_capacity(cap),
                outbox: Vec::new(),
                batches: 0,
                events: 0,
            })
            .collect();
        ShardRunner {
            lanes,
            lookahead,
            windows: 0,
            cross_events: 0,
            xfer: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// The world behind shard `s`.
    pub fn world(&self, s: usize) -> &W {
        &self.lanes[s].world
    }

    /// Mutable world access (seeding, enabling checks).
    pub fn world_mut(&mut self, s: usize) -> &mut W {
        &mut self.lanes[s].world
    }

    /// Every shard's world, in shard order.
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.lanes.iter().map(|l| &l.world)
    }

    /// Seed an initial event onto shard `s`. Call in the same relative
    /// order the serial world would schedule them, so per-shard seqs are
    /// the serial seqs restricted to the shard.
    pub fn seed(&mut self, s: usize, at: SimTime, payload: T) {
        self.lanes[s].queue.schedule(at, payload);
    }

    /// Events popped and handled so far, across all shards. With a
    /// virtual-time horizon this count is shard-count-invariant.
    pub fn events(&self) -> u64 {
        self.lanes.iter().map(|l| l.events).sum()
    }

    /// The global virtual time: earliest pending event on any shard.
    pub fn next_time(&self) -> Option<SimTime> {
        self.lanes.iter().filter_map(|l| l.queue.peek_time()).min()
    }

    /// True while any lane's calendar core is active (diagnostic).
    pub fn used_calendar(&self) -> bool {
        self.lanes.iter().any(|l| l.queue.is_calendar())
    }

    /// Shard/window counters so far.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: self.lanes.len(),
            windows: self.windows,
            cross_events: self.cross_events,
            merge_batches: self.lanes.iter().map(|l| l.batches).sum(),
        }
    }

    /// Deliver the window's buffered cross-shard events in canonical
    /// `(time, source shard, emission index)` order.
    fn flush_cross(&mut self) {
        self.xfer.clear();
        for lane in &mut self.lanes {
            self.xfer.append(&mut lane.outbox);
        }
        if self.xfer.is_empty() {
            return;
        }
        self.cross_events += self.xfer.len() as u64;
        self.xfer.sort_unstable_by_key(|e| (e.at, e.src, e.idx));
        for ev in self.xfer.drain(..) {
            self.lanes[ev.dst as usize]
                .queue
                .schedule(ev.at, ev.payload);
        }
    }

    /// Run conservative windows until no event earlier than `horizon`
    /// remains; events at or past `horizon` stay queued for a later call.
    /// Without a lookahead that is a single window `[gvt, horizon)`.
    ///
    /// `handler` processes one whole same-timestamp batch per call (see
    /// the module docs for its determinism obligations). `exec` applies
    /// the per-lane window drain — [`serial_exec`] or a thread-pool twin;
    /// the result is bit-identical either way. On error, the failure
    /// from the lowest-numbered shard is returned (deterministic at any
    /// worker count); the run can be resumed or inspected afterwards.
    ///
    /// Returns the total events handled so far (see [`Self::events`]).
    pub fn run_until<E, H, X>(&mut self, horizon: SimTime, handler: &H, exec: &X) -> Result<u64, E>
    where
        W: Send,
        T: Send,
        E: Send,
        H: Fn(&mut W, SimTime, &[Scheduled<T>], &mut LaneCtx<'_, T>) -> Result<(), E> + Sync,
        X: Fn(&mut [Lane<W, T>], &(dyn Fn(&mut Lane<W, T>) + Sync)),
    {
        let start_windows = self.windows;
        let start_cross = self.cross_events;
        let start_batches: u64 = self.lanes.iter().map(|l| l.batches).sum();
        while let Some(gvt) = self.next_time() {
            if gvt >= horizon {
                break;
            }
            let window_end = self.lookahead.map_or(horizon, |d| (gvt + d).min(horizon));
            self.windows += 1;
            // The error slot lives on the stack; workers lock it only on
            // the cold failure path, keeping the steady state
            // allocation-free. Lowest shard index wins so the reported
            // error does not depend on worker interleaving.
            let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
            let per_lane = |lane: &mut Lane<W, T>| {
                if let Err(e) = lane.drain_window(window_end, handler) {
                    let mut slot = first_err.lock().unwrap_or_else(|p| p.into_inner());
                    let stale = matches!(&*slot, Some((s, _)) if *s <= lane.shard);
                    if !stale {
                        *slot = Some((lane.shard, e));
                    }
                }
            };
            exec(&mut self.lanes, &per_lane);
            let fail = first_err.into_inner().unwrap_or_else(|p| p.into_inner());
            if let Some((_, e)) = fail {
                return Err(e);
            }
            self.flush_cross();
        }
        TOTAL_WINDOWS.fetch_add(self.windows - start_windows, AtomicOrdering::Relaxed);
        TOTAL_CROSS_EVENTS.fetch_add(self.cross_events - start_cross, AtomicOrdering::Relaxed);
        let batches: u64 = self.lanes.iter().map(|l| l.batches).sum();
        TOTAL_MERGE_BATCHES.fetch_add(batches - start_batches, AtomicOrdering::Relaxed);
        Ok(self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    #[test]
    fn policy_resolves_and_clamps() {
        assert_eq!(ShardPolicy::Serial.resolve(8), 1);
        assert_eq!(ShardPolicy::Sharded(4).resolve(8), 4);
        assert_eq!(ShardPolicy::Sharded(100).resolve(8), 8);
        assert_eq!(ShardPolicy::Sharded(0).resolve(8), 1);
        let auto = ShardPolicy::Auto.resolve(8);
        assert!((1..=8).contains(&auto));
        assert_eq!(ShardPolicy::Auto.resolve(0), 1);
    }

    #[test]
    fn default_policy_round_trips_through_the_override() {
        for p in [
            ShardPolicy::Serial,
            ShardPolicy::Auto,
            ShardPolicy::Sharded(2),
            ShardPolicy::Sharded(8),
        ] {
            set_default_shard_policy(p);
            assert_eq!(default_policy_normalized(p), default_shard_policy());
        }
        set_default_shard_policy(ShardPolicy::Auto);
    }

    fn default_policy_normalized(p: ShardPolicy) -> ShardPolicy {
        match p {
            ShardPolicy::Sharded(0) | ShardPolicy::Sharded(1) => ShardPolicy::Serial,
            other => other,
        }
    }

    #[test]
    #[should_panic(expected = "lookahead is not conservative")]
    fn non_conservative_send_panics() {
        let mut r: ShardRunner<(), u32> = ShardRunner::new(
            vec![(), ()],
            Some(SimDuration::from_ps(1_000)),
            QueuePolicy::Heap,
            4,
        );
        r.seed(0, ps(100), 7);
        let handler = |_w: &mut (),
                       t: SimTime,
                       _batch: &[Scheduled<u32>],
                       ctx: &mut LaneCtx<'_, u32>|
         -> Result<(), ()> {
            // One ps of delay is far below the declared 1000 ps lookahead.
            ctx.send_to(1, t + SimDuration::from_ps(1), 9);
            Ok(())
        };
        let _ = r.run_until(ps(10_000), &handler, &serial_exec);
    }

    #[test]
    fn errors_surface_from_the_lowest_shard() {
        let mut r: ShardRunner<(), u32> = ShardRunner::new(
            vec![(), (), ()],
            Some(SimDuration::from_ps(1_000_000)),
            QueuePolicy::Heap,
            4,
        );
        // Both shard 2 and shard 1 fail inside the same window.
        r.seed(1, ps(100), 1);
        r.seed(2, ps(50), 2);
        let handler = |_w: &mut (),
                       _t: SimTime,
                       batch: &[Scheduled<u32>],
                       _ctx: &mut LaneCtx<'_, u32>|
         -> Result<(), u32> { Err(batch[0].payload) };
        let err = r.run_until(ps(10_000), &handler, &serial_exec);
        assert_eq!(err, Err(1), "lowest shard index wins");
    }

    // ------------------------------------------------------------------
    // The three-way differential: a synthetic interacting world run at
    // 1, 2, and 8 shards (plus a plain-EventQueue reference) must agree
    // bit for bit. Entities step themselves forward and occasionally
    // send tokens to other entities; token routing crosses shard
    // boundaries or not depending on the partition, which is exactly
    // what the engine must make unobservable.
    // ------------------------------------------------------------------

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Msg {
        /// A token arriving at an entity, carrying a value.
        Token { e: u32, v: u64 },
        /// An entity's own step.
        Step { e: u32 },
    }

    impl Msg {
        fn entity(&self) -> u32 {
            match *self {
                Msg::Token { e, .. } | Msg::Step { e } => e,
            }
        }
    }

    /// The entities a shard owns: a contiguous block.
    #[derive(Debug, Clone)]
    struct ToyWorld {
        base: usize,
        clocks: Vec<SimTime>,
        acc: Vec<u64>,
        mailbox: Vec<u64>,
    }

    fn owner(e: usize, entities: usize, shards: usize) -> usize {
        e * shards / entities
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 27;
        x = x.wrapping_mul(0x3c79_ac49_2ba7_b653);
        x ^ (x >> 33)
    }

    const LOOKAHEAD_PS: u64 = 10_000;

    /// Process one tie batch in content-canonical order. Boundary
    /// deliveries make seq order shard-count-dependent, so the handler
    /// sorts the batch by payload — `Msg`'s `Ord` puts tokens before
    /// steps per entity, and token values break token ties.
    fn toy_handler(
        entities: usize,
        shards: usize,
        send_every: u64,
    ) -> impl Fn(&mut ToyWorld, SimTime, &[Scheduled<Msg>], &mut LaneCtx<'_, Msg>) -> Result<(), ()> + Sync
    {
        move |w, t, batch, ctx| {
            let mut msgs: Vec<Msg> = batch.iter().map(|ev| ev.payload).collect();
            msgs.sort_unstable();
            for m in msgs {
                let i = m.entity() as usize - w.base;
                match m {
                    Msg::Token { v, .. } => {
                        w.mailbox[i] = w.mailbox[i].wrapping_add(v);
                    }
                    Msg::Step { e } => {
                        w.acc[i] = mix(w.acc[i].wrapping_add(w.mailbox[i]), t.as_ps());
                        w.clocks[i] = t;
                        if send_every > 0 && w.acc[i] % send_every == 0 {
                            let dst_e = (w.acc[i] >> 8) as usize % entities;
                            let dst = owner(dst_e, entities, shards);
                            let extra = SimDuration::from_ps(w.acc[i] % 5_000);
                            let at = t + SimDuration::from_ps(LOOKAHEAD_PS) + extra;
                            let token = Msg::Token {
                                e: dst_e as u32,
                                v: w.acc[i] | 1,
                            };
                            // Same-shard tokens go through the local
                            // queue, cross-shard ones through the
                            // barrier; the tie-canonical handler makes
                            // the difference unobservable.
                            if dst == ctx.shard() {
                                ctx.schedule(at, token);
                            } else {
                                ctx.send_to(dst, at, token);
                            }
                        }
                        let gap = 1_000 + w.acc[i] % 7_000;
                        ctx.schedule(t + SimDuration::from_ps(gap), Msg::Step { e });
                    }
                }
            }
            Ok(())
        }
    }

    /// Observable outcome of a toy run: per-entity clocks and state,
    /// plus the engine's event count.
    #[derive(Debug, PartialEq, Eq)]
    struct ToyOutcome {
        clocks: Vec<SimTime>,
        acc: Vec<u64>,
        mailbox: Vec<u64>,
        events: u64,
    }

    /// Build the toy world at `shards` shards, seeded in global entity
    /// order as a serial world would seed it.
    fn toy_runner(
        entities: usize,
        shards: usize,
        send_every: u64,
        policy: QueuePolicy,
        starts: &[u64],
    ) -> ShardRunner<ToyWorld, Msg> {
        let mut worlds = Vec::new();
        for s in 0..shards {
            let owned = (0..entities).filter(|&e| owner(e, entities, shards) == s);
            let n = owned.clone().count();
            let base = owned.clone().next().unwrap_or(0);
            worlds.push(ToyWorld {
                base,
                clocks: vec![SimTime::ZERO; n],
                acc: (0..n).map(|i| mix(17, (base + i) as u64)).collect(),
                mailbox: vec![0; n],
            });
        }
        // The token delay floor bounds cross-shard latency; a toy that
        // never sends has no cross-shard channel and declares none.
        let lookahead = (send_every > 0).then_some(SimDuration::from_ps(LOOKAHEAD_PS));
        let mut r = ShardRunner::new(worlds, lookahead, policy, entities.max(4));
        for e in 0..entities {
            let s = owner(e, entities, shards);
            r.seed(s, ps(starts[e % starts.len()]), Msg::Step { e: e as u32 });
        }
        r
    }

    /// Per-entity state of a toy runner, in global entity order.
    fn toy_outcome(r: &ShardRunner<ToyWorld, Msg>, entities: usize) -> ToyOutcome {
        let mut clocks = Vec::new();
        let mut acc = Vec::new();
        let mut mailbox = Vec::new();
        for e in 0..entities {
            let w = r.world(owner(e, entities, r.shards()));
            let i = e - w.base;
            clocks.push(w.clocks[i]);
            acc.push(w.acc[i]);
            mailbox.push(w.mailbox[i]);
        }
        ToyOutcome {
            clocks,
            acc,
            mailbox,
            events: r.events(),
        }
    }

    /// Run the toy world at `shards` shards over a script of horizons.
    fn run_toy(
        entities: usize,
        shards: usize,
        send_every: u64,
        policy: QueuePolicy,
        starts: &[u64],
        horizons: &[u64],
    ) -> ToyOutcome {
        let mut r = toy_runner(entities, shards, send_every, policy, starts);
        let handler = toy_handler(entities, shards, send_every);
        for &h in horizons {
            r.run_until(ps(h), &handler, &serial_exec)
                .unwrap_or_else(|_| panic!("toy world cannot fail"));
        }
        toy_outcome(&r, entities)
    }

    /// Plain single-queue reference: no ShardRunner, no windows — the
    /// ordinary serial DES loop with the same canonical tie handling.
    fn run_toy_reference(
        entities: usize,
        send_every: u64,
        starts: &[u64],
        horizon: u64,
    ) -> ToyOutcome {
        let mut w = ToyWorld {
            base: 0,
            clocks: vec![SimTime::ZERO; entities],
            acc: (0..entities).map(|e| mix(17, e as u64)).collect(),
            mailbox: vec![0; entities],
        };
        let mut q: EventQueue<Msg> = EventQueue::with_capacity(entities.max(4));
        for e in 0..entities {
            q.schedule(ps(starts[e % starts.len()]), Msg::Step { e: e as u32 });
        }
        let mut batch = Vec::new();
        let mut events = 0u64;
        while let Some(t) = q.peek_time() {
            if t >= ps(horizon) {
                break;
            }
            q.pop_batch(&mut batch);
            events += batch.len() as u64;
            let mut msgs: Vec<Msg> = batch.iter().map(|ev| ev.payload).collect();
            msgs.sort_unstable();
            for m in msgs {
                let i = m.entity() as usize;
                match m {
                    Msg::Token { v, .. } => w.mailbox[i] = w.mailbox[i].wrapping_add(v),
                    Msg::Step { e } => {
                        w.acc[i] = mix(w.acc[i].wrapping_add(w.mailbox[i]), t.as_ps());
                        w.clocks[i] = t;
                        if send_every > 0 && w.acc[i] % send_every == 0 {
                            let dst_e = (w.acc[i] >> 8) as usize % entities;
                            let extra = SimDuration::from_ps(w.acc[i] % 5_000);
                            let at = t + SimDuration::from_ps(LOOKAHEAD_PS) + extra;
                            q.schedule(
                                at,
                                Msg::Token {
                                    e: dst_e as u32,
                                    v: w.acc[i] | 1,
                                },
                            );
                        }
                        let gap = 1_000 + w.acc[i] % 7_000;
                        q.schedule(t + SimDuration::from_ps(gap), Msg::Step { e });
                    }
                }
            }
        }
        ToyOutcome {
            clocks: w.clocks,
            acc: w.acc,
            mailbox: w.mailbox,
            events,
        }
    }

    #[test]
    fn sharded_toy_world_matches_reference_and_counts_cross_events() {
        let starts = [0, 300, 1_100];
        let reference = run_toy_reference(12, 3, &starts, 400_000);
        assert!(reference.events > 100, "world must make progress");
        for shards in [1, 2, 8] {
            let got = run_toy(12, shards, 3, QueuePolicy::Auto, &starts, &[400_000]);
            assert_eq!(got, reference, "shards={shards}");
        }
        // At 2+ shards with 12 interacting entities, some tokens must
        // actually cross a boundary — otherwise this test proves nothing.
        let mut r = toy_runner(12, 2, 3, QueuePolicy::Auto, &starts);
        let handler = toy_handler(12, 2, 3);
        r.run_until(ps(400_000), &handler, &serial_exec)
            .unwrap_or_else(|_| panic!("toy world cannot fail"));
        let stats = r.stats();
        assert_eq!(stats.shards, 2);
        assert!(stats.windows > 0);
        assert!(stats.merge_batches > 0);
        assert!(
            stats.cross_events > 0,
            "differential must exercise the boundary path: {stats:?}"
        );
    }

    #[test]
    fn threaded_executor_matches_serial_executor() {
        // A scoped-thread executor: one thread per lane, maximum
        // interleaving freedom — results must still be byte-identical,
        // both windowed and with lanes running free to the horizon.
        fn threaded<W: Send, T: Send>(
            lanes: &mut [Lane<W, T>],
            f: &(dyn Fn(&mut Lane<W, T>) + Sync),
        ) {
            std::thread::scope(|s| {
                for lane in lanes.iter_mut() {
                    s.spawn(move || f(lane));
                }
            });
        }
        let starts = [0, 500];
        for send_every in [2, 0] {
            let serial = run_toy(10, 4, send_every, QueuePolicy::Auto, &starts, &[250_000]);
            let mut r = toy_runner(10, 4, send_every, QueuePolicy::Auto, &starts);
            let handler = toy_handler(10, 4, send_every);
            r.run_until(ps(250_000), &handler, &threaded)
                .unwrap_or_else(|_| panic!("toy world cannot fail"));
            assert_eq!(toy_outcome(&r, 10), serial, "send_every={send_every}");
        }
    }

    #[test]
    fn incremental_horizons_match_one_shot() {
        let starts = [0, 700, 50];
        let one_shot = run_toy(9, 2, 4, QueuePolicy::Auto, &starts, &[300_000]);
        let stepped = run_toy(
            9,
            2,
            4,
            QueuePolicy::Auto,
            &starts,
            &[40_000, 90_000, 300_000],
        );
        assert_eq!(one_shot, stepped);
    }

    #[test]
    #[should_panic(expected = "lookahead is not conservative")]
    fn channel_free_world_that_sends_across_shards_panics() {
        let mut r: ShardRunner<(), u32> =
            ShardRunner::new(vec![(), ()], None, QueuePolicy::Heap, 4);
        r.seed(0, ps(100), 7);
        let handler = |_w: &mut (),
                       t: SimTime,
                       _batch: &[Scheduled<u32>],
                       ctx: &mut LaneCtx<'_, u32>|
         -> Result<(), ()> {
            // Far past the event, yet still below the horizon: a world
            // that declared no lookahead has no cross-shard channel.
            ctx.send_to(1, t + SimDuration::from_ps(5_000), 9);
            Ok(())
        };
        let _ = r.run_until(ps(10_000), &handler, &serial_exec);
    }

    #[test]
    fn channel_free_runs_take_one_window_per_call_and_resume_exactly() {
        let starts = [0, 700, 50];
        let handler = toy_handler(9, 3, 0);
        let mut one_shot = toy_runner(9, 3, 0, QueuePolicy::Auto, &starts);
        one_shot
            .run_until(ps(300_000), &handler, &serial_exec)
            .unwrap_or_else(|_| panic!("toy world cannot fail"));
        assert_eq!(one_shot.stats().windows, 1);
        let expected = toy_outcome(&one_shot, 9);
        assert_eq!(expected, run_toy_reference(9, 0, &starts, 300_000));

        // A horizon at the first event, a repeated horizon and a gap: only
        // calls with an event below their horizon open a window.
        let mut r = toy_runner(9, 3, 0, QueuePolicy::Auto, &starts);
        let mut windows = 0;
        for h in [0, 40_000, 40_000, 90_000, 300_000] {
            if r.next_time().is_some_and(|t| t < ps(h)) {
                windows += 1;
            }
            r.run_until(ps(h), &handler, &serial_exec)
                .unwrap_or_else(|_| panic!("toy world cannot fail"));
            assert_eq!(r.stats().windows, windows, "horizon {h}");
        }
        assert_eq!(windows, 3);
        assert_eq!(r.stats().cross_events, 0);
        assert_eq!(toy_outcome(&r, 9), expected);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The tentpole contract: serial (1 shard), 2 shards, and 8
            /// shards agree bit for bit with the plain-queue reference,
            /// over arbitrary entity counts, start offsets, interaction
            /// rates, drain scripts, and both queue cores. A zero
            /// interaction rate declares no lookahead, so those cases run
            /// the one-window-per-call path.
            #[test]
            fn prop_serial_two_and_eight_shards_agree(
                entities in 2usize..20,
                starts in proptest::collection::vec(0u64..20_000, 1..5),
                send_every in 0u64..6,
                cut in 1u64..10,
                calendar in any::<bool>(),
            ) {
                let horizon = 500_000u64;
                let policy = if calendar { QueuePolicy::Calendar } else { QueuePolicy::Heap };
                let script = [horizon * cut / 10, horizon];
                let reference = run_toy_reference(entities, send_every, &starts, horizon);
                for shards in [1usize, 2, 8] {
                    let got = run_toy(entities, shards, send_every, policy, &starts, &script);
                    prop_assert_eq!(&got, &reference, "shards={}", shards);
                }
            }
        }
    }
}
