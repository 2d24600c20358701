//! Multi-pair pingpong storm worlds: O(ranks) event-engine workloads.
//!
//! The paper's tables stop at one node and two ranks; the storm drives the
//! same eager-protocol machinery with *thousands* of concurrent pairs, one
//! in-flight event per pair, all scheduled through a single
//! [`EventQueue`]. That puts 10³–10⁴ concurrent events in the scheduler —
//! exactly the population where the calendar core's amortized O(1)
//! schedule/pop separates from the heap's O(log n) — while the per-NUMA
//! copy ports serialize co-located senders and spread completion times the
//! way contended hardware does.
//!
//! The storm is deterministic: given a config, seed, and rank placement,
//! the event order is a total order of `(time, seq)` independent of the
//! queue core, so [`StormReport::clock_digest`] is bit-identical between
//! the heap and calendar schedulers. The A/B integration test pins that.

use std::sync::Arc;

use doe_simtime::shard::{LaneCtx, ShardPolicy, ShardRunner, ShardStats};
use doe_simtime::{EventQueue, QueuePolicy, Scheduled, SimTime};
use doe_topo::{CoreId, NodeBuilder, NodeTopology, NumaId, SocketId};

use crate::config::MpiConfig;
use crate::world::{MpiError, MpiSim, Rank};

/// Shape of a storm world.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Number of pingpong pairs; the world has `2 * pairs` ranks.
    pub pairs: usize,
    /// NUMA domains the pairs are spread over, round-robin. Each domain has
    /// one shared-memory copy port, so fewer domains mean more contention.
    pub numa_domains: usize,
    /// Message size per leg (keep at or below the eager threshold for the
    /// allocation-free steady state the benchmarks pin).
    pub bytes: u64,
    /// Initial per-pair clock stagger in picoseconds (pair `i` starts at
    /// `i * skew_ps`), so the event population does not start as one
    /// degenerate tie cluster.
    pub skew_ps: u64,
    /// Run the dessan sanitizer on the world (vector clocks per rank).
    pub checks: bool,
}

impl StormConfig {
    /// A storm with `ranks` ranks (`ranks / 2` pairs) and contention-heavy
    /// defaults: 8 NUMA domains, 64-byte eager messages, 731 ps stagger.
    pub fn with_ranks(ranks: usize) -> Self {
        StormConfig {
            pairs: (ranks / 2).max(1),
            numa_domains: 8,
            bytes: 64,
            skew_ps: 731,
            checks: false,
        }
    }
}

/// What a storm run observed, for throughput metrics and A/B digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormReport {
    /// Round-trip events processed.
    pub events: u64,
    /// Latest rank clock at the end of the run.
    pub final_time: SimTime,
    /// FNV-1a digest over every rank clock — the A/B fingerprint that must
    /// match between queue policies (and with the sanitizer on or off).
    pub clock_digest: u64,
    /// High-water mark of the event queue (should equal `pairs`).
    pub max_queue_depth: usize,
    /// Whether the calendar core was active when the run finished.
    pub used_calendar: bool,
    /// Shard/window counters: all-zero for the unsharded serial driver,
    /// populated by [`ShardedStorm`]. Never part of the A/B fingerprint —
    /// window counts legitimately differ across shard counts while the
    /// clocks above stay bit-identical.
    pub shards: ShardStats,
}

/// The flat multi-domain topology a storm runs on: `numa_domains` sockets
/// with enough cores that every pair gets two dedicated cores in one
/// domain. No inter-domain links — storm traffic is all shared-memory.
pub fn storm_topology(pairs: usize, numa_domains: usize) -> Arc<NodeTopology> {
    let domains = numa_domains.max(1) as u32;
    let cores_per_numa = 2 * (pairs as u32).div_ceil(domains);
    let mut b = NodeBuilder::new("storm");
    for d in 0..domains {
        b = b
            .socket("storm-cpu")
            .numa(SocketId(d))
            .cores(NumaId(d), cores_per_numa, 1);
    }
    // Chain the domains with socket links so the topology is connected;
    // storm pairs are placed within a domain, so no traffic crosses them.
    for d in 1..domains {
        b = b.link(
            doe_topo::Vertex::Numa(NumaId(d - 1)),
            doe_topo::Vertex::Numa(NumaId(d)),
            doe_topo::LinkKind::Upi,
            doe_simtime::SimDuration::from_ns(200.0),
            40.0,
        );
    }
    match b.build() {
        Ok(t) => Arc::new(t),
        Err(e) => panic!("storm topology invalid: {e}"),
    }
}

/// A running storm: a world, its event engine, and a reusable batch buffer.
///
/// Split from [`run_storm`] so callers (the allocation test, the
/// benchmarks) can warm the world up and then time or audit the pure
/// steady state.
#[derive(Debug)]
pub struct Storm {
    world: MpiSim,
    queue: EventQueue<u32>,
    batch: Vec<Scheduled<u32>>,
    bytes: u64,
    events_done: u64,
    max_depth: usize,
}

impl Storm {
    /// Build the world, place `2 * cfg.pairs` ranks, and seed one in-flight
    /// event per pair (staggered by `skew_ps`).
    pub fn new(cfg: &StormConfig, policy: QueuePolicy, seed: u64) -> Result<Self, MpiError> {
        let domains = cfg.numa_domains.max(1);
        let topo = storm_topology(cfg.pairs, domains);
        let cores_per_numa = 2 * cfg.pairs.div_ceil(domains);
        let mut world = MpiSim::try_new(topo, MpiConfig::default_host(), seed)?;
        for i in 0..cfg.pairs {
            // Pair i lives in domain i % domains, on that domain's next
            // two free cores; both ends share the domain (and its port).
            let d = i % domains;
            let slot = i / domains;
            let base = (d * cores_per_numa + 2 * slot) as u32;
            world.add_host_rank(CoreId(base))?;
            world.add_host_rank(CoreId(base + 1))?;
        }
        if cfg.checks {
            world.enable_checks();
        }
        let mut queue = EventQueue::with_policy_and_capacity(policy, cfg.pairs);
        for i in 0..cfg.pairs {
            let a = Rank(2 * i);
            let b = Rank(2 * i + 1);
            let stagger = doe_simtime::SimDuration::from_ps(cfg.skew_ps * i as u64);
            world.advance(a, stagger)?;
            world.advance(b, stagger)?;
            queue.schedule(world.time(a)?, i as u32);
        }
        Ok(Storm {
            world,
            queue,
            batch: Vec::with_capacity(cfg.pairs),
            bytes: cfg.bytes,
            events_done: 0,
            max_depth: cfg.pairs,
        })
    }

    /// Drain one timestamp batch: every pair whose event fires at the
    /// current instant runs one full round trip and reschedules itself at
    /// its new clock. Returns the number of round trips processed (0 only
    /// if the queue is empty). Allocation-free once warm.
    // doebench::hot
    pub fn step(&mut self) -> Result<u64, MpiError> {
        if self.queue.pop_batch(&mut self.batch).is_none() {
            return Ok(0);
        }
        let n = self.batch.len();
        for i in 0..n {
            let pair = self.batch[i].payload as usize;
            let a = Rank(2 * pair);
            let b = Rank(2 * pair + 1);
            self.world.send(a, b, self.bytes)?;
            self.world.recv(b, a, self.bytes)?;
            self.world.send(b, a, self.bytes)?;
            self.world.recv(a, b, self.bytes)?;
            self.queue.schedule(self.world.time(a)?, pair as u32);
        }
        if self.queue.len() > self.max_depth {
            self.max_depth = self.queue.len();
        }
        self.events_done += n as u64;
        Ok(n as u64)
    }

    /// Run until at least `events` round trips have been processed in
    /// total (across all `run`/`step` calls so far).
    // doebench::hot
    pub fn run(&mut self, events: u64) -> Result<u64, MpiError> {
        while self.events_done < events {
            if self.step()? == 0 {
                break;
            }
        }
        Ok(self.events_done)
    }

    /// Run every round trip that fires strictly before `horizon`; later
    /// events stay queued. Unlike the event-count stop of [`Storm::run`],
    /// a virtual-time horizon selects a shard-count-invariant event set,
    /// so this is the serial oracle the sharded driver is diffed against.
    // doebench::hot
    pub fn run_until(&mut self, horizon: SimTime) -> Result<u64, MpiError> {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            self.step()?;
        }
        Ok(self.events_done)
    }

    /// The world under the storm (e.g. for sanitizer findings).
    pub fn world(&self) -> &MpiSim {
        &self.world
    }

    /// Summarize the run so far.
    pub fn report(&self) -> StormReport {
        let mut final_time = SimTime::ZERO;
        // FNV-1a over the rank clocks: any reordering or cost drift between
        // queue cores changes some clock and therefore the digest.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..self.world.size() {
            let t = match self.world.time(Rank(r)) {
                Ok(t) => t,
                Err(_) => SimTime::ZERO,
            };
            final_time = final_time.max(t);
            digest ^= t.as_ps();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        StormReport {
            events: self.events_done,
            final_time,
            clock_digest: digest,
            max_queue_depth: self.max_depth,
            used_calendar: self.queue.is_calendar(),
            shards: ShardStats::default(),
        }
    }
}

/// Build a storm, run `events` round trips, and report.
pub fn run_storm(
    cfg: &StormConfig,
    policy: QueuePolicy,
    seed: u64,
    events: u64,
) -> Result<StormReport, MpiError> {
    let mut storm = Storm::new(cfg, policy, seed)?;
    storm.run(events)?;
    Ok(storm.report())
}

/// The storm on the sharded conservative-window engine: one shard per
/// contiguous block of NUMA domains, one `MpiSim` world per shard.
///
/// The partition is exact, not approximate: a storm pair only ever
/// messages its partner (same domain) and only ever contends on its
/// domain's copy port, and shards are unions of whole domains — so no
/// event, message, or port access crosses a shard boundary, and the
/// serial `(time, seq)` order restricted to a shard *is* that shard's
/// local order. That makes [`ShardedStorm::run_until`] bit-identical to
/// [`Storm::run_until`] at any shard count, which
/// `tests/integration_shards.rs` and the in-module tests pin. With no
/// channel between shards the runner needs no lookahead: every shard
/// drains to the horizon in one window.
#[derive(Debug)]
pub struct ShardedStorm {
    runner: ShardRunner<MpiSim, u32>,
    /// Global pair index → owning shard.
    shard_of_pair: Vec<u32>,
    /// Global pair index → pair index within its shard's world.
    local_pair: Vec<u32>,
    pairs: usize,
    bytes: u64,
}

impl ShardedStorm {
    /// Build one world per shard over the same storm topology, place
    /// each shard's ranks on the same cores the serial world would use,
    /// and seed pairs in global order (so per-shard seqs are the serial
    /// seqs restricted to the shard).
    pub fn new(
        cfg: &StormConfig,
        shards: ShardPolicy,
        policy: QueuePolicy,
        seed: u64,
    ) -> Result<Self, MpiError> {
        let domains = cfg.numa_domains.max(1);
        let n = shards.resolve(domains);
        let topo = storm_topology(cfg.pairs, domains);
        let cores_per_numa = 2 * cfg.pairs.div_ceil(domains);
        // Contiguous domain blocks: shards never split a domain, so the
        // per-domain copy ports stay shard-private.
        let shard_of_domain: Vec<usize> = (0..domains).map(|d| d * n / domains).collect();

        let mut worlds = Vec::with_capacity(n);
        for _ in 0..n {
            let mut w = MpiSim::try_new(topo.clone(), MpiConfig::default_host(), seed)?;
            if cfg.checks {
                w.enable_checks();
            }
            worlds.push(w);
        }

        let mut shard_of_pair = Vec::with_capacity(cfg.pairs);
        let mut local_pair = Vec::with_capacity(cfg.pairs);
        let mut counts = vec![0u32; n];
        for i in 0..cfg.pairs {
            let s = shard_of_domain[i % domains];
            shard_of_pair.push(s as u32);
            local_pair.push(counts[s]);
            counts[s] += 1;
        }
        let cap = counts.iter().copied().max().unwrap_or(1) as usize;

        // Rank placement in global pair order, on the identical cores the
        // serial storm uses — per-rank clocks depend only on (core, NUMA
        // domain, world seed), all shard-invariant.
        for i in 0..cfg.pairs {
            let d = i % domains;
            let slot = i / domains;
            let base = (d * cores_per_numa + 2 * slot) as u32;
            let w = &mut worlds[shard_of_pair[i] as usize];
            w.add_host_rank(CoreId(base))?;
            w.add_host_rank(CoreId(base + 1))?;
        }

        let mut runner = ShardRunner::new(worlds, None, policy, cap.max(1));
        for i in 0..cfg.pairs {
            let s = shard_of_pair[i] as usize;
            let lp = local_pair[i] as usize;
            let a = Rank(2 * lp);
            let b = Rank(2 * lp + 1);
            let stagger = doe_simtime::SimDuration::from_ps(cfg.skew_ps * i as u64);
            let w = runner.world_mut(s);
            w.advance(a, stagger)?;
            w.advance(b, stagger)?;
            let t = w.time(a)?;
            runner.seed(s, t, i as u32);
        }
        Ok(ShardedStorm {
            runner,
            shard_of_pair,
            local_pair,
            pairs: cfg.pairs,
            bytes: cfg.bytes,
        })
    }

    /// Run every round trip firing strictly before `horizon`: one
    /// barrier-free window, its shards fork-joined once on `benchlib`'s
    /// persistent worker team (worker count from `--jobs` /
    /// `DOEBENCH_JOBS`; shard count and worker count are independent).
    /// On a 2-core host (`nproc` 2) the 10k-rank storm's ~45k round trips
    /// take ~9 ms at 2 shards, against ~15 ms in ~5000 lock-step windows
    /// and ~12–14 ms serially. Returns total round trips processed so far.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<u64, MpiError> {
        let bytes = self.bytes;
        let local_pair = &self.local_pair;
        let handler = move |world: &mut MpiSim,
                            _t: SimTime,
                            batch: &[Scheduled<u32>],
                            ctx: &mut LaneCtx<'_, u32>|
              -> Result<(), MpiError> {
            for ev in batch {
                let pair = ev.payload as usize;
                let lp = local_pair[pair] as usize;
                let a = Rank(2 * lp);
                let b = Rank(2 * lp + 1);
                world.send(a, b, bytes)?;
                world.recv(b, a, bytes)?;
                world.send(b, a, bytes)?;
                world.recv(a, b, bytes)?;
                ctx.schedule(world.time(a)?, ev.payload);
            }
            Ok(())
        };
        self.runner.run_until(horizon, &handler, &|lanes, f| {
            doe_benchlib::parallel_for_each_mut(lanes, |_, lane| f(lane));
        })
    }

    /// Number of shards the storm runs on.
    pub fn shards(&self) -> usize {
        self.runner.shards()
    }

    /// Sanitizer findings across every shard's world, in shard order.
    pub fn check_findings(&self) -> Vec<String> {
        self.runner
            .worlds()
            .flat_map(|w| w.check_findings())
            .collect()
    }

    /// Summarize the run so far. The digest walks ranks in *global* rank
    /// order (pair 0's a, pair 0's b, pair 1's a, …) whatever the shard
    /// count, so it is directly comparable with [`Storm::report`].
    pub fn report(&self) -> StormReport {
        let mut final_time = SimTime::ZERO;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..2 * self.pairs {
            let pair = r / 2;
            let s = self.shard_of_pair[pair] as usize;
            let local = Rank(2 * self.local_pair[pair] as usize + (r & 1));
            let t = match self.runner.world(s).time(local) {
                Ok(t) => t,
                Err(_) => SimTime::ZERO,
            };
            final_time = final_time.max(t);
            digest ^= t.as_ps();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        StormReport {
            events: self.runner.events(),
            final_time,
            clock_digest: digest,
            // One in-flight event per pair, spread over the shard queues.
            max_queue_depth: self.pairs,
            used_calendar: self.runner.used_calendar(),
            shards: self.runner.stats(),
        }
    }
}

/// Build a sharded storm, run it to `horizon`, and report.
pub fn run_storm_sharded(
    cfg: &StormConfig,
    shards: ShardPolicy,
    policy: QueuePolicy,
    seed: u64,
    horizon: SimTime,
) -> Result<StormReport, MpiError> {
    let mut storm = ShardedStorm::new(cfg, shards, policy, seed)?;
    storm.run_until(horizon)?;
    Ok(storm.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StormConfig {
        StormConfig {
            pairs: 96,
            numa_domains: 4,
            bytes: 64,
            skew_ps: 731,
            checks: false,
        }
    }

    #[test]
    fn storm_makes_progress_and_tracks_depth() {
        let r = run_storm(&small(), QueuePolicy::Auto, 9, 2_000).expect("storm runs");
        assert!(r.events >= 2_000);
        assert_eq!(r.max_queue_depth, 96);
        assert!(r.final_time > SimTime::ZERO);
    }

    #[test]
    fn heap_and_calendar_storms_are_bit_identical() {
        let cfg = small();
        let heap = run_storm(&cfg, QueuePolicy::Heap, 9, 3_000).expect("heap storm");
        let cal = run_storm(&cfg, QueuePolicy::Calendar, 9, 3_000).expect("calendar storm");
        assert!(cal.used_calendar && !heap.used_calendar);
        assert_eq!(heap.events, cal.events);
        assert_eq!(heap.final_time, cal.final_time);
        assert_eq!(heap.clock_digest, cal.clock_digest);
    }

    #[test]
    fn checked_storm_is_clean_and_matches_unchecked() {
        let mut cfg = small();
        let plain = run_storm(&cfg, QueuePolicy::Auto, 9, 1_500).expect("plain");
        cfg.checks = true;
        let mut storm = Storm::new(&cfg, QueuePolicy::Auto, 9).expect("checked storm");
        storm.run(1_500).expect("run");
        let checked = storm.report();
        assert!(
            storm.world().check_findings().is_empty(),
            "storm must be sanitizer-clean: {:?}",
            storm.world().check_findings()
        );
        assert_eq!(plain.clock_digest, checked.clock_digest);
    }

    #[test]
    fn storm_seeds_differ_but_runs_reproduce() {
        let cfg = small();
        let a = run_storm(&cfg, QueuePolicy::Auto, 5, 1_000).expect("a");
        let b = run_storm(&cfg, QueuePolicy::Auto, 5, 1_000).expect("b");
        let c = run_storm(&cfg, QueuePolicy::Auto, 6, 1_000).expect("c");
        assert_eq!(a, b);
        assert_ne!(a.clock_digest, c.clock_digest);
    }

    /// Run the serial storm for `events` round trips and return a horizon
    /// just past its frontier, so `run_until` selects a comparable,
    /// shard-count-invariant slice of the schedule.
    fn probe_horizon(cfg: &StormConfig, seed: u64, events: u64) -> SimTime {
        let mut storm = Storm::new(cfg, QueuePolicy::Heap, seed).expect("probe storm");
        storm.run(events).expect("probe run");
        storm.report().final_time
    }

    #[test]
    fn sharded_storm_is_bit_identical_to_serial_at_any_shard_count() {
        let cfg = small();
        let horizon = probe_horizon(&cfg, 9, 3_000);
        let mut serial = Storm::new(&cfg, QueuePolicy::Heap, 9).expect("serial");
        serial.run_until(horizon).expect("serial run");
        let oracle = serial.report();
        assert!(oracle.events > 0, "horizon must select real work");

        for shards in [1usize, 2, 4] {
            let r = run_storm_sharded(
                &cfg,
                ShardPolicy::Sharded(shards),
                QueuePolicy::Heap,
                9,
                horizon,
            )
            .expect("sharded storm");
            assert_eq!(r.events, oracle.events, "shards={shards}");
            assert_eq!(r.final_time, oracle.final_time, "shards={shards}");
            assert_eq!(r.clock_digest, oracle.clock_digest, "shards={shards}");
            assert_eq!(r.shards.shards, shards);
            // No cross-shard channel: one barrier-free window per call.
            assert_eq!(r.shards.windows, 1, "shards={shards}");
        }
    }

    #[test]
    fn shard_count_clamps_to_domains_and_pairs_stay_shard_private() {
        let cfg = small();
        let horizon = probe_horizon(&cfg, 9, 1_000);
        let storm =
            ShardedStorm::new(&cfg, ShardPolicy::Sharded(64), QueuePolicy::Auto, 9).expect("storm");
        assert_eq!(storm.shards(), cfg.numa_domains);
        let mut storm = storm;
        storm.run_until(horizon).expect("run");
        let r = storm.report();
        // The storm partition has no cross-shard traffic by construction:
        // both ends of every pair share a NUMA domain and shards are unions
        // of whole domains.
        assert_eq!(r.shards.cross_events, 0);
        assert!(r.shards.merge_batches > 0);
    }

    #[test]
    fn checked_sharded_storm_is_clean_and_matches_unchecked() {
        let mut cfg = small();
        let horizon = probe_horizon(&cfg, 9, 1_500);
        let plain = run_storm_sharded(&cfg, ShardPolicy::Sharded(2), QueuePolicy::Auto, 9, horizon)
            .expect("plain");
        cfg.checks = true;
        let mut storm =
            ShardedStorm::new(&cfg, ShardPolicy::Sharded(2), QueuePolicy::Auto, 9).expect("storm");
        storm.run_until(horizon).expect("run");
        assert!(
            storm.check_findings().is_empty(),
            "sharded storm must be sanitizer-clean: {:?}",
            storm.check_findings()
        );
        assert_eq!(plain.clock_digest, storm.report().clock_digest);
    }

    #[test]
    fn sharded_queue_policies_are_bit_identical() {
        let cfg = small();
        let horizon = probe_horizon(&cfg, 9, 2_000);
        let heap = run_storm_sharded(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Heap, 9, horizon)
            .expect("heap");
        let cal = run_storm_sharded(
            &cfg,
            ShardPolicy::Sharded(4),
            QueuePolicy::Calendar,
            9,
            horizon,
        )
        .expect("calendar");
        assert!(cal.used_calendar && !heap.used_calendar);
        assert_eq!(heap.clock_digest, cal.clock_digest);
        assert_eq!(heap.events, cal.events);
    }
}
