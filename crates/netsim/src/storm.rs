//! Fabric-scale pingpong storms: the inter-node face of the event-engine
//! throughput push.
//!
//! Unlike the intra-node storm (whose copy ports spread completion times),
//! the fabric has no serializing resource between distinct pairs, so pairs
//! sharing a path class complete in *lock-step*: with zero initial stagger,
//! hundreds of ranks fire at exactly the same virtual instant every round.
//! That makes this storm the same-timestamp batching showcase —
//! [`EventQueue::pop_batch`] hands the driver whole tie groups, and the
//! calendar core unlinks each group in a single bucket pass instead of one
//! min-search per event.
//!
//! An odd `nodes_per_group` makes some pairs straddle a group boundary, so
//! two round-trip periods (intra- and inter-group) interleave and the tie
//! structure stays non-trivial as virtual time advances.

use doe_simtime::shard::{LaneCtx, ShardPolicy, ShardRunner, ShardStats};
use doe_simtime::{EventQueue, QueuePolicy, Scheduled, SimDuration, SimTime};

use crate::fabric::{Fabric, FabricConfig, NodeId};
use crate::world::{NetError, NetRank, NetWorld, NicConfig};

/// Shape of a fabric storm.
#[derive(Debug, Clone)]
pub struct NetStormConfig {
    /// Number of pingpong pairs; the fabric gets `2 * pairs` nodes.
    pub pairs: usize,
    /// Nodes per switch group. An odd value makes every
    /// `nodes_per_group`-th pair straddle a group boundary (inter-group
    /// round trips mixed in among the intra-group majority).
    pub nodes_per_group: u32,
    /// Message size per leg (eager by default).
    pub bytes: u64,
    /// Initial per-pair clock stagger in picoseconds; 0 keeps pairs in
    /// lock-step and maximizes same-timestamp batches.
    pub skew_ps: u64,
    /// Run the dessan sanitizer on the world.
    pub checks: bool,
}

impl NetStormConfig {
    /// A storm with `ranks` ranks: odd-width groups, 64-byte eager legs,
    /// zero stagger (lock-step ties on purpose).
    pub fn with_ranks(ranks: usize) -> Self {
        NetStormConfig {
            pairs: (ranks / 2).max(1),
            nodes_per_group: 33,
            bytes: 64,
            skew_ps: 0,
            checks: false,
        }
    }
}

/// What a fabric storm observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStormReport {
    /// Round-trip events processed.
    pub events: u64,
    /// Latest rank clock at the end of the run.
    pub final_time: SimTime,
    /// FNV-1a digest over every rank clock (A/B fingerprint).
    pub clock_digest: u64,
    /// Largest same-timestamp batch the queue handed out. Under the
    /// sharded driver this is the largest *per-shard* batch: a serial tie
    /// group split over shards surfaces as smaller per-lane batches, so it
    /// is the one field that may legitimately shrink with shard count.
    pub max_batch: usize,
    /// Whether the calendar core was active when the run finished.
    pub used_calendar: bool,
    /// Shard/window counters: all-zero for the serial driver, populated by
    /// [`ShardedNetStorm`]. Never part of the A/B fingerprint.
    pub shards: ShardStats,
}

/// A running fabric storm.
#[derive(Debug)]
pub struct NetStorm {
    world: NetWorld,
    queue: EventQueue<u32>,
    batch: Vec<Scheduled<u32>>,
    pairs: usize,
    bytes: u64,
    events_done: u64,
    max_batch: usize,
}

impl NetStorm {
    /// Build a fabric sized for the pair count, place ranks on consecutive
    /// nodes, and seed one in-flight event per pair.
    pub fn new(cfg: &NetStormConfig, policy: QueuePolicy, seed: u64) -> Result<Self, NetError> {
        let npg = cfg.nodes_per_group.max(2);
        let nodes = (2 * cfg.pairs) as u32;
        let fabric_cfg = FabricConfig {
            groups: nodes.div_ceil(npg).max(1),
            nodes_per_group: npg,
            ..FabricConfig::slingshot_like()
        };
        let mut world = NetWorld::new(Fabric::new(fabric_cfg), NicConfig::default_hpc(), seed);
        if cfg.checks {
            world.enable_checks();
        }
        let mut queue = EventQueue::with_policy_and_capacity(policy, cfg.pairs);
        for i in 0..cfg.pairs {
            let a = world.add_rank(NodeId(2 * i as u32))?;
            let b = world.add_rank(NodeId(2 * i as u32 + 1))?;
            let stagger = SimDuration::from_ps(cfg.skew_ps * i as u64);
            world.advance(a, stagger)?;
            world.advance(b, stagger)?;
            queue.schedule(world.time(a)?, i as u32);
        }
        Ok(NetStorm {
            world,
            queue,
            batch: Vec::with_capacity(cfg.pairs),
            pairs: cfg.pairs,
            bytes: cfg.bytes,
            events_done: 0,
            max_batch: 0,
        })
    }

    /// Drain one timestamp batch: every pair firing at the current instant
    /// runs a round trip and reschedules itself. Allocation-free once warm.
    // doebench::hot
    pub fn step(&mut self) -> Result<u64, NetError> {
        if self.queue.pop_batch(&mut self.batch).is_none() {
            return Ok(0);
        }
        let n = self.batch.len();
        if n > self.max_batch {
            self.max_batch = n;
        }
        for i in 0..n {
            let pair = self.batch[i].payload as usize;
            let a = NetRank(2 * pair);
            let b = NetRank(2 * pair + 1);
            self.world.send(a, b, self.bytes)?;
            self.world.recv(b, a, self.bytes)?;
            self.world.send(b, a, self.bytes)?;
            self.world.recv(a, b, self.bytes)?;
            self.queue.schedule(self.world.time(a)?, pair as u32);
        }
        self.events_done += n as u64;
        Ok(n as u64)
    }

    /// Run until at least `events` round trips have been processed.
    // doebench::hot
    pub fn run(&mut self, events: u64) -> Result<u64, NetError> {
        while self.events_done < events {
            if self.step()? == 0 {
                break;
            }
        }
        Ok(self.events_done)
    }

    /// Run every round trip that fires strictly before `horizon`. The
    /// virtual-time stop selects a shard-count-invariant event set, so this
    /// is the serial oracle [`ShardedNetStorm`] is diffed against.
    // doebench::hot
    pub fn run_until(&mut self, horizon: SimTime) -> Result<u64, NetError> {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            self.step()?;
        }
        Ok(self.events_done)
    }

    /// The world under the storm.
    pub fn world(&self) -> &NetWorld {
        &self.world
    }

    /// Summarize the run so far.
    pub fn report(&self) -> NetStormReport {
        let mut final_time = SimTime::ZERO;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..2 * self.pairs {
            let t = match self.world.time(NetRank(r)) {
                Ok(t) => t,
                Err(_) => SimTime::ZERO,
            };
            final_time = final_time.max(t);
            digest ^= t.as_ps();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        NetStormReport {
            events: self.events_done,
            final_time,
            clock_digest: digest,
            max_batch: self.max_batch,
            used_calendar: self.queue.is_calendar(),
            shards: ShardStats::default(),
        }
    }
}

/// Build a fabric storm, run `events` round trips, and report.
pub fn run_net_storm(
    cfg: &NetStormConfig,
    policy: QueuePolicy,
    seed: u64,
    events: u64,
) -> Result<NetStormReport, NetError> {
    let mut storm = NetStorm::new(cfg, policy, seed)?;
    storm.run(events)?;
    Ok(storm.report())
}

/// One shard lane of the fabric storm: its world plus the per-lane
/// batch-size high-water mark the serial driver also tracks.
#[derive(Debug)]
pub struct NetShard {
    world: NetWorld,
    max_batch: usize,
}

/// The fabric storm on the sharded conservative-window engine: one shard
/// per contiguous block of pairs, one [`NetWorld`] per shard over the same
/// full fabric.
///
/// The partition is exact: a pair only messages its partner and the fabric
/// holds no mutable inter-pair state during a storm (path lookup is pure;
/// no background flows are added), so nothing crosses a shard boundary and
/// the serial `(time, seq)` order restricted to a shard is that shard's
/// local order — [`ShardedNetStorm::run_until`] is bit-identical to
/// [`NetStorm::run_until`] at any shard count. With no channel between
/// shards the runner needs no lookahead: every shard drains to the
/// horizon in one window.
#[derive(Debug)]
pub struct ShardedNetStorm {
    runner: ShardRunner<NetShard, u32>,
    /// Global pair index → owning shard.
    shard_of_pair: Vec<u32>,
    /// Global pair index → pair index within its shard's world.
    local_pair: Vec<u32>,
    pairs: usize,
    bytes: u64,
}

impl ShardedNetStorm {
    /// Build one world per shard on identically-configured fabrics, place
    /// each shard's ranks on the same global `NodeId`s the serial world
    /// uses, and seed pairs in global order (per-shard seqs are the serial
    /// seqs restricted to the shard).
    pub fn new(
        cfg: &NetStormConfig,
        shards: ShardPolicy,
        policy: QueuePolicy,
        seed: u64,
    ) -> Result<Self, NetError> {
        let pairs = cfg.pairs.max(1);
        let n = shards.resolve(pairs);
        let npg = cfg.nodes_per_group.max(2);
        let nodes = (2 * pairs) as u32;
        let fabric_cfg = FabricConfig {
            groups: nodes.div_ceil(npg).max(1),
            nodes_per_group: npg,
            ..FabricConfig::slingshot_like()
        };
        // Contiguous pair blocks; near-equal sizes.
        let shard_of_pair: Vec<u32> = (0..pairs).map(|i| (i * n / pairs) as u32).collect();

        let mut worlds = Vec::with_capacity(n);
        for _ in 0..n {
            // Same seed → same run_factor as the serial world: the jitter
            // draw happens at construction, before any rank exists.
            let mut w = NetWorld::new(
                Fabric::new(fabric_cfg.clone()),
                NicConfig::default_hpc(),
                seed,
            );
            if cfg.checks {
                w.enable_checks();
            }
            worlds.push(NetShard {
                world: w,
                max_batch: 0,
            });
        }

        let mut local_pair = Vec::with_capacity(pairs);
        let mut counts = vec![0u32; n];
        for &s in &shard_of_pair {
            local_pair.push(counts[s as usize]);
            counts[s as usize] += 1;
        }
        let cap = counts.iter().copied().max().unwrap_or(1) as usize;

        let mut runner = ShardRunner::new(worlds, None, policy, cap.max(1));
        for (i, &shard) in shard_of_pair.iter().enumerate() {
            let s = shard as usize;
            let lane = runner.world_mut(s);
            let a = lane.world.add_rank(NodeId(2 * i as u32))?;
            let b = lane.world.add_rank(NodeId(2 * i as u32 + 1))?;
            let stagger = SimDuration::from_ps(cfg.skew_ps * i as u64);
            lane.world.advance(a, stagger)?;
            lane.world.advance(b, stagger)?;
            let t = lane.world.time(a)?;
            runner.seed(s, t, i as u32);
        }
        Ok(ShardedNetStorm {
            runner,
            shard_of_pair,
            local_pair,
            pairs,
            bytes: cfg.bytes,
        })
    }

    /// Run every round trip firing strictly before `horizon`: one
    /// barrier-free window, its shards fork-joined once on `benchlib`'s
    /// persistent worker team. On a 2-core host (`nproc` 2) the 1k-rank
    /// storm's ~364k round trips take ~50–55 ms at 2 shards, as in
    /// ~900 lock-step windows (it is work-bound), against ~63–86 ms
    /// serially. Returns total round trips processed so far.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<u64, NetError> {
        let bytes = self.bytes;
        let local_pair = &self.local_pair;
        let handler = move |lane: &mut NetShard,
                            _t: SimTime,
                            batch: &[Scheduled<u32>],
                            ctx: &mut LaneCtx<'_, u32>|
              -> Result<(), NetError> {
            if batch.len() > lane.max_batch {
                lane.max_batch = batch.len();
            }
            for ev in batch {
                let pair = ev.payload as usize;
                let lp = local_pair[pair] as usize;
                let a = NetRank(2 * lp);
                let b = NetRank(2 * lp + 1);
                lane.world.send(a, b, bytes)?;
                lane.world.recv(b, a, bytes)?;
                lane.world.send(b, a, bytes)?;
                lane.world.recv(a, b, bytes)?;
                ctx.schedule(lane.world.time(a)?, ev.payload);
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
            .flat_map(|l| l.world.check_findings())
            .collect()
    }

    /// Summarize the run so far. The digest walks ranks in *global* rank
    /// order whatever the shard count, so it is directly comparable with
    /// [`NetStorm::report`].
    pub fn report(&self) -> NetStormReport {
        let mut final_time = SimTime::ZERO;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..2 * self.pairs {
            let pair = r / 2;
            let s = self.shard_of_pair[pair] as usize;
            let local = NetRank(2 * self.local_pair[pair] as usize + (r & 1));
            let t = match self.runner.world(s).world.time(local) {
                Ok(t) => t,
                Err(_) => SimTime::ZERO,
            };
            final_time = final_time.max(t);
            digest ^= t.as_ps();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        let max_batch = self.runner.worlds().map(|l| l.max_batch).max().unwrap_or(0);
        NetStormReport {
            events: self.runner.events(),
            final_time,
            clock_digest: digest,
            max_batch,
            used_calendar: self.runner.used_calendar(),
            shards: self.runner.stats(),
        }
    }
}

/// Build a sharded fabric storm, run it to `horizon`, and report.
pub fn run_net_storm_sharded(
    cfg: &NetStormConfig,
    shards: ShardPolicy,
    policy: QueuePolicy,
    seed: u64,
    horizon: SimTime,
) -> Result<NetStormReport, NetError> {
    let mut storm = ShardedNetStorm::new(cfg, shards, policy, seed)?;
    storm.run_until(horizon)?;
    Ok(storm.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NetStormConfig {
        NetStormConfig {
            pairs: 80,
            nodes_per_group: 33,
            bytes: 64,
            skew_ps: 0,
            checks: false,
        }
    }

    #[test]
    fn lockstep_storm_produces_large_batches() {
        let mut storm = NetStorm::new(&small(), QueuePolicy::Auto, 3).expect("storm");
        storm.run(2_000).expect("run");
        let r = storm.report();
        assert!(r.events >= 2_000);
        // With zero stagger, the intra-group pairs all fire together.
        assert!(
            r.max_batch > 40,
            "expected lock-step tie batches, got max {}",
            r.max_batch
        );
    }

    #[test]
    fn heap_and_calendar_fabric_storms_are_bit_identical() {
        let cfg = small();
        let heap = run_net_storm(&cfg, QueuePolicy::Heap, 3, 2_000).expect("heap");
        let cal = run_net_storm(&cfg, QueuePolicy::Calendar, 3, 2_000).expect("calendar");
        assert!(cal.used_calendar && !heap.used_calendar);
        assert_eq!(heap.events, cal.events);
        assert_eq!(heap.final_time, cal.final_time);
        assert_eq!(heap.clock_digest, cal.clock_digest);
        assert_eq!(heap.max_batch, cal.max_batch);
    }

    #[test]
    fn checked_fabric_storm_is_clean_and_matches_unchecked() {
        let mut cfg = small();
        let plain = run_net_storm(&cfg, QueuePolicy::Auto, 3, 1_000).expect("plain");
        cfg.checks = true;
        let mut storm = NetStorm::new(&cfg, QueuePolicy::Auto, 3).expect("checked");
        storm.run(1_000).expect("run");
        assert!(
            storm.world().check_findings().is_empty(),
            "fabric storm must be sanitizer-clean: {:?}",
            storm.world().check_findings()
        );
        assert_eq!(plain.clock_digest, storm.report().clock_digest);
    }

    /// Run the serial storm for `events` round trips and return its final
    /// frontier as a shard-count-invariant horizon.
    fn probe_horizon(cfg: &NetStormConfig, seed: u64, events: u64) -> SimTime {
        let mut storm = NetStorm::new(cfg, QueuePolicy::Heap, seed).expect("probe storm");
        storm.run(events).expect("probe run");
        storm.report().final_time
    }

    #[test]
    fn sharded_fabric_storm_is_bit_identical_to_serial_at_any_shard_count() {
        let cfg = small();
        let horizon = probe_horizon(&cfg, 3, 2_000);
        let mut serial = NetStorm::new(&cfg, QueuePolicy::Heap, 3).expect("serial");
        serial.run_until(horizon).expect("serial run");
        let oracle = serial.report();
        assert!(oracle.events > 0, "horizon must select real work");

        for shards in [1usize, 2, 8] {
            let r = run_net_storm_sharded(
                &cfg,
                ShardPolicy::Sharded(shards),
                QueuePolicy::Heap,
                3,
                horizon,
            )
            .expect("sharded storm");
            assert_eq!(r.events, oracle.events, "shards={shards}");
            assert_eq!(r.final_time, oracle.final_time, "shards={shards}");
            assert_eq!(r.clock_digest, oracle.clock_digest, "shards={shards}");
            assert_eq!(r.shards.shards, shards);
            // No cross-shard channel: one barrier-free window per call.
            assert_eq!(r.shards.windows, 1, "shards={shards}");
            // Pairs never message across shards, and the per-shard tie
            // batches stay large on the lock-step fabric at small counts.
            assert_eq!(r.shards.cross_events, 0, "shards={shards}");
            if shards == 1 {
                assert_eq!(r.max_batch, oracle.max_batch);
            }
        }
    }

    #[test]
    fn checked_sharded_fabric_storm_is_clean_and_matches_unchecked() {
        let mut cfg = small();
        let horizon = probe_horizon(&cfg, 3, 1_000);
        let plain =
            run_net_storm_sharded(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Auto, 3, horizon)
                .expect("plain");
        cfg.checks = true;
        let mut storm = ShardedNetStorm::new(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Auto, 3)
            .expect("storm");
        storm.run_until(horizon).expect("run");
        assert!(
            storm.check_findings().is_empty(),
            "sharded fabric storm must be sanitizer-clean: {:?}",
            storm.check_findings()
        );
        assert_eq!(plain.clock_digest, storm.report().clock_digest);
    }

    #[test]
    fn sharded_queue_policies_are_bit_identical() {
        let cfg = small();
        let horizon = probe_horizon(&cfg, 3, 1_500);
        let heap =
            run_net_storm_sharded(&cfg, ShardPolicy::Sharded(4), QueuePolicy::Heap, 3, horizon)
                .expect("heap");
        let cal = run_net_storm_sharded(
            &cfg,
            ShardPolicy::Sharded(4),
            QueuePolicy::Calendar,
            3,
            horizon,
        )
        .expect("calendar");
        assert!(cal.used_calendar && !heap.used_calendar);
        assert_eq!(heap.clock_digest, cal.clock_digest);
        assert_eq!(heap.events, cal.events);
        assert_eq!(heap.max_batch, cal.max_batch);
    }
}
