//! Seeded-mutation smoke tests for the dataflow analyses.
//!
//! Each test takes a REAL workspace source file, verifies the pristine
//! text carries no finding of the rule under test, applies a small
//! mutation of the kind the rule exists to catch (drop a recv, reorder
//! an event_record, strip a buffer annotation, break a unit conversion,
//! seed a timestamp from the wall clock directly or through a helper's
//! return value, call an allocating helper from a hot fn), and asserts
//! the mutant is flagged. This is the end-to-end guarantee that the
//! checkers detect the bug classes they claim to — not just on
//! fixtures, but on the actual code they gate.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Load a workspace file, assert each edit's pattern is present exactly
/// once, and return `(pristine, mutant)` texts.
fn mutate(rel: &str, edits: &[(&str, &str)]) -> (String, String) {
    let path = workspace_root().join(rel);
    let pristine = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
    let mut mutant = pristine.clone();
    for (from, to) in edits {
        assert_eq!(
            pristine.matches(from).count(),
            1,
            "{rel}: mutation site `{from}` must appear exactly once (file drifted?)"
        );
        mutant = mutant.replacen(from, to, 1);
    }
    (pristine, mutant)
}

fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
    dessan::lint::lint_file(path, src)
        .into_iter()
        .map(|f| f.rule.id())
        .collect()
}

fn assert_mutation_detected(rel: &str, from: &str, to: &str, rule: &str) {
    assert_edits_detected(rel, &[(from, to)], rule);
}

/// [`assert_mutation_detected`] for a mutation made of several edits.
fn assert_edits_detected(rel: &str, edits: &[(&str, &str)], rule: &str) {
    let (pristine, mutant) = mutate(rel, edits);
    let before = rules_of(rel, &pristine);
    assert!(
        !before.contains(&rule),
        "{rel}: pristine file already has a `{rule}` finding: {before:?}"
    );
    let after = rules_of(rel, &mutant);
    assert!(
        after.contains(&rule),
        "{rel}: `{rule}` missed the seeded mutation {edits:?}; found {after:?}"
    );
}

#[test]
fn dropped_recv_is_caught_by_send_wait() {
    // `exchange` posts two nonblocking sends and collects both; deleting
    // one recv leaves its partner send in flight forever.
    assert_mutation_detected(
        "crates/osu/src/collectives.rs",
        "world.recv(a, b, bytes).expect(\"recv\");",
        "",
        "protocol-send-wait",
    );
}

#[test]
fn reordered_event_record_is_caught_by_event_order() {
    // Swap the record and the wait: the cross-stream pipeline now waits
    // on an event that has not been recorded yet.
    assert_mutation_detected(
        "crates/gpurt/src/testkit.rs",
        "let done = rt.event_record(&s1)?;\n    rt.stream_wait_event(&s2, &done)?;",
        "rt.stream_wait_event(&s2, &done)?;\n    let done = rt.event_record(&s1)?;",
        "protocol-event-order",
    );
}

#[test]
fn stripped_annotation_is_caught_by_buffer_annotate() {
    // Without annotate_kernel_buffers between the launch and the copy,
    // the race detector cannot attribute the copy's buffers.
    assert_mutation_detected(
        "crates/gpurt/src/testkit.rs",
        "rt.annotate_kernel_buffers(&s1, &[], &[shared]);\n",
        "",
        "protocol-buffer-annotate",
    );
}

#[test]
fn broken_unit_conversion_is_caught_by_units_flow() {
    // The on-socket MPI calibration sums three µs components; extracting
    // one as ns silently skews the sum by 1000x.
    assert_mutation_detected(
        "crates/machines/src/cpu.rs",
        "+ m.mpi.shm_latency.as_us()",
        "+ m.mpi.shm_latency.as_ns()",
        "units-flow",
    );
}

#[test]
fn wall_clock_timestamp_is_caught_by_nondet_taint() {
    // Seeding an event timestamp from the host clock makes the whole
    // calendar-queue replay nondeterministic.
    assert_mutation_detected(
        "crates/mpisim/src/storm.rs",
        "queue.schedule(world.time(a)?, i as u32);",
        "let skew = Instant::now().elapsed().as_nanos() as u64;\n            \
         queue.schedule(world.time(a)? + doe_simtime::SimDuration::from_ns(skew), i as u32);",
        "nondet-taint",
    );
}

#[test]
fn wall_clock_returned_by_a_helper_is_caught_by_nondet_taint() {
    // The host clock reaches the timestamp only as a same-file helper's
    // return value: the taint crosses the call through the return
    // summaries, not through any local binding of the caller.
    assert_edits_detected(
        "crates/mpisim/src/storm.rs",
        &[
            (
                "queue.schedule(world.time(a)?, i as u32);",
                "queue.schedule(world.time(a)? + host_skew(), i as u32);",
            ),
            (
                "/// Build a storm, run `events` round trips, and report.\n",
                "fn host_skew() -> doe_simtime::SimDuration {\n    \
                 let ns = std::time::Instant::now().elapsed().as_nanos() as u64;\n    \
                 doe_simtime::SimDuration::from_ns(ns)\n}\n\n\
                 /// Build a storm, run `events` round trips, and report.\n",
            ),
        ],
        "nondet-taint",
    );
}

#[test]
fn unhashed_override_field_is_caught_by_key_coverage() {
    // Dropping the `value` pair from the canonical query serialization
    // makes two overrides that differ only in value share one cache key.
    assert_mutation_detected(
        "crates/core/src/query.rs",
        "                        (\"value\", Json::Num(o.value)),\n",
        "",
        "key-coverage",
    );
}

#[test]
fn reacquired_shard_lock_is_caught_by_lock_order() {
    // A second `.lock()` on the same shard while the first guard is live
    // self-deadlocks (std Mutex is not reentrant).
    assert_mutation_detected(
        "crates/doebenchd/src/cache.rs",
        "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
         let mut map = self.shard(key).lock().unwrap();",
        "fn evict_inflight(&self, key: &Key, flight: &Arc<Flight<V>>) {\n        \
         let mut map = self.shard(key).lock().unwrap();\n        \
         let map2 = self.shard(key).lock().unwrap();\n        drop(map2);",
        "lock-order",
    );
}

#[test]
fn wait_stripped_of_its_loop_is_caught_by_lock_order() {
    // Rewriting the canonical `loop { match … wait }` as a single `if`
    // check is unsound under spurious wakeups.
    assert_mutation_detected(
        "crates/doebenchd/src/cache.rs",
        "        let mut st = flight.state.lock().unwrap();\n        \
         loop {\n            \
         match &*st {\n                \
         FlightState::Finished(v) => return v.clone(),\n                \
         FlightState::Pending => st = flight.done.wait(st).unwrap(),\n            \
         }\n        }",
        "        let mut st = flight.state.lock().unwrap();\n        \
         if let FlightState::Pending = &*st {\n            \
         st = flight.done.wait(st).unwrap();\n        }\n        \
         match &*st {\n            \
         FlightState::Finished(v) => v.clone(),\n            \
         FlightState::Pending => None,\n        }",
        "lock-order",
    );
}

#[test]
fn sleep_in_hot_drain_is_caught_by_effect_contract() {
    // `drain_window` declares `effects(no-block)`; an injected sleep is
    // an OS-level block inside the per-window dispatch loop.
    assert_mutation_detected(
        "crates/simtime/src/shard.rs",
        "self.queue.pop_batch(&mut self.batch);",
        "std::thread::sleep(std::time::Duration::from_millis(1));\n            \
         self.queue.pop_batch(&mut self.batch);",
        "effect-contract",
    );
}

#[test]
fn allocating_helper_call_is_caught_by_hot_path_alloc() {
    // Lazily arming the sanitizer from the hot receive path boxes a
    // checker inside the per-message loop: the allocation sits in a
    // non-hot helper, one call below the hot fn.
    assert_mutation_detected(
        "crates/mpisim/src/world.rs",
        "-> Result<SimTime, MpiError> {\n        if at.0 >= self.clocks.len() {",
        "-> Result<SimTime, MpiError> {\n        self.enable_checks();\n        \
         if at.0 >= self.clocks.len() {",
        "hot-path-alloc",
    );
}

#[test]
fn unmutated_targets_are_clean_across_all_rules() {
    // The mutation targets must stay finding-free in their pristine form
    // for every rule, not just the one under test — otherwise a mutation
    // "detection" could be noise from an unrelated pre-existing finding.
    for rel in [
        "crates/osu/src/collectives.rs",
        "crates/gpurt/src/testkit.rs",
        "crates/machines/src/cpu.rs",
        "crates/mpisim/src/storm.rs",
        "crates/core/src/query.rs",
        "crates/doebenchd/src/cache.rs",
        "crates/simtime/src/shard.rs",
        "crates/mpisim/src/world.rs",
    ] {
        let src = std::fs::read_to_string(workspace_root().join(rel))
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        let found = rules_of(rel, &src);
        assert!(
            found.is_empty(),
            "{rel}: pristine file has findings: {found:?}"
        );
    }
}
