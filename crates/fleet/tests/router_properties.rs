//! Property tests for the fleet router (DESIGN §10.3).
//!
//! Two properties the chaos campaign leans on:
//!
//! 1. **Determinism** — the router is a pure function of `(seed,
//!    submissions, shard status)`: two routers driven identically
//!    render byte-identical routing traces, retries, jitter and all.
//! 2. **Minimal remap** — marking a shard dead on the consistent-hash
//!    ring moves *only* the dead shard's keys; every key previously
//!    owned by a surviving shard keeps its owner.

use proptest::collection::vec;
use proptest::prelude::*;
use rossl_fleet::{HashRing, Router, RouterPolicy, ShardStatus};
use rossl_model::Criticality;

/// Drives a fresh router through a deterministic schedule derived from
/// `seed`: staggered submissions, a flapping reachability pattern (so
/// retries, backoff, jitter, and breakers all fire), and one shard
/// death mid-run.
fn drive(seed: u64, n_shards: usize, n_subs: u64, ticks: u64) -> String {
    let mut router = Router::new(n_shards, seed, RouterPolicy::default());
    let dead = (seed as usize) % n_shards;
    for tick in 0..ticks {
        if tick < n_subs {
            let crit = if tick % 2 == 0 { Criticality::Hi } else { Criticality::Lo };
            router.submit(tick, tick, seed ^ (tick << 3), crit, vec![0, 1, 2]);
        }
        if tick == ticks / 2 && n_shards > 1 {
            router.mark_dead(dead);
        }
        let status: Vec<ShardStatus> = (0..n_shards)
            .map(|s| ShardStatus {
                // Flap reachability on a seed-derived pattern; the dead
                // shard stays unreachable after its death.
                reachable: (tick.wrapping_add(s as u64) ^ seed) % 3 != 0
                    && !(s == dead && tick >= ticks / 2 && n_shards > 1),
                depth: ((tick as usize).wrapping_mul(s + 1)) % 7,
            })
            .collect();
        router.process(tick, &status);
    }
    router.render_trace()
}

proptest! {
    #[test]
    fn same_seed_renders_byte_identical_routing_trace(
        seed in 0u64..5_000,
        n_shards in 1usize..6,
    ) {
        let a = drive(seed, n_shards, 12, 160);
        let b = drive(seed, n_shards, 12, 160);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_still_terminate_every_request(
        seed in 0u64..5_000,
        n_shards in 2usize..6,
    ) {
        let mut router = Router::new(n_shards, seed, RouterPolicy::default());
        for seq in 0..8u64 {
            router.submit(seq, seq, seed ^ seq, Criticality::Hi, vec![0]);
        }
        // Nothing is ever reachable: every request must fail typed
        // (attempts exhausted or deadline exceeded), never hang.
        let status: Vec<ShardStatus> =
            (0..n_shards).map(|_| ShardStatus { reachable: false, depth: 0 }).collect();
        for tick in 0..2_000u64 {
            router.process(tick, &status);
            if router.idle() {
                break;
            }
        }
        prop_assert!(router.idle(), "router wedged: {}", router.render_trace());
    }

    #[test]
    fn killing_a_shard_remaps_only_its_keys(
        seed in 0u64..5_000,
        n_shards in 2usize..8,
        dead_sel in 0usize..64,
        keys in vec(0u64..1_000_000, 1..80),
    ) {
        let dead = dead_sel % n_shards;
        let mut ring = HashRing::new(n_shards, seed);
        let before: Vec<Option<usize>> = keys.iter().map(|&k| ring.route(k)).collect();
        ring.mark_dead(dead);
        for (&key, &owner) in keys.iter().zip(&before) {
            let after = ring.route(key);
            let owner = owner.expect("all shards alive");
            if owner == dead {
                prop_assert!(after.is_some_and(|s| s != dead), "orphaned key {key}");
            } else {
                prop_assert_eq!(after, Some(owner), "live shard's key {} moved", key);
            }
        }
    }
}
