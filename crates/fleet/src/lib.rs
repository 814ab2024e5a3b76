//! # hermes-fleet
//!
//! The sharded serving fleet of the HERMES workspace: N independent
//! [`hermes_serve`] engines (shards), each with its own admission queue
//! and accelerator pool, behind one global balancer (DESIGN.md §15,
//! experiment E19).
//!
//! The paper's ecosystem story scales past one board: a constellation of
//! NG-ULTRA nodes serving one workload needs routing, elasticity, and
//! failover on top of the single-node runtime. This crate supplies that
//! layer, entirely inside the deterministic simulation:
//!
//! * [`ring`] — the consistent-hash ring: tenants map to shards through
//!   virtual nodes, so adding or removing a shard moves only the keys
//!   that must move;
//! * [`workload`] — a heavy-tailed (bounded Pareto) open-loop arrival
//!   process over many tenants, the fleet-scale counterpart of
//!   [`hermes_serve::workload`];
//! * [`scaler`] — the histogram-driven autoscaler: scale up on sustained
//!   p99 deadline-pressure burn, drain-then-kill on sustained idleness;
//! * [`engine`] — the [`FleetEngine`](engine::FleetEngine): routes each
//!   request to its home shard (load-aware power-of-two-choices fallback
//!   under pressure), steps every shard on one fleet clock,
//!   applies `ShardKill` chaos by evacuating and re-routing the victim's
//!   work, and produces the accounted [`FleetReport`](engine::FleetReport).
//!
//! ## Determinism contract
//!
//! The whole fleet advances on one clock that wakes at the earliest due
//! tick of any shard or fleet phase; every routing, scaling, and
//! failover decision is a function of tick arithmetic and seeded draws.
//! Each shard evaluates its batch payloads inline, so fleet reports are
//! byte-identical on every replay.
//!
//! ## Accounting invariant
//!
//! Fleet-wide: `served + shed + rejected + balancer_shed == offered`,
//! where the first three sum over shards. A shard kill evacuates the
//! victim's queued and in-flight requests and re-offers them to surviving
//! shards (counted as `failover_rerouted`) — nothing is ever silently
//! lost, even when the whole ring is briefly empty
//! ([`engine::FleetReport::accounted`] checks it; E19 and `ci.sh` gate
//! on it).

pub mod engine;
pub mod ring;
pub mod scaler;
pub mod workload;

/// A tick of the simulated fleet clock (same clock as the shards').
pub type Tick = u64;

/// SplitMix64 finalizer: the deterministic 64-bit mixer behind ring
/// points and tenant keys. Distinct inputs spread uniformly; no RNG
/// state, so routing is a pure function of the key.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // consecutive inputs land far apart (avalanche sanity)
        let d = mix64(100) ^ mix64(101);
        assert!(d.count_ones() > 16, "poor avalanche: {d:#x}");
    }
}
