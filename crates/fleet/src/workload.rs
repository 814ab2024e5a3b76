//! The fleet-scale arrival process: a heavy-tailed (bounded Pareto)
//! open-loop stream over many tenants.
//!
//! Fleet experiments need burstiness a Poisson-ish uniform-gap stream
//! cannot produce: most inter-arrival gaps are tiny (a burst), a few are
//! enormous (a lull), and the balancer/autoscaler must survive both. The
//! generator draws gaps from an integer bounded Pareto (`alpha = 1`):
//! `gap = scale * 65536 / u` with `u` uniform on `[1, 65536]`, capped so
//! one lull cannot dominate the makespan. Gaps accumulate in 1/256-tick
//! fixed point so mean rates well above one request per tick are
//! representable. Everything is a seeded [`DetRng`] draw — the stream is
//! a pure function of `(seed, config)`.

use hermes_rtl::rng::DetRng;
use hermes_serve::request::Request;
use hermes_serve::workload::{self, ClassProfile};

/// Heavy-tailed fleet workload shape.
#[derive(Debug, Clone)]
pub struct FleetWorkloadConfig {
    /// Total requests in the stream.
    pub requests: usize,
    /// Pareto scale (minimum gap) in 1/256-tick fixed point.
    pub gap_scale_x256: u64,
    /// Cap on one gap in 1/256-tick fixed point (bounds a single lull).
    pub gap_cap_x256: u64,
    /// Tenants, drawn uniformly per request.
    pub tenants: u16,
    /// Priority class mix (same shape as the single-node workload).
    pub classes: Vec<ClassProfile>,
    /// Payload words per request.
    pub payload_words: usize,
    /// First request id (streams composed from phases stay id-disjoint).
    pub first_id: u64,
    /// Tick the stream starts at.
    pub start: u64,
}

impl Default for FleetWorkloadConfig {
    fn default() -> Self {
        FleetWorkloadConfig {
            requests: 4096,
            // mean gap ≈ 6.5 * scale ticks under the default cap
            gap_scale_x256: 64,
            gap_cap_x256: 64 * 256,
            tenants: 64,
            classes: vec![
                ClassProfile { weight: 1, deadline_budget: 600, deadline_jitter: 100 },
                ClassProfile { weight: 3, deadline_budget: 4000, deadline_jitter: 800 },
            ],
            payload_words: 2,
            first_id: 0,
            start: 0,
        }
    }
}

/// Generate the arrival stream for `cfg` from `seed` (sorted by arrival
/// tick; ids are `first_id..first_id + requests`).
pub fn generate(seed: u64, cfg: &FleetWorkloadConfig) -> Vec<Request> {
    let mut rng = DetRng::new(seed ^ 0xf1ee_7f1e_e7f1_ee7f);
    let scale = cfg.gap_scale_x256.max(1);
    let cap = cfg.gap_cap_x256.max(scale);
    let mut acc_x256: u64 = cfg.start * 256;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        // bounded Pareto gap: u uniform on [1, 65536], gap ∝ 1/u
        let u = rng.below(65536) + 1;
        acc_x256 += (scale * 65536 / u).min(cap);
        let arrival = acc_x256 >> 8;
        out.push(workload::draw_request(
            &mut rng,
            cfg.first_id + i as u64,
            arrival,
            &cfg.classes,
            cfg.tenants,
            cfg.payload_words,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_sorted_and_well_formed() {
        let cfg = FleetWorkloadConfig::default();
        let a = generate(11, &cfg);
        let b = generate(11, &cfg);
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, generate(12, &cfg), "different seed, different stream");
        assert_eq!(a.len(), cfg.requests);
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "sorted by arrival");
            assert_eq!(w[0].id + 1, w[1].id, "dense ids");
        }
        for r in &a {
            assert!(r.deadline > r.arrival, "deadline after arrival: {r:?}");
            assert!(u64::from(r.tenant) < u64::from(cfg.tenants));
            assert!((r.class as usize) < cfg.classes.len());
            assert_eq!(r.input.len(), cfg.payload_words);
        }
    }

    #[test]
    fn gaps_are_heavy_tailed() {
        let cfg = FleetWorkloadConfig { requests: 20_000, ..FleetWorkloadConfig::default() };
        let a = generate(3, &cfg);
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].arrival - w[0].arrival).collect();
        let mean = gaps.iter().sum::<u64>() / gaps.len() as u64;
        let max = *gaps.iter().max().unwrap();
        let zero = gaps.iter().filter(|&&g| g == 0).count();
        // bursty head: many same-tick arrivals; heavy tail: the largest
        // lull dwarfs the mean
        assert!(zero * 4 > gaps.len(), "bursts expected: {zero}/{}", gaps.len());
        assert!(max >= mean * 20, "tail expected: max {max} mean {mean}");
        assert!(max <= cfg.gap_cap_x256 / 256 + 1, "cap bounds a single lull");
    }

    #[test]
    fn phases_compose_with_disjoint_ids_and_shifted_clock() {
        let burst = FleetWorkloadConfig { requests: 100, ..FleetWorkloadConfig::default() };
        let a = generate(5, &burst);
        let tail = FleetWorkloadConfig {
            requests: 50,
            first_id: 100,
            start: a.last().unwrap().arrival + 1000,
            ..FleetWorkloadConfig::default()
        };
        let b = generate(6, &tail);
        assert!(b[0].id == 100 && b[0].arrival > a.last().unwrap().arrival);
    }
}
