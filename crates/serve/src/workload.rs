//! Open-loop seeded arrival generation.
//!
//! The workload is *open-loop*: arrivals are generated up front from a
//! seed and do not react to service — exactly the regime in which
//! saturation behavior (queue growth, shedding) is visible. All timing
//! is integer tick arithmetic from [`DetRng`] draws, so the same seed
//! and config always produce the byte-identical request stream.

use crate::request::Request;
use crate::Tick;
use hermes_rtl::rng::DetRng;

/// Per-class workload shape.
#[derive(Debug, Clone)]
pub struct ClassProfile {
    /// Relative arrival weight (share of requests landing in this class).
    pub weight: u64,
    /// Deadline budget in ticks: `deadline = arrival + budget ± jitter`.
    pub deadline_budget: u64,
    /// Max jitter added to or subtracted from the budget (uniform).
    pub deadline_jitter: u64,
}

/// Configuration of the open-loop arrival process.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of requests to offer.
    pub requests: usize,
    /// Mean inter-arrival gap in ticks. Gaps are drawn uniformly from
    /// `0..=2*mean`, so the mean offered rate is `1/mean` per tick.
    pub mean_interarrival: u64,
    /// Number of tenants; each request draws a tenant uniformly.
    pub tenants: u16,
    /// Per-class shapes; class index is the priority (0 highest).
    pub classes: Vec<ClassProfile>,
    /// Payload words per request.
    pub payload_words: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            requests: 400,
            mean_interarrival: 40,
            tenants: 4,
            classes: vec![
                // latency-critical: tight deadlines, small share
                ClassProfile {
                    weight: 1,
                    deadline_budget: 600,
                    deadline_jitter: 100,
                },
                // bulk: loose deadlines, large share
                ClassProfile {
                    weight: 3,
                    deadline_budget: 4000,
                    deadline_jitter: 800,
                },
            ],
            payload_words: 4,
        }
    }
}

impl WorkloadConfig {
    /// The same workload at a different offered load: the mean
    /// inter-arrival gap is scaled so the offered rate becomes
    /// `load_pct` percent of the base rate (200 = 2x the arrivals
    /// per tick). Used by E14 to sweep underload → past saturation.
    #[must_use]
    pub fn at_load_pct(mut self, load_pct: u64) -> Self {
        let pct = load_pct.max(1);
        self.mean_interarrival = (self.mean_interarrival * 100 / pct).max(1);
        self
    }
}

/// Generate the arrival stream: requests sorted by arrival tick with
/// sequential ids, tenants, classes, deadlines, and payloads all drawn
/// from a single seeded stream.
pub fn generate(seed: u64, cfg: &WorkloadConfig) -> Vec<Request> {
    let mut rng = DetRng::new(seed ^ 0x5e7e_c10c_5e7e_c10c);
    let mut t: Tick = 0;
    let mut out = Vec::with_capacity(cfg.requests);
    for id in 0..cfg.requests as u64 {
        t += rng.below(2 * cfg.mean_interarrival + 1);
        out.push(draw_request(
            &mut rng,
            id,
            t,
            &cfg.classes,
            cfg.tenants,
            cfg.payload_words,
        ));
    }
    out
}

/// The per-request draws every arrival generator shares, taken from
/// `rng` after the generator has drawn the arrival tick: a weighted
/// class pick, a signed deadline jitter, a uniform tenant, then
/// `payload_words` payload words. `classes` must not be empty.
pub fn draw_request(
    rng: &mut DetRng,
    id: u64,
    arrival: Tick,
    classes: &[ClassProfile],
    tenants: u16,
    payload_words: usize,
) -> Request {
    let total_weight: u64 = classes.iter().map(|c| c.weight.max(1)).sum();
    let mut pick = rng.below(total_weight.max(1));
    let mut class = 0u8;
    for (i, c) in classes.iter().enumerate() {
        let w = c.weight.max(1);
        if pick < w {
            class = i as u8;
            break;
        }
        pick -= w;
    }
    let profile = &classes[class as usize];
    let jitter = if profile.deadline_jitter == 0 {
        0
    } else {
        rng.below(2 * profile.deadline_jitter + 1) as i64 - profile.deadline_jitter as i64
    };
    let budget = profile.deadline_budget.saturating_add_signed(jitter).max(1);
    let tenant = rng.below(u64::from(tenants.max(1))) as u16;
    let input = (0..payload_words)
        .map(|_| rng.range_i64(-1000, 1000))
        .collect();
    Request {
        id,
        tenant,
        class,
        arrival,
        deadline: arrival + budget,
        input,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let cfg = WorkloadConfig::default();
        let a = generate(42, &cfg);
        let b = generate(42, &cfg);
        assert_eq!(a, b);
        let c = generate(43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_well_formed() {
        let cfg = WorkloadConfig::default();
        let reqs = generate(7, &cfg);
        assert_eq!(reqs.len(), cfg.requests);
        let mut last = 0;
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids are sequential");
            assert!(r.arrival >= last, "arrivals are non-decreasing");
            assert!(r.deadline > r.arrival, "deadline after arrival");
            assert!((r.class as usize) < cfg.classes.len());
            assert!(r.tenant < cfg.tenants);
            assert_eq!(r.input.len(), cfg.payload_words);
            last = r.arrival;
        }
        // both classes actually appear
        assert!(reqs.iter().any(|r| r.class == 0));
        assert!(reqs.iter().any(|r| r.class == 1));
    }

    #[test]
    fn load_scaling_compresses_gaps() {
        let base = WorkloadConfig::default();
        let double = base.clone().at_load_pct(200);
        assert_eq!(double.mean_interarrival, base.mean_interarrival / 2);
        let half = base.clone().at_load_pct(50);
        assert_eq!(half.mean_interarrival, base.mean_interarrival * 2);
        // offered span shrinks with load
        let slow = generate(1, &base);
        let fast = generate(1, &double);
        assert!(fast.last().unwrap().arrival < slow.last().unwrap().arrival);
    }
}
