//! Routing estimation.
//!
//! A fast bounding-box router model: each multi-pin net demands wiring
//! tracks uniformly over its bounding box; per-tile channel capacity comes
//! from the device model. The router reports total wirelength, congestion,
//! and a per-net delay that timing analysis consumes. Nets crossing
//! congested regions are penalized, reproducing the congestion/timing
//! feedback loop of a real flow.

use crate::device::DeviceProfile;
use crate::place::Placement;
use crate::primitives::{Csr, PNetId, PrimNetlist};
use crate::FpgaError;

/// Wiring tracks available per tile boundary.
pub const TRACKS_PER_CHANNEL: u32 = 512;

/// Nets with more pins than this are promoted to the dedicated global
/// routing network (clock spines / control broadcast lines), as on real
/// fabrics; they contribute wirelength and delay but not channel demand.
pub const GLOBAL_NET_FANOUT: usize = 64;

/// Per-design routing results.
#[derive(Debug, Clone)]
pub struct RouteReport {
    /// Total estimated wirelength in tile units.
    pub total_wirelength: f64,
    /// Peak channel utilization (demand / capacity).
    pub peak_utilization: f64,
    /// Number of channels whose demand exceeds capacity.
    pub overflowed_channels: u32,
    /// Per-net delay in nanoseconds, indexed by [`PNetId`]. Nets with
    /// fewer than two pins are not routed and carry the base net delay.
    pub net_delay_ns: Vec<f64>,
    /// Number of routed (multi-pin) nets.
    pub routed_nets: usize,
}

impl RouteReport {
    /// Delay of a net, defaulting to the base net delay for single-pin or
    /// unrouted nets.
    pub fn delay_of(&self, net: PNetId, device: &DeviceProfile) -> f64 {
        self.net_delay_ns
            .get(net.0 as usize)
            .copied()
            .unwrap_or(device.timing.net_base_ns)
    }
}

/// The routing estimator.
#[derive(Debug, Clone)]
pub struct Router {
    device: DeviceProfile,
    /// Maximum tolerated channel overflow before the route is rejected.
    pub max_overflow: u32,
}

impl Router {
    /// Create a router for the device with the default overflow tolerance.
    pub fn new(device: DeviceProfile) -> Self {
        Router {
            device,
            max_overflow: 192,
        }
    }

    /// Estimate routing for a placed design.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::Unroutable`] if channel overflow exceeds the
    /// router's tolerance.
    pub fn route(
        &self,
        prim: &PrimNetlist,
        placement: &Placement,
    ) -> Result<RouteReport, FpgaError> {
        // Nets in id order: wirelength and channel demand are f64
        // accumulations, so the order is part of the result.
        let net_pins = prim.net_pins();

        let cols = self.device.grid_cols as usize;
        let rows = self.device.grid_rows as usize;
        let mut demand = vec![0.0f64; cols * rows];

        let mut total_wl = 0.0;
        type NetBbox = (usize, usize, (u16, u16, u16, u16));
        let mut bboxes: Vec<NetBbox> = Vec::new();
        for (net, pins) in net_pins.iter().enumerate() {
            if pins.len() < 2 {
                continue;
            }
            let mut min_x = u16::MAX;
            let mut max_x = 0;
            let mut min_y = u16::MAX;
            let mut max_y = 0;
            for &p in pins {
                let (x, y) = placement.site(p);
                min_x = min_x.min(x);
                max_x = max_x.max(x);
                min_y = min_y.min(y);
                max_y = max_y.max(y);
            }
            let hpwl = f64::from(max_x - min_x) + f64::from(max_y - min_y);
            // RSMT correction factor for multi-pin nets (Cheng's estimate).
            let k = pins.len() as f64;
            let wl = hpwl * (1.0 + 0.14 * (k - 2.0).max(0.0).sqrt());
            total_wl += wl;
            // spread demand over the bbox; very-high-fanout nets ride the
            // global network instead of consuming channel tracks
            if pins.len() <= GLOBAL_NET_FANOUT {
                let area = ((max_x - min_x + 1) as f64) * ((max_y - min_y + 1) as f64);
                let per_tile = wl / area;
                for y in min_y..=max_y {
                    let row = &mut demand[y as usize * cols..][..=max_x as usize];
                    for d in &mut row[min_x as usize..] {
                        *d += per_tile;
                    }
                }
            }
            bboxes.push((net, pins.len(), (min_x, max_x, min_y, max_y)));
        }

        let cap = f64::from(TRACKS_PER_CHANNEL);
        let mut peak = 0.0f64;
        let mut overflowed = 0u32;
        for &d in &demand {
            let util = d / cap;
            peak = peak.max(util);
            if d > cap {
                overflowed += 1;
            }
        }
        if overflowed > self.max_overflow {
            return Err(FpgaError::Unroutable {
                overflow: overflowed,
            });
        }

        // Per-net delay: distance + fanout + congestion penalty. Only
        // tiles above the penalty threshold can set a penalty, so each row
        // lists its hot columns and a net scans those, not its whole box;
        // the worst hot utilization in the box is the box's maximum.
        const HOT: f64 = 0.8;
        let hot = Csr::from_pairs(
            rows,
            demand
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d / cap > HOT)
                .map(|(tile, _)| (tile / cols, (tile % cols) as u16)),
        );
        let t = &self.device.timing;
        let mut net_delay_ns = vec![t.net_base_ns; net_pins.rows()];
        for (net, fanout, (min_x, max_x, min_y, max_y)) in &bboxes {
            let hpwl = f64::from(max_x - min_x) + f64::from(max_y - min_y);
            let mut worst = 0.0f64;
            for y in *min_y..=*max_y {
                let xs = hot.row(y as usize);
                let from = xs.partition_point(|x| x < min_x);
                for &x in xs[from..].iter().take_while(|&x| x <= max_x) {
                    worst = worst.max(demand[y as usize * cols + x as usize] / cap);
                }
            }
            let congestion_penalty = if worst > HOT { 1.0 + (worst - HOT) * 2.0 } else { 1.0 };
            let delay = (t.net_base_ns
                + t.net_per_tile_ns * hpwl
                + t.net_per_fanout_ns * (*fanout as f64 - 1.0))
                * congestion_penalty;
            net_delay_ns[*net] = delay;
        }

        Ok(RouteReport {
            total_wirelength: total_wl,
            peak_utilization: peak,
            overflowed_channels: overflowed,
            routed_nets: bboxes.len(),
            net_delay_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProfile;
    use crate::place::{Effort, Placer};
    use crate::synth::Synthesizer;
    use hermes_obs::Recorder;
    use hermes_rtl::netlist::{CellOp, Netlist};

    fn routed() -> RouteReport {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 16);
        let b = nl.add_input("b", 16);
        let y = nl.add_net("y", 16);
        nl.add_cell("add", CellOp::Add, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        let dev = DeviceProfile::ng_medium_like();
        let prim = Synthesizer::new(dev.clone()).synthesize(&nl).unwrap().prim;
        let placement = Placer::new(dev.clone(), Effort::Low, 3)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        Router::new(dev).route(&prim, &placement).unwrap()
    }

    #[test]
    fn reports_positive_wirelength() {
        let r = routed();
        assert!(r.total_wirelength > 0.0);
        assert!(r.routed_nets > 0);
        assert!(r.peak_utilization >= 0.0);
    }

    #[test]
    fn net_delays_exceed_base() {
        let r = routed();
        let dev = DeviceProfile::ng_medium_like();
        for &d in &r.net_delay_ns {
            assert!(d >= dev.timing.net_base_ns);
        }
    }

    #[test]
    fn delay_of_unknown_net_is_base() {
        let r = routed();
        let dev = DeviceProfile::ng_medium_like();
        let d = r.delay_of(crate::primitives::PNetId(u32::MAX), &dev);
        assert_eq!(d, dev.timing.net_base_ns);
    }
}
