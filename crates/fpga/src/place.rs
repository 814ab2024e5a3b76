//! Simulated-annealing placement.
//!
//! Assigns every primitive cell to a fabric site: logic primitives (LUTs,
//! carries, flip-flops) to logic tiles, DSP blocks to DSP columns, block
//! RAMs to RAM columns, and I/O pads to the device perimeter. The annealer
//! minimizes total half-perimeter wirelength (HPWL), the classic placement
//! objective; the result drives routing estimation and timing analysis.

use crate::device::DeviceProfile;
use crate::primitives::{Csr, PCellId, PrimNetlist, Primitive};
use crate::FpgaError;
use hermes_obs::{ClockDomain, Recorder};
use hermes_rtl::rng::DetRng;

/// Flight-recorder subsystem name used by the placer.
const OBS_SUB: &str = "fpga.place";

/// A placed design: one `(x, y)` site per primitive cell.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Site of each cell, indexed by [`PCellId`].
    pub locations: Vec<(u16, u16)>,
    /// Final total half-perimeter wirelength, in tile units.
    pub hpwl: f64,
    /// HPWL of the initial (pre-annealing) placement, for reporting.
    pub initial_hpwl: f64,
    /// Annealing moves attempted.
    pub moves_tried: u64,
    /// Annealing moves accepted.
    pub moves_accepted: u64,
}

impl Placement {
    /// Site of a cell.
    pub fn site(&self, cell: PCellId) -> (u16, u16) {
        self.locations[cell.0 as usize]
    }

    /// Manhattan distance between two cells, in tiles.
    pub fn distance(&self, a: PCellId, b: PCellId) -> u32 {
        let (ax, ay) = self.site(a);
        let (bx, by) = self.site(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }
}

/// Annealing effort level, trading runtime for quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Initial placement only (fastest, for smoke tests).
    Zero,
    /// Short anneal.
    Low,
    /// Balanced anneal (default).
    #[default]
    Medium,
    /// Long anneal for quality-critical runs.
    High,
}

impl Effort {
    fn moves_per_cell(self) -> u64 {
        match self {
            Effort::Zero => 0,
            Effort::Low => 8,
            Effort::Medium => 32,
            Effort::High => 128,
        }
    }
}

/// The placement engine.
#[derive(Debug, Clone)]
pub struct Placer {
    device: DeviceProfile,
    effort: Effort,
    seed: u64,
}

/// One axis of a net's bounding box, with the number of pins on each
/// edge so a move updates it in O(1) unless it takes the last pins off
/// an edge inward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: u16,
    hi: u16,
    n_lo: u32,
    n_hi: u32,
}

impl Span {
    const EMPTY: Span = Span {
        lo: u16::MAX,
        hi: 0,
        n_lo: 0,
        n_hi: 0,
    };

    /// Add `k` pins at `v`.
    fn add(mut self, v: u16, k: u32) -> Self {
        if v < self.lo {
            self.lo = v;
            self.n_lo = k;
        } else if v == self.lo {
            self.n_lo += k;
        }
        if v > self.hi {
            self.hi = v;
            self.n_hi = k;
        } else if v == self.hi {
            self.n_hi += k;
        }
        self
    }

    /// Move `k` pins from `from` to `to`; `None` when that leaves an edge
    /// without pins, so only a scan can find the new edge.
    fn moved(mut self, from: u16, to: u16, k: u32) -> Option<Self> {
        if from == self.lo {
            self.n_lo -= k;
        }
        if from == self.hi {
            self.n_hi -= k;
        }
        self = self.add(to, k);
        (self.n_lo > 0 && self.n_hi > 0).then_some(self)
    }
}

/// Cached bounding box of one net's pins, the unit of the incremental
/// HPWL bookkeeping: coordinates are tile indices, so HPWL values are
/// exact small integers in `f64` and incremental updates reproduce a full
/// recompute bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetBox {
    x: Span,
    y: Span,
}

impl NetBox {
    /// Bounding box of a list of sites.
    fn of(sites: impl Iterator<Item = (u16, u16)>) -> Self {
        let empty = NetBox {
            x: Span::EMPTY,
            y: Span::EMPTY,
        };
        sites.fold(empty, |b, (x, y)| NetBox {
            x: b.x.add(x, 1),
            y: b.y.add(y, 1),
        })
    }

    /// The box after `k` pins move from `from` to `to`, if the cached edge
    /// counts determine it.
    fn moved(self, from: (u16, u16), to: (u16, u16), k: u32) -> Option<Self> {
        Some(NetBox {
            x: self.x.moved(from.0, to.0, k)?,
            y: self.y.moved(from.1, to.1, k)?,
        })
    }

    /// Half-perimeter wirelength of the box.
    fn hpwl(&self) -> f64 {
        f64::from(self.x.hi - self.x.lo) + f64::from(self.y.hi - self.y.lo)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteClass {
    Logic,
    Dsp,
    Ram,
    Io,
}

impl Placer {
    /// Create a placer for a device with a deterministic seed.
    pub fn new(device: DeviceProfile, effort: Effort, seed: u64) -> Self {
        Placer {
            device,
            effort,
            seed,
        }
    }

    /// One seeded anneal: one instant event per annealing epoch (`Seq`
    /// clock, ts = epoch index) sampling temperature and cost, plus move
    /// counters — the per-epoch cost curve an NXmap placement log would
    /// show.
    fn anneal(&self, prim: &PrimNetlist, obs: &Recorder) -> Result<Placement, FpgaError> {
        let mut rng = DetRng::new(self.seed);
        let classes: Vec<SiteClass> = prim
            .cells()
            .map(|(_, c)| match c.prim {
                Primitive::Dsp { .. } => SiteClass::Dsp,
                Primitive::Ramb { .. } => SiteClass::Ram,
                Primitive::IoPad { .. } => SiteClass::Io,
                _ => SiteClass::Logic,
            })
            .collect();

        let logic_sites = self.logic_sites();
        let dsp_sites = self.dsp_sites();
        let ram_sites = self.ram_sites();
        let io_sites = self.io_sites();

        // Greedy initial placement: round-robin cells into sites of their
        // class, clustering cells from the same source coarse cell.
        let mut locations = vec![(0u16, 0u16); prim.cell_count()];
        let mut counters = [0usize; 4];
        // each logic tile packs luts_per_tile LUT sites + as many FF sites
        let logic_cap = (self.device.luts_per_tile as usize * 2).max(1);
        let mut site_of = |class: SiteClass| -> Result<(u16, u16), FpgaError> {
            let (sites, idx, cap, name): (&[(u16, u16)], &mut usize, usize, &str) = match class {
                SiteClass::Logic => (&logic_sites, &mut counters[0], logic_cap, "logic site"),
                SiteClass::Dsp => (&dsp_sites, &mut counters[1], 1, "DSP site"),
                SiteClass::Ram => (&ram_sites, &mut counters[2], 1, "RAM site"),
                SiteClass::Io => (&io_sites, &mut counters[3], 1, "IO site"),
            };
            if *idx / cap >= sites.len() {
                return Err(FpgaError::ResourceOverflow {
                    resource: name.into(),
                    required: (*idx / cap + 1) as u64,
                    available: sites.len() as u64,
                });
            }
            let s = sites[*idx / cap];
            *idx += 1;
            Ok(s)
        };
        for (cid, _) in prim.cells() {
            locations[cid.0 as usize] = site_of(classes[cid.0 as usize])?;
        }

        // Multi-pin nets in net-id order (the anneal's f64 accumulation
        // order), and for each cell the indices of the nets it sits on:
        // one entry per pin, so a net the cell sits on twice lists twice.
        let net_pins = prim.net_pins();
        let multi = net_pins.iter().filter(|pins| pins.len() > 1);
        let nets = Csr::from_pairs(
            multi.clone().count(),
            multi
                .enumerate()
                .flat_map(|(i, pins)| pins.iter().map(move |&p| (i, p))),
        );
        let cell_nets = Csr::from_pairs(
            prim.cell_count(),
            nets.iter()
                .enumerate()
                .flat_map(|(i, pins)| pins.iter().map(move |p| (p.0 as usize, i as u32))),
        );
        let sites = |locations: &[(u16, u16)], pins: &[PCellId]| -> NetBox {
            NetBox::of(pins.iter().map(|p| locations[p.0 as usize]))
        };

        // Cached per-net bounding boxes: a move's cost delta touches only
        // the boxes of nets on the moved cell (O(pins-touched)), instead of
        // recomputing every affected net's pin list twice per move.
        let mut boxes: Vec<NetBox> = nets.iter().map(|pins| sites(&locations, pins)).collect();
        let total = |locations: &[(u16, u16)]| -> f64 {
            nets.iter().map(|pins| sites(locations, pins).hpwl()).sum()
        };

        let initial_hpwl: f64 = boxes.iter().map(NetBox::hpwl).sum();
        let mut cost = initial_hpwl;

        // Movable cells: logic class only (DSP/RAM/IO stay at legal sites;
        // swapping within class would also be legal but matters little for
        // HPWL at these design sizes).
        let movable: Vec<u32> = (0..prim.cell_count() as u32)
            .filter(|&i| classes[i as usize] == SiteClass::Logic)
            .collect();

        let mut moves_tried = 0u64;
        let mut moves_accepted = 0u64;
        if !movable.is_empty() && !logic_sites.is_empty() && self.effort != Effort::Zero {
            let total_moves = self.effort.moves_per_cell() * movable.len() as u64;
            let temp0 = (cost / nets.rows().max(1) as f64).max(1.0) * 2.0;
            let mut temp = temp0;
            let cooling = 0.92f64;
            let moves_per_temp = (movable.len() as u64 * 4).max(64);
            let mut done = 0u64;
            let max_dim = self.device.grid_cols.max(self.device.grid_rows) as f64;
            let mut best_cost = cost;
            let mut best_locations = locations.clone();
            // Scratch for candidate boxes of the nets touched by one move,
            // reused across moves to stay allocation-free in steady state.
            let mut candidate: Vec<(usize, NetBox)> = Vec::new();
            let mut epoch = 0u64;
            while done < total_moves {
                // Move window shrinks with temperature (VPR-style range limit).
                let win = ((max_dim * (temp / temp0).min(1.0)) as i32).max(2);
                for _ in 0..moves_per_temp.min(total_moves - done) {
                    moves_tried += 1;
                    let cell = movable[rng.below(movable.len() as u64) as usize];
                    let old_site = locations[cell as usize];
                    let new_site = self.windowed_site(&mut rng, old_site, win, &logic_sites);
                    if new_site == old_site {
                        continue;
                    }
                    // Delta over affected nets, from cached bounding boxes:
                    // edge counts update a box in O(1); only a move taking
                    // the last pins off an edge inward rescans that net.
                    // A cell with several pins on a net lists the net in a
                    // run (rows are in net order), moved once as a group.
                    // Summation order mirrors the direct recompute, keeping
                    // seeded trajectories bit-identical.
                    let affected = cell_nets.row(cell as usize);
                    candidate.clear();
                    let mut before = 0.0f64;
                    let mut after = 0.0f64;
                    for (j, &i) in affected.iter().enumerate() {
                        let i = i as usize;
                        before += boxes[i].hpwl();
                        if candidate.last().is_none_or(|&(last, _)| last != i) {
                            let k = affected[j..]
                                .iter()
                                .take_while(|&&n| n as usize == i)
                                .count();
                            let rescan = || {
                                NetBox::of(nets.row(i).iter().map(|p| {
                                    if p.0 == cell {
                                        new_site
                                    } else {
                                        locations[p.0 as usize]
                                    }
                                }))
                            };
                            let b = boxes[i]
                                .moved(old_site, new_site, k as u32)
                                .unwrap_or_else(rescan);
                            debug_assert_eq!(b, rescan(), "incremental box of net {i}");
                            candidate.push((i, b));
                        }
                        after += candidate[candidate.len() - 1].1.hpwl();
                    }
                    let delta = after - before;
                    let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp).exp();
                    if accept {
                        locations[cell as usize] = new_site;
                        for &(i, b) in &candidate {
                            boxes[i] = b;
                        }
                        cost += delta;
                        moves_accepted += 1;
                    }
                }
                done += moves_per_temp;
                if obs.enabled() {
                    obs.instant(
                        OBS_SUB,
                        "anneal-epoch",
                        ClockDomain::Seq,
                        epoch,
                        &[
                            ("seed", self.seed.to_string()),
                            ("temp", format!("{temp:.4}")),
                            ("cost", format!("{cost:.1}")),
                        ],
                    );
                }
                epoch += 1;
                temp *= cooling;
                if cost < best_cost {
                    best_cost = cost;
                    best_locations.copy_from_slice(&locations);
                }
                if temp < 0.01 {
                    break;
                }
            }
            if best_cost < cost {
                locations.copy_from_slice(&best_locations);
            }
            // note: capacity is relaxed during annealing (multiple logic
            // cells may share a tile up to luts_per_tile); a final
            // legalization pass redistributes overfull tiles.
            self.legalize(&mut locations, &classes, &logic_sites);
            cost = total(&locations);
        }

        obs.counter_add(OBS_SUB, "moves_tried", moves_tried);
        obs.counter_add(OBS_SUB, "moves_accepted", moves_accepted);

        Ok(Placement {
            locations,
            hpwl: cost,
            initial_hpwl,
            moves_tried,
            moves_accepted,
        })
    }

    /// Place the primitive netlist: run `starts` independent anneals
    /// (seeds `seed, seed+1, …`) across `jobs` workers and keep the
    /// lowest-HPWL result, ties broken by lowest start index.
    ///
    /// Each anneal is seed-deterministic and the winner is selected by
    /// value, so the outcome is identical regardless of worker count or
    /// scheduling; `starts = 1` is the single anneal at `seed`. Each
    /// anneal records one instant event per epoch (temperature and cost)
    /// plus move counters into its own [`Recorder::child`]; the children
    /// are absorbed back **in seed order** after the parallel map, so the
    /// merged trace is bit-identical regardless of worker count.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceOverflow`] if any site class runs out
    /// of candidate locations (the first failing start's error).
    pub fn place(
        &self,
        prim: &PrimNetlist,
        starts: u32,
        jobs: usize,
        obs: &Recorder,
    ) -> Result<Placement, FpgaError> {
        let starts = starts.max(1);
        if starts == 1 {
            return self.anneal(prim, obs);
        }
        let seeds: Vec<u64> = (0..u64::from(starts))
            .map(|i| self.seed.wrapping_add(i))
            .collect();
        let results = hermes_par::par_map_jobs(jobs, &seeds, |&seed| {
            let child = obs.child();
            let placed = Placer {
                device: self.device.clone(),
                effort: self.effort,
                seed,
            }
            .anneal(prim, &child);
            (placed, child)
        })
        .map_err(|e| FpgaError::Internal {
            message: format!("parallel placement worker failed: {e}"),
        })?;
        let mut best: Option<Placement> = None;
        for (p, child) in results {
            obs.absorb(&child);
            let p = p?;
            let better = best.as_ref().is_none_or(|b| p.hpwl < b.hpwl);
            if better {
                best = Some(p);
            }
        }
        let best = best.expect("starts >= 1 yields a result");
        obs.gauge_set(OBS_SUB, "best_hpwl_x10", (best.hpwl * 10.0) as i64);
        Ok(best)
    }

    /// Pick a legal logic site within `win` tiles of `from` (falling back to
    /// a uniformly random logic site when the window holds none).
    fn windowed_site(
        &self,
        rng: &mut DetRng,
        from: (u16, u16),
        win: i32,
        logic_sites: &[(u16, u16)],
    ) -> (u16, u16) {
        let cols = self.device.grid_cols as i32;
        let rows = self.device.grid_rows as i32;
        for _ in 0..8 {
            let x = (i32::from(from.0) + rng.range_i64(-i64::from(win), i64::from(win)) as i32).clamp(1, cols - 2);
            let y = (i32::from(from.1) + rng.range_i64(-i64::from(win), i64::from(win)) as i32).clamp(1, rows - 2);
            if !self.device.is_dsp_column(x as u32) && !self.device.is_ram_column(x as u32) {
                return (x as u16, y as u16);
            }
        }
        logic_sites[rng.below(logic_sites.len() as u64) as usize]
    }

    /// Spread logic cells so no tile exceeds its LUT capacity.
    fn legalize(
        &self,
        locations: &mut [(u16, u16)],
        classes: &[SiteClass],
        logic_sites: &[(u16, u16)],
    ) {
        let cap = self.device.luts_per_tile as usize * 2; // LUT + FF sites
        let cols = self.device.grid_cols as usize;
        let tile = |(x, y): (u16, u16)| y as usize * cols + x as usize;
        let mut occupancy = vec![0usize; cols * self.device.grid_rows as usize];
        for (i, &loc) in locations.iter().enumerate() {
            if classes[i] == SiteClass::Logic {
                occupancy[tile(loc)] += 1;
            }
        }
        let mut free: Vec<(u16, u16)> = logic_sites
            .iter()
            .filter(|&&s| occupancy[tile(s)] < cap)
            .copied()
            .collect();
        for i in 0..locations.len() {
            if classes[i] != SiteClass::Logic {
                continue;
            }
            let loc = locations[i];
            let occ = &mut occupancy[tile(loc)];
            if *occ > cap {
                *occ -= 1;
                // move to nearest free tile
                if let Some((best_idx, _)) = free
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.0.abs_diff(loc.0) as u32 + s.1.abs_diff(loc.1) as u32)
                {
                    let target = free[best_idx];
                    locations[i] = target;
                    let t = &mut occupancy[tile(target)];
                    *t += 1;
                    if *t >= cap {
                        free.swap_remove(best_idx);
                    }
                }
            }
        }
    }

    fn logic_sites(&self) -> Vec<(u16, u16)> {
        let mut v = Vec::new();
        for x in 1..self.device.grid_cols.saturating_sub(1) {
            if self.device.is_dsp_column(x) || self.device.is_ram_column(x) {
                continue;
            }
            for y in 1..self.device.grid_rows.saturating_sub(1) {
                v.push((x as u16, y as u16));
            }
        }
        v
    }

    fn dsp_sites(&self) -> Vec<(u16, u16)> {
        let mut v = Vec::new();
        for &x in &self.device.dsp_columns {
            let step = (self.device.grid_rows / self.device.dsps_per_column.max(1)).max(1);
            for i in 0..self.device.dsps_per_column {
                let y = (i * step).min(self.device.grid_rows - 1);
                v.push((x as u16, y as u16));
            }
        }
        v
    }

    fn ram_sites(&self) -> Vec<(u16, u16)> {
        let mut v = Vec::new();
        for &x in &self.device.ram_columns {
            let step = (self.device.grid_rows / self.device.rams_per_column.max(1)).max(1);
            for i in 0..self.device.rams_per_column {
                let y = (i * step).min(self.device.grid_rows - 1);
                v.push((x as u16, y as u16));
            }
        }
        v
    }

    fn io_sites(&self) -> Vec<(u16, u16)> {
        let mut v = Vec::new();
        let (w, h) = (self.device.grid_cols as u16, self.device.grid_rows as u16);
        for x in 0..w {
            v.push((x, 0));
            v.push((x, h - 1));
        }
        for y in 1..h - 1 {
            v.push((0, y));
            v.push((w - 1, y));
        }
        // each perimeter tile hosts several pads
        let mut all = Vec::with_capacity(v.len() * 4);
        for _ in 0..4 {
            all.extend_from_slice(&v);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::Synthesizer;
    use hermes_rtl::netlist::{CellOp, Netlist};

    fn sample_prim() -> PrimNetlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a", 16);
        let b = nl.add_input("b", 16);
        let p = nl.add_net("p", 16);
        let y = nl.add_net("y", 16);
        nl.add_cell("mul", CellOp::Mul, &[a, b], &[p]).unwrap();
        nl.add_cell("add", CellOp::Add, &[p, a], &[y]).unwrap();
        nl.mark_output(y);
        Synthesizer::new(DeviceProfile::ng_medium_like())
            .synthesize(&nl)
            .unwrap()
            .prim
    }

    #[test]
    fn placement_assigns_all_cells() {
        let prim = sample_prim();
        let p = Placer::new(DeviceProfile::ng_medium_like(), Effort::Low, 42)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        assert_eq!(p.locations.len(), prim.cell_count());
    }

    #[test]
    fn annealing_improves_or_matches_hpwl() {
        let prim = sample_prim();
        let p = Placer::new(DeviceProfile::ng_medium_like(), Effort::Medium, 7)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        assert!(
            p.hpwl <= p.initial_hpwl * 1.05,
            "anneal should not badly regress: {} -> {}",
            p.initial_hpwl,
            p.hpwl
        );
        assert!(p.moves_accepted > 0);
    }

    #[test]
    fn dsp_cells_land_on_dsp_columns() {
        let prim = sample_prim();
        let dev = DeviceProfile::ng_medium_like();
        let p = Placer::new(dev.clone(), Effort::Zero, 1)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        for (cid, c) in prim.cells() {
            if matches!(c.prim, Primitive::Dsp { .. }) {
                let (x, _) = p.site(cid);
                assert!(dev.is_dsp_column(u32::from(x)), "DSP at col {x}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let prim = sample_prim();
        let dev = DeviceProfile::ng_medium_like();
        let p1 = Placer::new(dev.clone(), Effort::Low, 99)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        let p2 = Placer::new(dev, Effort::Low, 99)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        assert_eq!(p1.locations, p2.locations);
        assert_eq!(p1.hpwl, p2.hpwl);
    }

    #[test]
    fn multi_start_deterministic_and_no_worse() {
        let prim = sample_prim();
        let dev = DeviceProfile::ng_medium_like();
        let placer = Placer::new(dev, Effort::Low, 5);
        let serial = placer.place(&prim, 4, 1, &Recorder::disabled()).unwrap();
        let parallel = placer.place(&prim, 4, 4, &Recorder::disabled()).unwrap();
        assert_eq!(serial.locations, parallel.locations, "worker count changed result");
        assert_eq!(serial.hpwl, parallel.hpwl);
        let single = placer.place(&prim, 1, 1, &Recorder::disabled()).unwrap();
        assert!(
            serial.hpwl <= single.hpwl,
            "best-of-4 ({}) worse than single start ({})",
            serial.hpwl,
            single.hpwl
        );
    }

    #[test]
    fn single_start_multi_matches_place() {
        let prim = sample_prim();
        let placer = Placer::new(DeviceProfile::ng_medium_like(), Effort::Low, 11);
        let a = placer.anneal(&prim, &Recorder::disabled()).unwrap();
        let b = placer.place(&prim, 1, 4, &Recorder::disabled()).unwrap();
        assert_eq!(a.locations, b.locations);
    }

    #[test]
    fn overflow_on_tiny_device() {
        let prim = sample_prim();
        let mut tiny = DeviceProfile::ng_medium_like();
        tiny.grid_cols = 4;
        tiny.grid_rows = 4;
        tiny.dsp_columns = vec![];
        tiny.ram_columns = vec![];
        let err = Placer::new(tiny, Effort::Zero, 1)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, FpgaError::ResourceOverflow { .. }));
    }
}
