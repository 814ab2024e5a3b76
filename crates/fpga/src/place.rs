//! Constructive placement refined by a greedy descent.
//!
//! Assigns every primitive cell to a fabric site: logic primitives (LUTs,
//! carries, flip-flops) to logic tiles, DSP blocks to DSP columns, block
//! RAMs to RAM columns, and I/O pads to the device perimeter. A serpentine
//! constructive fill is refined by a zero-temperature descent on total
//! half-perimeter wirelength (HPWL), the classic placement objective: a
//! move is a range-limited hop of one logic cell, kept only if HPWL does
//! not grow and the target tile has room. The result drives routing
//! estimation and timing analysis.

use crate::device::DeviceProfile;
use crate::primitives::{Csr, PCellId, PrimNetlist, Primitive};
use crate::FpgaError;
use hermes_obs::{ClockDomain, Recorder};
use hermes_rtl::rng::DetRng;

/// Flight-recorder subsystem name used by the placer.
const OBS_SUB: &str = "fpga.place";

/// Range limit of a move, in tiles per axis (best of 8/16/24 on the
/// suite's summed HPWL).
const RANGE_LIMIT: u16 = 24;

/// A placed design: one `(x, y)` site per primitive cell.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Site of each cell, indexed by [`PCellId`].
    pub locations: Vec<(u16, u16)>,
    /// Final total half-perimeter wirelength, in tile units.
    pub hpwl: f64,
    /// HPWL of the constructive placement the descent starts from.
    pub initial_hpwl: f64,
    /// Descent moves attempted.
    pub moves_tried: u64,
    /// Descent moves accepted.
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

/// Placement effort: moves per movable cell of a greedy descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Constructive placement only (fastest, for smoke tests).
    Zero,
    /// 4 moves per movable cell (the flow's default).
    Low,
}

impl Effort {
    fn moves_per_cell(self) -> u64 {
        match self {
            Effort::Zero => 0,
            Effort::Low => 4,
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

    /// Place the primitive netlist: a constructive fill, then one seeded
    /// descent. Records one instant event per sweep (`Seq` clock, ts =
    /// sweep index) sampling the moves accepted and the cost, plus move
    /// counters — the per-sweep cost curve an NXmap placement log would
    /// show.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::ResourceOverflow`] if any site class runs out
    /// of candidate locations.
    pub fn place(&self, prim: &PrimNetlist, obs: &Recorder) -> Result<Placement, FpgaError> {
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

        // Multi-pin nets in net-id order (the descent's f64 accumulation
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

        let initial_hpwl: f64 = boxes.iter().map(NetBox::hpwl).sum();
        let mut cost = initial_hpwl;

        // Movable cells: logic class only (DSP/RAM/IO stay at legal sites;
        // swapping within class would also be legal but matters little for
        // HPWL at these design sizes).
        let movable: Vec<u32> = (0..prim.cell_count() as u32)
            .filter(|&i| classes[i as usize] == SiteClass::Logic)
            .collect();

        // Logic cells per tile, kept current move by move: a move into a
        // full tile is rejected, so no tile ever holds more than
        // `logic_cap` cells and the result needs no legalization.
        let cols = self.device.grid_cols as usize;
        let tile = |(x, y): (u16, u16)| y as usize * cols + x as usize;
        let mut occupancy = vec![0usize; cols * self.device.grid_rows as usize];
        for &c in &movable {
            occupancy[tile(locations[c as usize])] += 1;
        }

        let mut moves_tried = 0u64;
        let mut moves_accepted = 0u64;
        if !movable.is_empty() {
            // Scratch for candidate boxes of the nets touched by one move,
            // reused across moves to stay allocation-free in steady state.
            let mut candidate: Vec<(usize, NetBox)> = Vec::new();
            for sweep in 0..self.effort.moves_per_cell() {
                let mut accepted = 0u64;
                for _ in 0..movable.len() {
                    moves_tried += 1;
                    let cell = movable[rng.below(movable.len() as u64) as usize];
                    let old_site = locations[cell as usize];
                    let new_site = self.windowed_site(&mut rng, old_site);
                    if new_site == old_site || occupancy[tile(new_site)] >= logic_cap {
                        continue;
                    }
                    // Delta over affected nets, from cached bounding boxes:
                    // edge counts update a box in O(1); only a move taking
                    // the last pins off an edge inward rescans that net.
                    // A cell with several pins on a net lists the net in a
                    // run (rows are in net order): the net is moved once as
                    // a group and counted once. Summation order mirrors the
                    // direct recompute, keeping seeded trajectories
                    // bit-identical.
                    let affected = cell_nets.row(cell as usize);
                    candidate.clear();
                    let mut before = 0.0f64;
                    let mut after = 0.0f64;
                    for (j, &i) in affected.iter().enumerate() {
                        let i = i as usize;
                        if candidate.last().is_some_and(|&(last, _)| last == i) {
                            continue;
                        }
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
                        before += boxes[i].hpwl();
                        after += b.hpwl();
                        candidate.push((i, b));
                    }
                    let delta = after - before;
                    if delta <= 0.0 {
                        locations[cell as usize] = new_site;
                        occupancy[tile(old_site)] -= 1;
                        occupancy[tile(new_site)] += 1;
                        for &(i, b) in &candidate {
                            boxes[i] = b;
                        }
                        cost += delta;
                        accepted += 1;
                    }
                }
                moves_accepted += accepted;
                if obs.enabled() {
                    obs.instant(
                        OBS_SUB,
                        "descent-sweep",
                        ClockDomain::Seq,
                        sweep,
                        &[
                            ("accepted", accepted.to_string()),
                            ("cost", format!("{cost:.1}")),
                        ],
                    );
                }
            }
            debug_assert_eq!(
                cost,
                nets.iter()
                    .map(|pins| sites(&locations, pins).hpwl())
                    .sum::<f64>(),
                "incremental cost"
            );
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

    /// Pick a logic site within [`RANGE_LIMIT`] tiles of `from`, or `from`
    /// itself (no move) when eight draws all land on DSP or RAM columns.
    fn windowed_site(&self, rng: &mut DetRng, from: (u16, u16)) -> (u16, u16) {
        let cols = self.device.grid_cols as i32;
        let rows = self.device.grid_rows as i32;
        let win = i64::from(RANGE_LIMIT);
        for _ in 0..8 {
            let x = (i32::from(from.0) + rng.range_i64(-win, win) as i32).clamp(1, cols - 2);
            let y = (i32::from(from.1) + rng.range_i64(-win, win) as i32).clamp(1, rows - 2);
            if !self.device.is_dsp_column(x as u32) && !self.device.is_ram_column(x as u32) {
                return (x as u16, y as u16);
            }
        }
        from
    }

    /// Logic sites in serpentine column order: alternate logic columns
    /// walk up and down, so the greedy fill steps to a neighbouring tile
    /// when it turns into the next column.
    fn logic_sites(&self) -> Vec<(u16, u16)> {
        let rows = 1..self.device.grid_rows.saturating_sub(1);
        let mut v = Vec::new();
        let logic_cols = (1..self.device.grid_cols.saturating_sub(1))
            .filter(|&x| !self.device.is_dsp_column(x) && !self.device.is_ram_column(x));
        for (i, x) in logic_cols.enumerate() {
            if i % 2 == 0 {
                v.extend(rows.clone().map(|y| (x as u16, y as u16)));
            } else {
                v.extend(rows.clone().rev().map(|y| (x as u16, y as u16)));
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
            .place(&prim, &Recorder::disabled())
            .unwrap();
        assert_eq!(p.locations.len(), prim.cell_count());
    }

    #[test]
    fn dsp_cells_land_on_dsp_columns() {
        let prim = sample_prim();
        let dev = DeviceProfile::ng_medium_like();
        let p = Placer::new(dev.clone(), Effort::Zero, 1)
            .place(&prim, &Recorder::disabled())
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
            .place(&prim, &Recorder::disabled())
            .unwrap();
        let p2 = Placer::new(dev, Effort::Low, 99)
            .place(&prim, &Recorder::disabled())
            .unwrap();
        assert_eq!(p1.locations, p2.locations);
        assert_eq!(p1.hpwl, p2.hpwl);
    }

    #[test]
    fn effort_sets_descent_length() {
        let prim = sample_prim();
        let dev = DeviceProfile::ng_medium_like();
        let logic = prim
            .cells()
            .filter(|(_, c)| {
                !matches!(
                    c.prim,
                    Primitive::Dsp { .. } | Primitive::Ramb { .. } | Primitive::IoPad { .. }
                )
            })
            .count() as u64;
        assert!(logic > 0, "sample has no movable cells");

        let zero = Placer::new(dev.clone(), Effort::Zero, 7)
            .place(&prim, &Recorder::disabled())
            .unwrap();
        assert_eq!(zero.moves_tried, 0);
        assert_eq!(zero.hpwl, zero.initial_hpwl);

        let low = Placer::new(dev, Effort::Low, 7)
            .place(&prim, &Recorder::disabled())
            .unwrap();
        assert_eq!(low.moves_tried, 4 * logic);
        assert!(low.hpwl <= low.initial_hpwl);
    }

    /// A move counts each net on the moved cell once, however many pins
    /// the cell has on it, so the reported HPWL stays the true HPWL of the
    /// final sites. Random LUTs each read one net twice, between input
    /// and output pads on the perimeter.
    #[test]
    fn repeated_pins_count_their_net_once() {
        use crate::primitives::{CellName, PNetId};
        let dev = DeviceProfile::ng_medium_like();
        let lut = Primitive::Lut4 {
            truth: 0x6996,
            used_inputs: 3,
        };
        let pad = |is_input| Primitive::IoPad { is_input };
        let mut moved = 0;
        for seed in 0..40u64 {
            let mut rng = DetRng::new(seed);
            let mut prim = PrimNetlist::new("dup");
            let name = CellName::of(prim.add_string("c"));
            let mut pool: Vec<PNetId> = Vec::new();
            for _ in 0..16 {
                let n = prim.new_net();
                prim.add(name, pad(true), &[], &[n], 0);
                pool.push(n);
            }
            for _ in 0..64 {
                let mut pick = || pool[rng.below(pool.len() as u64) as usize];
                let (a, b) = (pick(), pick());
                let y = prim.new_net();
                prim.add(name, lut, &[a, b, a], &[y], 0);
                pool.push(y);
            }
            for _ in 0..16 {
                let n = pool[rng.below(pool.len() as u64) as usize];
                prim.add(name, pad(false), &[n], &[], 0);
            }
            let placed = Placer::new(dev.clone(), Effort::Low, seed)
                .place(&prim, &Recorder::disabled())
                .unwrap();
            let truth: f64 = prim
                .net_pins()
                .iter()
                .filter(|pins| !pins.is_empty())
                .map(|pins| {
                    let (mut lo, mut hi) = ((u16::MAX, u16::MAX), (0, 0));
                    for &p in pins {
                        let (x, y) = placed.site(p);
                        lo = (lo.0.min(x), lo.1.min(y));
                        hi = (hi.0.max(x), hi.1.max(y));
                    }
                    f64::from(hi.0 - lo.0) + f64::from(hi.1 - lo.1)
                })
                .sum();
            assert_eq!(placed.hpwl, truth, "seed {seed}: reported vs true HPWL");
            moved += usize::from(placed.moves_accepted > 0);
        }
        assert!(moved >= 30, "only {moved} of 40 descents moved a cell");
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
            .place(&prim, &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, FpgaError::ResourceOverflow { .. }));
    }
}
