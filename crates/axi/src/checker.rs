//! AXI4 protocol monitor.
//!
//! Observes the channel traffic of a master/slave pair and flags violations
//! of the ARM AXI4 specification rules that matter at the transaction level:
//! data beat counts matching AxLEN, WLAST/RLAST on exactly the final beat,
//! responses only for outstanding transactions, and strobe widths matching
//! the bus.

use crate::transaction::{Burst, ReadBeat, WriteBeat, WriteResponse};
use std::collections::HashMap;

/// A recorded protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the violation was observed.
    pub cycle: u64,
    /// Rule identifier, e.g. `WLAST_PLACEMENT`.
    pub rule: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// The protocol monitor.
#[derive(Debug, Default)]
pub struct ProtocolChecker {
    cycle: u64,
    outstanding_reads: HashMap<u16, (u16, u16)>, // id -> (expected beats, seen)
    outstanding_writes: HashMap<u16, (u16, u16)>,
    write_data_done: HashMap<u16, bool>,
    violations: Vec<Violation>,
}

impl ProtocolChecker {
    /// Create an idle checker.
    pub fn new() -> Self {
        ProtocolChecker::default()
    }

    /// Advance the checker's cycle counter (call once per bus cycle).
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// Advance the checker across `n` cycles at once. Only legal when no
    /// channel activity happens in the crossed interval (the testbench's
    /// fast-forward over provably quiet slave cycles): the checker is
    /// purely reactive, so skipping inactive cycles cannot miss a rule.
    pub fn tick_n(&mut self, n: u64) {
        self.cycle += n;
    }

    fn flag(&mut self, rule: &'static str, detail: String) {
        self.violations.push(Violation {
            cycle: self.cycle,
            rule,
            detail,
        });
    }

    /// Observe an AR handshake.
    pub fn on_read_burst(&mut self, burst: &Burst) {
        if self
            .outstanding_reads
            .insert(burst.id, (burst.beats, 0))
            .is_some()
        {
            self.flag(
                "ARID_REUSE",
                format!("read id {} reissued while outstanding", burst.id),
            );
        }
    }

    /// Observe an AW handshake.
    pub fn on_write_burst(&mut self, burst: &Burst) {
        if self
            .outstanding_writes
            .insert(burst.id, (burst.beats, 0))
            .is_some()
        {
            self.flag(
                "AWID_REUSE",
                format!("write id {} reissued while outstanding", burst.id),
            );
        }
        self.write_data_done.insert(burst.id, false);
    }

    /// Observe a W beat belonging to write id `id` on a bus of
    /// `bus_bytes` bytes.
    pub fn on_write_beat(&mut self, id: u16, beat: &WriteBeat, bus_bytes: u8) {
        if beat.data.len() != bus_bytes as usize || beat.strobe.len() != bus_bytes as usize {
            self.flag(
                "WSTRB_WIDTH",
                format!(
                    "beat width {} / strobe {} != bus {}",
                    beat.data.len(),
                    beat.strobe.len(),
                    bus_bytes
                ),
            );
        }
        let state = self.outstanding_writes.get_mut(&id).map(|(expected, seen)| {
            *seen += 1;
            (*expected, *seen)
        });
        match state {
            None => self.flag("W_ORPHAN", format!("data beat for unknown write id {id}")),
            Some((expected, seen)) => {
                let is_final = seen == expected;
                if beat.last != is_final {
                    self.flag(
                        "WLAST_PLACEMENT",
                        format!("id {id}: WLAST={} on beat {seen}/{expected}", beat.last),
                    );
                }
                if is_final {
                    self.write_data_done.insert(id, true);
                }
                if seen > expected {
                    self.flag(
                        "W_OVERRUN",
                        format!("id {id}: more data beats than AWLEN"),
                    );
                }
            }
        }
    }

    /// Observe an R beat.
    pub fn on_read_beat(&mut self, beat: &ReadBeat) {
        let state = self
            .outstanding_reads
            .get_mut(&beat.id)
            .map(|(expected, seen)| {
                *seen += 1;
                (*expected, *seen)
            });
        match state {
            None => self.flag(
                "R_ORPHAN",
                format!("read beat for unknown id {}", beat.id),
            ),
            Some((expected, seen)) => {
                let is_final = seen == expected;
                if beat.last != is_final {
                    self.flag(
                        "RLAST_PLACEMENT",
                        format!(
                            "id {}: RLAST={} on beat {seen}/{expected}",
                            beat.id, beat.last
                        ),
                    );
                }
                if is_final {
                    self.outstanding_reads.remove(&beat.id);
                }
            }
        }
    }

    /// Observe a B response.
    pub fn on_write_response(&mut self, resp: &WriteResponse) {
        match self.outstanding_writes.remove(&resp.id) {
            None => self.flag(
                "B_ORPHAN",
                format!("write response for unknown id {}", resp.id),
            ),
            Some((expected, seen)) => {
                if seen != expected {
                    self.flag(
                        "B_BEFORE_WLAST",
                        format!(
                            "id {}: response after {seen}/{expected} data beats",
                            resp.id
                        ),
                    );
                }
                if self.write_data_done.remove(&resp.id) != Some(true) {
                    self.flag(
                        "B_WITHOUT_DATA",
                        format!("id {}: response without completed data", resp.id),
                    );
                }
            }
        }
    }

    /// All violations observed so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether the traffic has been clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Transactions still outstanding (reads, writes).
    pub fn outstanding(&self) -> (usize, usize) {
        (self.outstanding_reads.len(), self.outstanding_writes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{BurstType, Response};

    fn wbeat(n: usize, last: bool) -> WriteBeat {
        WriteBeat {
            data: vec![0; n],
            strobe: vec![true; n],
            last,
        }
    }

    #[test]
    fn clean_write_sequence() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(5, 0, 2, 4, BurstType::Incr).unwrap();
        c.on_write_burst(&b);
        c.on_write_beat(5, &wbeat(4, false), 4);
        c.on_write_beat(5, &wbeat(4, true), 4);
        c.on_write_response(&WriteResponse {
            id: 5,
            resp: Response::Okay,
        });
        assert!(c.is_clean(), "{:?}", c.violations());
        assert_eq!(c.outstanding(), (0, 0));
    }

    #[test]
    fn early_wlast_flagged() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(1, 0, 2, 4, BurstType::Incr).unwrap();
        c.on_write_burst(&b);
        c.on_write_beat(1, &wbeat(4, true), 4); // WLAST one beat early
        assert!(!c.is_clean());
        assert_eq!(c.violations()[0].rule, "WLAST_PLACEMENT");
    }

    #[test]
    fn missing_rlast_flagged() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(2, 0, 1, 4, BurstType::Incr).unwrap();
        c.on_read_burst(&b);
        c.on_read_beat(&ReadBeat {
            id: 2,
            data: vec![0; 4],
            resp: Response::Okay,
            last: false, // final beat must set RLAST
        });
        assert_eq!(c.violations()[0].rule, "RLAST_PLACEMENT");
    }

    #[test]
    fn orphan_beats_flagged() {
        let mut c = ProtocolChecker::new();
        c.on_read_beat(&ReadBeat {
            id: 9,
            data: vec![],
            resp: Response::Okay,
            last: true,
        });
        c.on_write_response(&WriteResponse {
            id: 9,
            resp: Response::Okay,
        });
        let rules: Vec<_> = c.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"R_ORPHAN"));
        assert!(rules.contains(&"B_ORPHAN"));
    }

    #[test]
    fn response_before_data_flagged() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(3, 0, 2, 4, BurstType::Incr).unwrap();
        c.on_write_burst(&b);
        c.on_write_beat(3, &wbeat(4, false), 4);
        c.on_write_response(&WriteResponse {
            id: 3,
            resp: Response::Okay,
        });
        assert!(c
            .violations()
            .iter()
            .any(|v| v.rule == "B_BEFORE_WLAST"));
    }

    #[test]
    fn id_reuse_flagged() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(7, 0, 2, 4, BurstType::Incr).unwrap();
        c.on_read_burst(&b);
        c.on_read_burst(&b);
        assert!(c.violations().iter().any(|v| v.rule == "ARID_REUSE"));
    }

    #[test]
    fn strobe_width_checked() {
        let mut c = ProtocolChecker::new();
        let b = Burst::new(1, 0, 1, 8, BurstType::Incr).unwrap();
        c.on_write_burst(&b);
        c.on_write_beat(1, &wbeat(4, true), 8); // 4-byte beat on 8-byte bus
        assert!(c.violations().iter().any(|v| v.rule == "WSTRB_WIDTH"));
    }
}
