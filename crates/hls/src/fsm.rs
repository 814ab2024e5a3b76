//! Finite-state-machine controller construction.
//!
//! One state per (block, cycle) of the schedule, in block order; the final
//! state of a block evaluates its terminator. The FSM size is the paper's
//! headline concern for coarse-grained-parallel applications ("the
//! complexity of the finite state machine controllers … grows
//! exponentially"), quantified by [`Fsm::state_count`] and exercised by the
//! E9 dataflow ablation.

use crate::ir::{BlockId, IrFunction, Terminator};
use crate::schedule::FunctionSchedule;
use std::collections::HashMap;

/// One controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsmState {
    /// Owning basic block.
    pub block: BlockId,
    /// Cycle within the block (0-based).
    pub cycle: u32,
}

/// What happens after a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmNext {
    /// Unconditionally proceed to a state.
    Goto(u32),
    /// Two-way conditional transition (on the block's branch condition).
    CondGoto {
        /// State entered when the condition holds.
        then_state: u32,
        /// State entered otherwise.
        else_state: u32,
    },
    /// The design asserts `done` and idles.
    Done,
}

/// The controller.
#[derive(Debug, Clone)]
pub struct Fsm {
    /// States in layout order.
    pub states: Vec<FsmState>,
    /// Transition out of each state.
    pub next: Vec<FsmNext>,
    /// First state of each block.
    pub block_entry: HashMap<u32, u32>,
}

impl Fsm {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Width of the state register in bits.
    pub fn state_bits(&self) -> u32 {
        (usize::BITS - (self.states.len().max(2) - 1).leading_zeros()).max(1)
    }

    /// Number of conditional transitions.
    pub fn branch_count(&self) -> usize {
        self.next
            .iter()
            .filter(|n| matches!(n, FsmNext::CondGoto { .. }))
            .count()
    }
}

/// Build the controller for a scheduled function.
pub fn build(func: &IrFunction, sched: &FunctionSchedule) -> Fsm {
    let mut states = Vec::new();
    let mut block_entry = HashMap::new();
    for (bi, bs) in sched.blocks.iter().enumerate() {
        block_entry.insert(bi as u32, states.len() as u32);
        for c in 0..bs.length {
            states.push(FsmState {
                block: BlockId(bi as u32),
                cycle: c,
            });
        }
    }
    let mut next = Vec::with_capacity(states.len());
    for (si, st) in states.iter().enumerate() {
        let bs = &sched.blocks[st.block.0 as usize];
        if st.cycle + 1 < bs.length {
            next.push(FsmNext::Goto(si as u32 + 1));
            continue;
        }
        match &func.block(st.block).term {
            Terminator::Jump(t) => next.push(FsmNext::Goto(block_entry[&t.0])),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => next.push(FsmNext::CondGoto {
                then_state: block_entry[&then_bb.0],
                else_state: block_entry[&else_bb.0],
            }),
            Terminator::Return(_) => next.push(FsmNext::Done),
        }
    }
    Fsm {
        states,
        next,
        block_entry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::Allocation;
    use crate::ir::lower;
    use crate::lang::parse;
    use crate::schedule::{schedule, ScheduleOptions};
    use hermes_eucalyptus::{CharacterizationLibrary, Eucalyptus, SweepConfig};
    use hermes_fpga::device::DeviceProfile;
    use std::sync::OnceLock;

    fn lib() -> &'static CharacterizationLibrary {
        static LIB: OnceLock<CharacterizationLibrary> = OnceLock::new();
        LIB.get_or_init(|| {
            Eucalyptus::new(DeviceProfile::ng_medium_like())
                .characterize(&SweepConfig {
                    widths: vec![8, 16, 32],
                    pipeline_stages: vec![0],
                })
                .expect("characterization")
        })
    }

    fn fsm_of(src: &str) -> (IrFunction, Fsm) {
        let mut f = lower(&parse(src).unwrap(), None).unwrap();
        crate::opt::optimize(&mut f);
        let s = schedule(&f, &Allocation::default(), lib(), &ScheduleOptions::default()).unwrap();
        let fsm = build(&f, &s);
        (f, fsm)
    }

    #[test]
    fn straight_line_fsm_is_linear() {
        let (_, fsm) = fsm_of("int f(int a, int b) { return a * b + 1; }");
        assert!(fsm.state_count() >= 1);
        assert_eq!(fsm.branch_count(), 0);
        assert!(matches!(fsm.next.last(), Some(FsmNext::Done)));
    }

    #[test]
    fn loop_fsm_has_back_edge_and_branch() {
        let (_, fsm) = fsm_of(
            "int f(int n) { int s = 0; while (n > 0) { s += n; n -= 1; } return s; }",
        );
        assert!(fsm.branch_count() >= 1);
        // some Goto points backwards (the loop back edge)
        let back_edges = fsm
            .next
            .iter()
            .enumerate()
            .filter(|(i, n)| matches!(n, FsmNext::Goto(t) if (*t as usize) < *i))
            .count();
        assert!(back_edges >= 1);
    }

    #[test]
    fn state_bits_log2() {
        let (_, fsm) = fsm_of("int f(int a) { return a + 1; }");
        assert!(fsm.state_bits() >= 1);
        let n = fsm.state_count();
        assert!(1usize << fsm.state_bits() >= n);
    }

    #[test]
    fn state_count_matches_schedule() {
        let (_, fsm) = fsm_of("int f(int a, int b) { return a / b; }");
        assert!(fsm.state_count() as u32 >= 1);
        // divider is multi-cycle at the default 10ns clock: several states
        assert!(fsm.state_count() >= 2, "got {}", fsm.state_count());
    }
}
