//! Partition runtime state and workloads.
//!
//! A partition hosts either a **guest** machine-code image executed on the
//! `hermes-cpu` cluster (full virtualization of the modelled ISA, under MPU
//! enforcement) or a **native** Rust task (paravirtualization — the
//! "partial virtualization, where the hypervisor provides partitions with a
//! similar interface to … the underlying hardware platform" of
//! Section III). Native tasks interact with the system exclusively through
//! [`TaskCtx`].

use crate::ports::PortTable;
use crate::{PartitionId, XngError};
use std::fmt;

/// Saved virtual-CPU context of a guest partition on one core.
#[derive(Debug, Clone, Default)]
pub struct VcpuContext {
    /// General registers.
    pub regs: [u32; 16],
    /// Program counter.
    pub pc: u32,
    /// Whether the vCPU has been started at least once.
    pub started: bool,
}

/// Partition operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Awaiting first dispatch (or restart): cold start.
    #[default]
    Cold,
    /// Running normally.
    Normal,
    /// Permanently stopped (by itself or the health monitor).
    Halted,
}

/// A guest memory image: `(address, words)` pairs loaded at (re)start.
pub type GuestImage = Vec<(u32, Vec<u32>)>;

/// The workload hosted by a partition.
pub enum Workload {
    /// Nothing attached (scheduling hole).
    Idle,
    /// Guest machine code.
    Guest {
        /// Entry point.
        entry: u32,
        /// Memory image reloaded on cold start.
        image: GuestImage,
    },
    /// A native Rust task.
    Native(Box<dyn NativeTask>),
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Idle => write!(f, "Idle"),
            Workload::Guest { entry, .. } => write!(f, "Guest @ {entry:#x}"),
            Workload::Native(t) => write!(f, "Native({})", t.name()),
        }
    }
}

/// The interface native tasks use to interact with the hypervisor.
pub struct TaskCtx<'a> {
    pub(crate) pid: PartitionId,
    pub(crate) now: u64,
    pub(crate) budget: u64,
    pub(crate) consumed: u64,
    pub(crate) ports: &'a mut PortTable,
    pub(crate) trace: &'a mut Vec<String>,
    pub(crate) halt_requested: bool,
}

impl TaskCtx<'_> {
    /// Current system time in cycles (slot start).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles remaining in this activation's budget.
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.consumed)
    }

    /// Charge `cycles` of computation to this activation. Consuming more
    /// than the budget is allowed (the health monitor flags the overrun).
    pub fn consume(&mut self, cycles: u64) {
        self.consumed += cycles;
    }

    /// Write a message to one of this partition's source ports.
    ///
    /// # Errors
    ///
    /// See [`PortTable::write`].
    pub fn write_port(&mut self, port: &str, data: &[u8]) -> Result<(), XngError> {
        self.ports.write(self.pid, port, data, self.now)
    }

    /// Read the latest message from a sampling destination port, with age.
    ///
    /// # Errors
    ///
    /// See [`PortTable::read_sampling`].
    pub fn read_sampling(&self, port: &str) -> Result<Option<(Vec<u8>, u64)>, XngError> {
        self.ports.read_sampling(self.pid, port, self.now)
    }

    /// Dequeue a message from a queuing destination port.
    ///
    /// # Errors
    ///
    /// See [`PortTable::read_queuing`].
    pub fn read_queuing(&mut self, port: &str) -> Result<Option<Vec<u8>>, XngError> {
        Ok(self.ports.read_queuing(self.pid, port)?.map(|m| m.data))
    }

    /// Append a line to the partition trace.
    pub fn trace(&mut self, line: impl Into<String>) {
        self.trace.push(line.into());
    }

    /// Request a permanent halt of this partition.
    pub fn halt(&mut self) {
        self.halt_requested = true;
    }
}

/// A native partition task.
pub trait NativeTask: Send {
    /// Task name for diagnostics.
    fn name(&self) -> &str;

    /// One activation (invoked once per scheduling slot).
    ///
    /// # Errors
    ///
    /// An `Err` is reported to the health monitor as a partition error.
    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), String>;

    /// Reset internal state on partition restart.
    fn reset(&mut self) {}
}

struct ClosureTask<F> {
    name: String,
    f: F,
}

impl<F> NativeTask for ClosureTask<F>
where
    F: FnMut(&mut TaskCtx<'_>) -> Result<(), String> + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> Result<(), String> {
        (self.f)(ctx)
    }
}

/// Wrap a closure as a [`NativeTask`].
pub fn native_task<F>(name: impl Into<String>, f: F) -> Box<dyn NativeTask>
where
    F: FnMut(&mut TaskCtx<'_>) -> Result<(), String> + Send + 'static,
{
    Box::new(ClosureTask {
        name: name.into(),
        f,
    })
}

/// Per-partition runtime bookkeeping.
#[derive(Debug)]
pub struct PartitionRt {
    /// The workload.
    pub workload: Workload,
    /// Operating mode.
    pub mode: PartitionMode,
    /// Saved vCPU contexts, one per core.
    pub vcpus: Vec<VcpuContext>,
    /// Trace lines (from hypercalls / TaskCtx).
    pub trace: Vec<String>,
    /// Statistics.
    pub stats: PartitionStats,
}

/// Per-partition statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Slot activations.
    pub activations: u64,
    /// CPU cycles consumed.
    pub cpu_cycles: u64,
    /// Hypercalls serviced.
    pub hypercalls: u64,
    /// Traps taken to the health monitor.
    pub traps: u64,
    /// Restarts performed by the health monitor.
    pub restarts: u64,
    /// Maximum observed delay between nominal and actual slot start.
    pub max_start_jitter: u64,
    /// Slot overruns (native tasks exceeding their budget).
    pub overruns: u64,
    /// Watchdog expiries attributed to this partition.
    pub watchdog_expiries: u64,
    /// Spatial-isolation traps (MPU faults and protection-domain faults)
    /// attributed to this partition — the subset of `traps` that
    /// represents attempted cross-partition access.
    pub isolation_traps: u64,
}

impl PartitionRt {
    /// A new idle partition runtime.
    pub fn new(cores: usize) -> Self {
        PartitionRt {
            workload: Workload::Idle,
            mode: PartitionMode::Cold,
            vcpus: vec![VcpuContext::default(); cores],
            trace: Vec::new(),
            stats: PartitionStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PartitionConfig, XngConfig};

    #[test]
    fn closure_task_runs() {
        let cfg = {
            let mut c = XngConfig::new("t");
            c.add_partition(PartitionConfig::new("p"));
            c
        };
        let mut ports = PortTable::from_config(&cfg);
        let mut trace = Vec::new();
        let mut task = native_task("demo", |ctx| {
            ctx.consume(10);
            ctx.trace("hello");
            Ok(())
        });
        let mut ctx = TaskCtx {
            pid: PartitionId(0),
            now: 0,
            budget: 100,
            consumed: 0,
            ports: &mut ports,
            trace: &mut trace,
            halt_requested: false,
        };
        task.step(&mut ctx).unwrap();
        assert_eq!(ctx.consumed, 10);
        assert_eq!(ctx.remaining(), 90);
        assert_eq!(trace, vec!["hello".to_string()]);
    }

    #[test]
    fn workload_debug() {
        assert_eq!(format!("{:?}", Workload::Idle), "Idle");
        let g = Workload::Guest {
            entry: 0x1000,
            image: vec![],
        };
        assert!(format!("{g:?}").contains("0x1000"));
    }
}
