//! Cycle-stepped master↔slave testbench.
//!
//! [`AxiTestbench`] wires an [`AxiMaster`] plan generator to an
//! [`AxiMemory`] slave through the [`ProtocolChecker`], advancing both one
//! clock at a time — the simulated counterpart of the AXI4 testbench Bambu
//! generates around HLS accelerators. Blocking helpers measure exact cycle
//! costs so accelerator models can account for data transfer time.

use crate::checker::ProtocolChecker;
use crate::master::AxiMaster;
use crate::memory::{AxiMemory, MemoryTiming};
use crate::transaction::Response;
use crate::AxiError;

/// Aggregated traffic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Total bus cycles elapsed.
    pub cycles: u64,
    /// Bytes read by the master.
    pub bytes_read: u64,
    /// Bytes written by the master.
    pub bytes_written: u64,
    /// Read bursts issued.
    pub read_bursts: u64,
    /// Write bursts issued.
    pub write_bursts: u64,
    /// Sum of per-read-request latencies (first request to last beat).
    pub total_read_latency: u64,
    /// Transactions re-issued after a recoverable error.
    pub retries: u64,
    /// SLVERR responses observed (before any retry).
    pub slverrs: u64,
    /// Timeouts observed (before any retry).
    pub timeouts: u64,
    /// Transactions abandoned after exhausting the retry budget.
    pub retry_give_ups: u64,
}

impl BusStats {
    /// Promote the bus statistics into flight-recorder metrics under
    /// subsystem `sub`, plus one `Cpu`-clocked instant summarizing the run
    /// at the final bus cycle.
    pub fn obs_export(&self, obs: &hermes_obs::Recorder, sub: &str) {
        self.obs_export_ctx(obs, sub, hermes_obs::TraceCtx::untraced());
    }

    /// [`Self::obs_export`] with a causal trace context: the summary
    /// instant links into `ctx`'s trace, so a request trace that crosses
    /// the bus (serve → DMA measurement → AXI) stays one connected tree.
    pub fn obs_export_ctx(&self, obs: &hermes_obs::Recorder, sub: &str, ctx: hermes_obs::TraceCtx) {
        obs.counter_add(sub, "cycles", self.cycles);
        obs.counter_add(sub, "bytes_read", self.bytes_read);
        obs.counter_add(sub, "bytes_written", self.bytes_written);
        obs.counter_add(sub, "read_bursts", self.read_bursts);
        obs.counter_add(sub, "write_bursts", self.write_bursts);
        obs.counter_add(sub, "retries", self.retries);
        obs.counter_add(sub, "slverrs", self.slverrs);
        obs.counter_add(sub, "timeouts", self.timeouts);
        obs.counter_add(sub, "retry_give_ups", self.retry_give_ups);
        if let Some(mean) = self.total_read_latency.checked_div(self.read_bursts) {
            // fixed buckets in bus cycles: latency profile of read bursts
            obs.observe(sub, "read_latency", &[8, 16, 32, 64, 128, 256], mean);
        }
        obs.trace_instant(
            sub,
            "bus-stats",
            hermes_obs::ClockDomain::Cpu,
            self.cycles,
            &[
                ("retries", self.retries.to_string()),
                ("slverrs", self.slverrs.to_string()),
                ("timeouts", self.timeouts.to_string()),
            ],
            ctx,
        );
    }
}

/// Retry-with-exponential-backoff policy for the blocking master helpers.
///
/// When installed (see [`AxiTestbench::with_retry`]), a transaction that
/// fails with [`AxiError::SlaveError`] or [`AxiError::Timeout`] is drained
/// off the bus, backed off for `backoff_base << attempt` idle cycles, and
/// re-issued — up to `max_retries` times before the error surfaces to the
/// caller. Decode errors are never retried: a wrong address does not heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues allowed per transaction before giving up.
    pub max_retries: u32,
    /// Idle cycles before the first retry (doubled on each further one).
    pub backoff_base: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 8,
        }
    }
}

impl BusStats {
    /// Average cycles per read request.
    pub fn avg_read_latency(&self) -> f64 {
        if self.read_bursts == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.read_bursts as f64
        }
    }

    /// Achieved bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.bytes_read + self.bytes_written) as f64 / self.cycles as f64
        }
    }
}

/// The testbench harness.
#[derive(Debug)]
pub struct AxiTestbench {
    master: AxiMaster,
    memory: AxiMemory,
    checker: ProtocolChecker,
    stats: BusStats,
    /// Cycle budget for blocking operations before declaring a hang.
    pub timeout_cycles: u64,
    /// Optional retry policy (off by default — errors surface immediately).
    pub retry: Option<RetryPolicy>,
    /// Bus cycles advanced one step at a time.
    ticks_polled: u64,
    /// Bus cycles crossed by quiet-gap fast-forward.
    ticks_skipped: u64,
}

impl AxiTestbench {
    /// Build a testbench over `mem_size` bytes of slave memory with the
    /// given timing and a 64-bit data bus.
    pub fn new(mem_size: usize, timing: MemoryTiming) -> Self {
        Self::with_bus_width(mem_size, timing, 8)
    }

    /// Build a testbench with an explicit bus width in bytes.
    pub fn with_bus_width(mem_size: usize, timing: MemoryTiming, bus_bytes: u8) -> Self {
        AxiTestbench {
            master: AxiMaster::new(bus_bytes),
            memory: AxiMemory::new(mem_size, timing),
            checker: ProtocolChecker::new(),
            stats: BusStats::default(),
            timeout_cycles: 1_000_000,
            retry: None,
            ticks_polled: 0,
            ticks_skipped: 0,
        }
    }

    /// Install a retry policy (builder style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Bus cycles advanced one step at a time (the polled work that
    /// quiet-gap fast-forward could not skip).
    pub fn ticks_polled(&self) -> u64 {
        self.ticks_polled
    }

    /// Bus cycles crossed by quiet-gap fast-forward.
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Direct (zero-time) access to the slave memory for initialization.
    pub fn memory_mut(&mut self) -> &mut AxiMemory {
        &mut self.memory
    }

    /// Direct read-only access to the slave memory.
    pub fn memory(&self) -> &AxiMemory {
        &self.memory
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Protocol violations observed so far.
    pub fn violations(&self) -> &[crate::checker::Violation] {
        self.checker.violations()
    }

    fn step(&mut self) {
        self.memory.step();
        self.checker.tick();
        self.stats.cycles += 1;
        self.ticks_polled += 1;
    }

    /// One scheduling quantum inside a blocking wait: advance the bus
    /// toward `stop` (the absolute cycle where the caller's timeout check
    /// or idle budget fires) and return the cycles advanced.
    ///
    /// With the slave provably quiet, the span up to the earlier of the
    /// quiet gap's end and `stop` (DESIGN.md §14) is crossed in one bulk
    /// advance. Otherwise — the slave can do observable work next cycle
    /// — this is exactly one [`step`].
    fn advance_toward(&mut self, stop: u64) -> u64 {
        let now = self.stats.cycles;
        if now < stop {
            let quiet = self.memory.quiet_cycles();
            if quiet > 0 {
                let k = quiet.min(stop - now);
                self.memory.advance_quiet(k);
                self.checker.tick_n(k);
                self.stats.cycles += k;
                self.ticks_skipped += k;
                return k;
            }
        }
        self.step();
        1
    }

    /// Whether an error is worth re-issuing the transaction for.
    fn recoverable(err: &AxiError) -> bool {
        matches!(
            err,
            AxiError::SlaveError { .. } | AxiError::Timeout { .. }
        )
    }

    /// Record an observed error in the per-transaction stats.
    fn note_error(&mut self, err: &AxiError) {
        match err {
            AxiError::SlaveError { .. } => self.stats.slverrs += 1,
            AxiError::Timeout { .. } => self.stats.timeouts += 1,
            _ => {}
        }
    }

    /// Drain in-flight transactions and queued outputs off the bus after a
    /// failed attempt, so a re-issue starts from a quiescent slave.
    fn recover_bus(&mut self) {
        let mut waited = 0u64;
        while self.memory.busy() {
            let stop = self.stats.cycles + (self.timeout_cycles + 1 - waited);
            let k = self.advance_toward(stop);
            while let Some(beat) = self.memory.pop_read_beat() {
                self.checker.on_read_beat(&beat);
            }
            while let Some(resp) = self.memory.pop_write_response() {
                self.checker.on_write_response(&resp);
            }
            waited += k;
            if waited > self.timeout_cycles {
                break;
            }
        }
    }

    /// Issue a read of `len` bytes at `addr` and step the bus until the data
    /// returns. Returns the data and the cycles consumed. With a
    /// [`RetryPolicy`] installed, recoverable errors (SLVERR, timeout) are
    /// retried with exponential backoff before surfacing.
    ///
    /// # Errors
    ///
    /// Returns [`AxiError::Decode`] / [`AxiError::SlaveError`] on bad
    /// responses and [`AxiError::Timeout`] if the bus hangs — after the
    /// retry budget (if any) is exhausted.
    pub fn read_blocking(&mut self, addr: u64, len: usize) -> Result<(Vec<u8>, u64), AxiError> {
        let start_cycles = self.stats.cycles;
        let mut attempt = 0u32;
        loop {
            match self.read_attempt(addr, len) {
                Ok(out) => {
                    self.stats.bytes_read += len as u64;
                    return Ok((out, self.stats.cycles - start_cycles));
                }
                Err(err) => {
                    self.note_error(&err);
                    let Some(policy) = self.retry else {
                        return Err(err);
                    };
                    if !Self::recoverable(&err) {
                        return Err(err);
                    }
                    if attempt >= policy.max_retries {
                        self.stats.retry_give_ups += 1;
                        return Err(err);
                    }
                    self.recover_bus();
                    self.idle(policy.backoff_base << attempt);
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    fn read_attempt(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, AxiError> {
        let plans = self.master.plan_read(addr, len)?;
        let mut out = Vec::with_capacity(len);
        for plan in plans {
            // wait for AR acceptance
            let mut waited = 0u64;
            while !self.memory.push_read(plan.burst.clone()) {
                let stop = self.stats.cycles + (self.timeout_cycles + 1 - waited);
                waited += self.advance_toward(stop);
                if waited > self.timeout_cycles {
                    return Err(AxiError::Timeout { cycles: waited });
                }
            }
            self.checker.on_read_burst(&plan.burst);
            self.stats.read_bursts += 1;
            let issue_cycle = self.stats.cycles;
            // collect beats
            let mut raw = Vec::with_capacity(plan.burst.total_bytes() as usize);
            let mut beats_seen = 0u16;
            while beats_seen < plan.burst.beats {
                self.advance_toward(issue_cycle + self.timeout_cycles + 1);
                while let Some(beat) = self.memory.pop_read_beat() {
                    self.checker.on_read_beat(&beat);
                    match beat.resp {
                        Response::Okay => {}
                        Response::DecErr => return Err(AxiError::Decode { addr }),
                        Response::SlvErr => return Err(AxiError::SlaveError { addr }),
                    }
                    raw.extend_from_slice(&beat.data);
                    beats_seen += 1;
                }
                if self.stats.cycles - issue_cycle > self.timeout_cycles {
                    return Err(AxiError::Timeout {
                        cycles: self.stats.cycles - issue_cycle,
                    });
                }
            }
            self.stats.total_read_latency += self.stats.cycles - issue_cycle;
            out.extend_from_slice(&raw[plan.skip..plan.skip + plan.take]);
        }
        Ok(out)
    }

    /// Issue a write of `data` at `addr` and step until the response
    /// arrives. Returns the cycles consumed. With a [`RetryPolicy`]
    /// installed, recoverable errors are retried with exponential backoff;
    /// a SLVERR'd write is never committed by the slave, so a re-issue is
    /// exactly-once from the memory's point of view.
    ///
    /// # Errors
    ///
    /// Returns [`AxiError::Decode`] / [`AxiError::SlaveError`] on bad
    /// responses and [`AxiError::Timeout`] if the bus hangs — after the
    /// retry budget (if any) is exhausted.
    pub fn write_blocking(&mut self, addr: u64, data: &[u8]) -> Result<u64, AxiError> {
        let start_cycles = self.stats.cycles;
        let mut attempt = 0u32;
        loop {
            match self.write_attempt(addr, data) {
                Ok(()) => {
                    self.stats.bytes_written += data.len() as u64;
                    return Ok(self.stats.cycles - start_cycles);
                }
                Err(err) => {
                    self.note_error(&err);
                    let Some(policy) = self.retry else {
                        return Err(err);
                    };
                    if !Self::recoverable(&err) {
                        return Err(err);
                    }
                    if attempt >= policy.max_retries {
                        self.stats.retry_give_ups += 1;
                        return Err(err);
                    }
                    self.recover_bus();
                    self.idle(policy.backoff_base << attempt);
                    attempt += 1;
                    self.stats.retries += 1;
                }
            }
        }
    }

    fn write_attempt(&mut self, addr: u64, data: &[u8]) -> Result<(), AxiError> {
        let plans = self.master.plan_write(addr, data)?;
        for (burst, beats) in plans {
            let mut waited = 0u64;
            while !self.memory.aw_ready() {
                let stop = self.stats.cycles + (self.timeout_cycles + 1 - waited);
                waited += self.advance_toward(stop);
                if waited > self.timeout_cycles {
                    return Err(AxiError::Timeout { cycles: waited });
                }
            }
            self.checker.on_write_burst(&burst);
            for beat in &beats {
                self.checker
                    .on_write_beat(burst.id, beat, self.master.bus_bytes);
            }
            self.memory.push_write(burst.clone(), beats);
            self.stats.write_bursts += 1;
            // wait for B
            let issue = self.stats.cycles;
            loop {
                self.advance_toward(issue + self.timeout_cycles + 1);
                if let Some(resp) = self.memory.pop_write_response() {
                    self.checker.on_write_response(&resp);
                    match resp.resp {
                        Response::Okay => break,
                        Response::DecErr => return Err(AxiError::Decode { addr }),
                        Response::SlvErr => return Err(AxiError::SlaveError { addr }),
                    }
                }
                if self.stats.cycles - issue > self.timeout_cycles {
                    return Err(AxiError::Timeout {
                        cycles: self.stats.cycles - issue,
                    });
                }
            }
        }
        Ok(())
    }

    /// Let the bus idle for `n` cycles (models compute phases between
    /// transfers). With a quiescent slave this is a single bulk advance.
    pub fn idle(&mut self, n: u64) {
        let stop = self.stats.cycles + n;
        while self.stats.cycles < stop {
            self.advance_toward(stop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_aligned() {
        let mut tb = AxiTestbench::new(4096, MemoryTiming::default());
        let data: Vec<u8> = (0..64u8).collect();
        tb.write_blocking(0x200, &data).unwrap();
        let (back, _) = tb.read_blocking(0x200, 64).unwrap();
        assert_eq!(back, data);
        assert!(tb.violations().is_empty());
    }

    #[test]
    fn roundtrip_unaligned_spanning_pages() {
        let mut tb = AxiTestbench::new(16 * 1024, MemoryTiming::default());
        let data: Vec<u8> = (0..255u8).collect();
        tb.write_blocking(0xFF1, &data).unwrap();
        let (back, _) = tb.read_blocking(0xFF1, 255).unwrap();
        assert_eq!(back, data);
        assert!(tb.violations().is_empty());
    }

    #[test]
    fn slower_memory_costs_more_cycles() {
        let mut fast = AxiTestbench::new(4096, MemoryTiming::ideal());
        let mut slow = AxiTestbench::new(4096, MemoryTiming::slow());
        let (_, cf) = fast.read_blocking(0, 64).unwrap();
        let (_, cs) = slow.read_blocking(0, 64).unwrap();
        assert!(
            cs > 2 * cf,
            "slow memory should dominate: fast={cf}, slow={cs}"
        );
    }

    #[test]
    fn unaligned_read_costs_at_least_aligned() {
        let timing = MemoryTiming::default();
        let mut a = AxiTestbench::new(4096, timing);
        let mut u = AxiTestbench::new(4096, timing);
        let (_, ca) = a.read_blocking(0x100, 64).unwrap();
        let (_, cu) = u.read_blocking(0x103, 64).unwrap();
        assert!(cu >= ca, "unaligned {cu} >= aligned {ca}");
    }

    #[test]
    fn decode_error_surfaces() {
        let mut tb = AxiTestbench::new(256, MemoryTiming::ideal());
        let err = tb.read_blocking(10_000, 4).unwrap_err();
        assert!(matches!(err, AxiError::Decode { .. }));
    }

    #[test]
    fn stats_accumulate() {
        let mut tb = AxiTestbench::new(4096, MemoryTiming::default());
        tb.write_blocking(0, &[0u8; 128]).unwrap();
        tb.read_blocking(0, 128).unwrap();
        let s = tb.stats();
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.bytes_read, 128);
        assert!(s.read_bursts >= 1);
        assert!(s.avg_read_latency() > 0.0);
        assert!(s.bytes_per_cycle() > 0.0);
    }

    #[test]
    fn slverr_surfaces_without_retry_policy() {
        let mut tb = AxiTestbench::new(4096, MemoryTiming::ideal());
        tb.memory_mut().inject_read_slverr(1);
        let err = tb.read_blocking(0, 4).unwrap_err();
        assert!(matches!(err, AxiError::SlaveError { .. }));
        assert_eq!(tb.stats().slverrs, 1);
        assert_eq!(tb.stats().retries, 0);
    }

    #[test]
    fn retry_recovers_read_slverr() {
        let mut tb =
            AxiTestbench::new(4096, MemoryTiming::ideal()).with_retry(RetryPolicy::default());
        tb.memory_mut().poke(0x80, &[42; 16]);
        tb.memory_mut().inject_read_slverr(2);
        let (data, _) = tb.read_blocking(0x80, 16).unwrap();
        assert_eq!(data, vec![42; 16]);
        let s = tb.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.slverrs, 2);
        assert_eq!(s.retry_give_ups, 0);
    }

    #[test]
    fn retry_recovers_write_slverr_exactly_once() {
        let mut tb =
            AxiTestbench::new(4096, MemoryTiming::ideal()).with_retry(RetryPolicy::default());
        tb.memory_mut().inject_write_slverr(1);
        tb.write_blocking(0x40, &[1, 2, 3, 4]).unwrap();
        assert_eq!(tb.memory().peek(0x40, 4), &[1, 2, 3, 4]);
        assert_eq!(tb.stats().retries, 1);
    }

    #[test]
    fn retry_budget_exhaustion_gives_up() {
        let policy = RetryPolicy {
            max_retries: 2,
            backoff_base: 4,
        };
        let mut tb = AxiTestbench::new(4096, MemoryTiming::ideal()).with_retry(policy);
        tb.memory_mut().inject_read_slverr(10);
        let err = tb.read_blocking(0, 4).unwrap_err();
        assert!(matches!(err, AxiError::SlaveError { .. }));
        let s = tb.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.retry_give_ups, 1);
    }

    #[test]
    fn retry_rides_out_timeout_from_stall() {
        let mut tb = AxiTestbench::new(4096, MemoryTiming::ideal()).with_retry(RetryPolicy {
            max_retries: 3,
            backoff_base: 16,
        });
        tb.timeout_cycles = 50;
        tb.memory_mut().poke(0, &[9; 8]);
        tb.memory_mut().inject_stall(120);
        let (data, _) = tb.read_blocking(0, 8).unwrap();
        assert_eq!(data, vec![9; 8]);
        let s = tb.stats();
        assert!(s.timeouts >= 1, "stall should cost at least one timeout");
        assert!(s.retries >= 1);
    }

    #[test]
    fn decode_error_is_never_retried() {
        let mut tb =
            AxiTestbench::new(256, MemoryTiming::ideal()).with_retry(RetryPolicy::default());
        let err = tb.read_blocking(10_000, 4).unwrap_err();
        assert!(matches!(err, AxiError::Decode { .. }));
        assert_eq!(tb.stats().retries, 0);
    }

    /// A fault-laden traffic pattern: SLVERRs, a stall long enough to
    /// trip timeouts, retries with backoff, idle compute gaps. Returns the
    /// testbench and the per-operation cycle costs.
    fn drive() -> (AxiTestbench, Vec<u64>) {
        let mut tb = AxiTestbench::new(8192, MemoryTiming::slow())
            .with_retry(RetryPolicy {
                max_retries: 3,
                backoff_base: 16,
            });
        tb.timeout_cycles = 200;
        let mut costs = Vec::new();
        tb.memory_mut().poke(0x100, &[0x5A; 64]);
        costs.push(tb.write_blocking(0x400, &[7u8; 48]).unwrap());
        tb.memory_mut().inject_read_slverr(2);
        let (data, c) = tb.read_blocking(0x100, 64).unwrap();
        assert_eq!(data, vec![0x5A; 64]);
        costs.push(c);
        tb.idle(500);
        tb.memory_mut().inject_stall(700); // > timeout_cycles: trips a timeout
        let (data, c) = tb.read_blocking(0x400, 48).unwrap();
        assert_eq!(data, vec![7u8; 48]);
        costs.push(c);
        tb.memory_mut().inject_write_slverr(1);
        costs.push(tb.write_blocking(0x800, &[9u8; 32]).unwrap());
        (tb, costs)
    }

    /// Fast-forwarding quiet cycles must not move bus timing: the costs
    /// and statistics below were recorded from the per-cycle polling waits
    /// (one `step` per bus cycle, nothing skipped).
    #[test]
    fn event_kernel_bus_timing_is_bit_identical() {
        let (tb, costs) = drive();
        assert_eq!(costs, [47, 294, 853, 132], "per-operation cycle costs");
        let polled = BusStats {
            cycles: 1826,
            bytes_read: 112,
            bytes_written: 80,
            read_bursts: 6,
            write_bursts: 3,
            total_read_latency: 83,
            retries: 5,
            slverrs: 3,
            timeouts: 2,
            retry_give_ups: 0,
        };
        assert_eq!(tb.stats(), polled, "cumulative bus statistics");
        assert!(tb.violations().is_empty());
        assert!(tb.ticks_skipped() > 0, "quiet gaps fast-forwarded");
        assert_eq!(
            tb.ticks_polled() + tb.ticks_skipped(),
            tb.stats().cycles,
            "every bus cycle is either polled or skipped"
        );
    }

    #[test]
    fn event_kernel_skips_most_latency_cycles() {
        let mut tb = AxiTestbench::new(4096, MemoryTiming::slow());
        tb.write_blocking(0, &[1u8; 256]).unwrap();
        tb.read_blocking(0, 256).unwrap();
        tb.idle(10_000);
        assert!(
            tb.ticks_skipped() > tb.ticks_polled(),
            "slow memory + idle is mostly quiet: polled {} skipped {}",
            tb.ticks_polled(),
            tb.ticks_skipped()
        );
    }

    #[test]
    fn backdoor_and_bus_agree() {
        let mut tb = AxiTestbench::new(1024, MemoryTiming::ideal());
        tb.memory_mut().poke(0x40, &[9, 8, 7]);
        let (v, _) = tb.read_blocking(0x40, 3).unwrap();
        assert_eq!(v, vec![9, 8, 7]);
    }
}
