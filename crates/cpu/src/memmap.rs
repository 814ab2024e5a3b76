//! The system memory map and bus.
//!
//! Mirrors the NG-ULTRA processing-subsystem layout the BL1 specification
//! initializes: per-core tightly-coupled memories, shared on-chip SRAM,
//! external DDR, a boot-flash window, and a small MMIO block (UART capture
//! for test output).

use crate::CpuError;
use hermes_obs::hash::Fnv1a;

/// Default memory layout constants (byte addresses).
pub mod layout {
    /// Base of core-0 TCM (each core's TCM is at `TCM_BASE + core * TCM_STRIDE`).
    pub const TCM_BASE: u32 = 0x0000_0000;
    /// Per-core TCM size (64 KiB, as on the R52).
    pub const TCM_SIZE: u32 = 0x0001_0000;
    /// Stride between per-core TCM windows.
    pub const TCM_STRIDE: u32 = 0x0010_0000;
    /// Shared on-chip SRAM base.
    pub const SRAM_BASE: u32 = 0x1000_0000;
    /// Shared SRAM size (1 MiB).
    pub const SRAM_SIZE: u32 = 0x0010_0000;
    /// External DDR base.
    pub const DDR_BASE: u32 = 0x4000_0000;
    /// DDR size modelled (16 MiB keeps tests fast; the map allows more).
    pub const DDR_SIZE: u32 = 0x0100_0000;
    /// Boot flash window base (read-only via the bus).
    pub const FLASH_BASE: u32 = 0x8000_0000;
    /// Flash window size (8 MiB).
    pub const FLASH_SIZE: u32 = 0x0080_0000;
    /// UART transmit register (write-only capture).
    pub const UART_TX: u32 = 0xF000_0000;
}

/// A contiguous RAM/ROM region.
#[derive(Debug, Clone)]
struct Region {
    name: String,
    base: u32,
    data: Vec<u8>,
    writable: bool,
}

/// The shared system bus.
#[derive(Debug, Clone)]
pub struct SystemBus {
    regions: Vec<Region>,
    uart: Vec<u8>,
    /// Count of accesses to shared (non-TCM) regions this cycle; the
    /// cluster uses it to model contention.
    pub shared_accesses_this_cycle: u32,
}

impl Default for SystemBus {
    fn default() -> Self {
        SystemBus::new()
    }
}

impl SystemBus {
    /// Build the default NG-ULTRA-like memory map for 4 cores.
    pub fn new() -> Self {
        use layout::*;
        let mut bus = SystemBus {
            regions: Vec::new(),
            uart: Vec::new(),
            shared_accesses_this_cycle: 0,
        };
        for core in 0..4u32 {
            bus.add_region(
                format!("tcm{core}"),
                TCM_BASE + core * TCM_STRIDE,
                TCM_SIZE as usize,
                true,
            );
        }
        bus.add_region("sram", SRAM_BASE, SRAM_SIZE as usize, true);
        bus.add_region("ddr", DDR_BASE, DDR_SIZE as usize, true);
        bus.add_region("flash", FLASH_BASE, FLASH_SIZE as usize, false);
        bus
    }

    /// Add a RAM (writable) or ROM region.
    pub fn add_region(&mut self, name: impl Into<String>, base: u32, size: usize, writable: bool) {
        self.regions.push(Region {
            name: name.into(),
            base,
            data: vec![0; size],
            writable,
        });
    }

    /// Whether an address lies in a TCM window (private, contention-free).
    pub fn is_tcm(&self, addr: u32) -> bool {
        use layout::*;
        (0..4).any(|c| {
            let base = TCM_BASE + c * TCM_STRIDE;
            addr >= base && addr < base + TCM_SIZE
        })
    }

    /// Read `size` bytes (1, 2, or 4) little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Unmapped`] for holes in the map.
    pub fn read(&mut self, addr: u32, size: u32) -> Result<u32, CpuError> {
        if !self.is_tcm(addr) {
            self.shared_accesses_this_cycle += 1;
        }
        let idx = self
            .region_of_span(addr, size)
            .ok_or(CpuError::Unmapped { addr })?;
        let r = &self.regions[idx];
        let off = (addr - r.base) as usize;
        let mut v = 0u32;
        for i in 0..size as usize {
            v |= u32::from(r.data[off + i]) << (8 * i);
        }
        Ok(v)
    }

    /// Write `size` bytes (1, 2, or 4) little-endian. Writes to ROM are
    /// silently ignored (as on a real bus without an error response);
    /// writes to the UART register are captured.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Unmapped`] for holes in the map.
    pub fn write(&mut self, addr: u32, size: u32, value: u32) -> Result<(), CpuError> {
        if addr == layout::UART_TX {
            self.uart.push(value as u8);
            return Ok(());
        }
        if !self.is_tcm(addr) {
            self.shared_accesses_this_cycle += 1;
        }
        let idx = self
            .region_of_span(addr, size)
            .ok_or(CpuError::Unmapped { addr })?;
        let r = &mut self.regions[idx];
        if !r.writable {
            return Ok(());
        }
        let off = (addr - r.base) as usize;
        for i in 0..size as usize {
            r.data[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn region_of_span(&self, addr: u32, size: u32) -> Option<usize> {
        self.regions.iter().position(|r| {
            addr >= r.base && (addr - r.base) as usize + size as usize <= r.data.len()
        })
    }

    /// Bulk load bytes (backdoor, no contention accounting).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::LoadOverflow`] if the span exceeds the region.
    pub fn load_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), CpuError> {
        let idx = self
            .region_of_span(addr, bytes.len() as u32)
            .ok_or(CpuError::LoadOverflow {
                addr,
                bytes: bytes.len(),
            })?;
        let r = &mut self.regions[idx];
        let off = (addr - r.base) as usize;
        r.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Bulk read bytes (backdoor).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Unmapped`] if the span is not fully mapped.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<Vec<u8>, CpuError> {
        let idx = self
            .region_of_span(addr, len as u32)
            .ok_or(CpuError::Unmapped { addr })?;
        let r = &self.regions[idx];
        let off = (addr - r.base) as usize;
        Ok(r.data[off..off + len].to_vec())
    }

    /// FNV-1a checksum of a byte range (backdoor; no contention
    /// accounting). Used by the hostile-chaos campaigns to audit victim
    /// sentinel patterns after an attack: an intact checksum proves no
    /// cross-partition write landed.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::Unmapped`] if the span is not fully mapped.
    pub fn checksum(&self, addr: u32, len: usize) -> Result<u64, CpuError> {
        let mut h = Fnv1a::new();
        h.bytes(&self.read_bytes(addr, len)?);
        Ok(h.finish())
    }

    /// Bytes written to the UART so far.
    pub fn uart_output(&self) -> &[u8] {
        &self.uart
    }

    /// Name of the region containing an address (diagnostics).
    pub fn region_name(&self, addr: u32) -> Option<&str> {
        self.region_of_span(addr, 1)
            .map(|i| self.regions[i].name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::layout::*;
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut bus = SystemBus::new();
        bus.write(SRAM_BASE + 4, 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(bus.read(SRAM_BASE + 4, 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(bus.read(SRAM_BASE + 5, 1).unwrap(), 0xBE);
        bus.write(SRAM_BASE + 5, 1, 0x12).unwrap();
        assert_eq!(bus.read(SRAM_BASE + 4, 4).unwrap(), 0xDEAD_12EF);
    }

    #[test]
    fn unmapped_access_errors() {
        let mut bus = SystemBus::new();
        assert!(matches!(
            bus.read(0x2000_0000, 4),
            Err(CpuError::Unmapped { .. })
        ));
    }

    #[test]
    fn flash_is_read_only() {
        let mut bus = SystemBus::new();
        bus.load_bytes(FLASH_BASE, &[1, 2, 3, 4]).unwrap();
        bus.write(FLASH_BASE, 4, 0xFFFF_FFFF).unwrap();
        assert_eq!(bus.read(FLASH_BASE, 4).unwrap(), 0x0403_0201);
    }

    #[test]
    fn uart_captures_writes() {
        let mut bus = SystemBus::new();
        for &b in b"OK" {
            bus.write(UART_TX, 1, u32::from(b)).unwrap();
        }
        assert_eq!(bus.uart_output(), b"OK");
    }

    #[test]
    fn tcm_detection() {
        let bus = SystemBus::new();
        assert!(bus.is_tcm(TCM_BASE + 100));
        assert!(bus.is_tcm(TCM_BASE + TCM_STRIDE));
        assert!(!bus.is_tcm(SRAM_BASE));
    }

    #[test]
    fn contention_counter_tracks_shared_only() {
        let mut bus = SystemBus::new();
        bus.read(TCM_BASE, 4).unwrap();
        assert_eq!(bus.shared_accesses_this_cycle, 0);
        bus.read(SRAM_BASE, 4).unwrap();
        bus.read(DDR_BASE, 4).unwrap();
        assert_eq!(bus.shared_accesses_this_cycle, 2);
    }

    #[test]
    fn checksum_detects_single_byte_change() {
        let mut bus = SystemBus::new();
        bus.load_bytes(SRAM_BASE, &[7u8; 64]).unwrap();
        let before = bus.checksum(SRAM_BASE, 64).unwrap();
        assert_eq!(bus.checksum(SRAM_BASE, 64).unwrap(), before);
        bus.write(SRAM_BASE + 13, 1, 8).unwrap();
        assert_ne!(bus.checksum(SRAM_BASE, 64).unwrap(), before);
        assert!(bus.checksum(0x2000_0000, 4).is_err());
    }

    #[test]
    fn region_names() {
        let bus = SystemBus::new();
        assert_eq!(bus.region_name(SRAM_BASE), Some("sram"));
        assert_eq!(bus.region_name(0x2000_0000), None);
    }
}
