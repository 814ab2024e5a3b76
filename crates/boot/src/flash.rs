//! Boot flash model with redundancy.
//!
//! Section IV: BL1 manages "basic redundancy for software components stored
//! in Flash (either through TMR or through sequential accesses to multiple
//! hardware Flash components)". The model keeps three complete copies of
//! the flash contents; [`Flash::read_redundant`] implements both policies
//! and reports how many corrupted bytes were repaired. Test hooks flip
//! individual bits per copy, standing in for radiation upsets in
//! non-volatile memory.

use crate::loadlist::{ImageKind, LoadEntry, LoadList};
use crate::BootError;
use hermes_fpga::bitstream::{crc32, Bitstream};

/// Number of redundant flash copies (TMR).
pub const COPIES: usize = 3;

/// Flash offset at which the load list lives.
pub const LOADLIST_OFFSET: u32 = 0x0001_0000;

/// Flash offset at which image payloads start.
pub const PAYLOAD_OFFSET: u32 = 0x0002_0000;

/// Bytes the flash controller delivers per cycle once initialized.
pub const READ_BYTES_PER_CYCLE: u32 = 4;

/// Magic of an image header.
pub const IMAGE_MAGIC: [u8; 4] = *b"HIMG";

/// Header in front of the BL1 image at offset 0 (what BL0 parses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageHeader {
    /// Payload size in bytes.
    pub size: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl ImageHeader {
    /// Serialized size.
    pub const BYTES: u32 = 12;

    /// Serialize.
    pub fn to_bytes(self) -> [u8; 12] {
        let mut v = [0u8; 12];
        v[..4].copy_from_slice(&IMAGE_MAGIC);
        v[4..8].copy_from_slice(&self.size.to_le_bytes());
        v[8..12].copy_from_slice(&self.crc.to_le_bytes());
        v
    }

    /// Parse.
    ///
    /// # Errors
    ///
    /// Returns [`BootError::Integrity`] on bad magic.
    pub fn from_bytes(data: &[u8]) -> Result<Self, BootError> {
        if data.len() < 12 || data[..4] != IMAGE_MAGIC {
            return Err(BootError::Integrity {
                what: "image header".into(),
            });
        }
        Ok(ImageHeader {
            size: u32::from_le_bytes([data[4], data[5], data[6], data[7]]),
            crc: u32::from_le_bytes([data[8], data[9], data[10], data[11]]),
        })
    }
}

/// Redundancy policy for flash reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyMode {
    /// No redundancy: read copy 0 only.
    None,
    /// Byte-wise majority vote across the three copies.
    Tmr,
    /// Try copies in order until one passes the caller's integrity check.
    Sequential,
}

/// The flash device (three physical copies).
#[derive(Debug, Clone)]
pub struct Flash {
    copies: Vec<Vec<u8>>,
    /// Redundancy policy used by [`Flash::read_redundant`].
    pub mode: RedundancyMode,
    /// Cumulative bytes corrected by TMR voting.
    pub corrected_bytes: u64,
    /// Cumulative cycles spent reading.
    pub read_cycles: u64,
}

impl Flash {
    /// A blank flash of `size` bytes per copy.
    pub fn new(size: usize, mode: RedundancyMode) -> Self {
        Flash {
            copies: vec![vec![0xFF; size]; COPIES],
            mode,
            corrected_bytes: 0,
            read_cycles: 0,
        }
    }

    /// Size of one copy.
    pub fn size(&self) -> usize {
        self.copies[0].len()
    }

    /// Program the same data into all copies.
    ///
    /// # Errors
    ///
    /// Returns [`BootError::FlashRange`] when out of range.
    pub fn program(&mut self, offset: u32, data: &[u8]) -> Result<(), BootError> {
        let end = offset as usize + data.len();
        if end > self.size() {
            return Err(BootError::FlashRange {
                offset,
                len: data.len() as u32,
            });
        }
        for copy in &mut self.copies {
            copy[offset as usize..end].copy_from_slice(data);
        }
        Ok(())
    }

    /// Raw read from one copy (no vote, charges read cycles).
    ///
    /// # Errors
    ///
    /// Returns [`BootError::FlashRange`] when out of range.
    pub fn read_copy(&mut self, copy: usize, offset: u32, len: u32) -> Result<Vec<u8>, BootError> {
        let end = offset as usize + len as usize;
        if copy >= COPIES || end > self.size() {
            return Err(BootError::FlashRange { offset, len });
        }
        self.read_cycles += u64::from(len.div_ceil(READ_BYTES_PER_CYCLE));
        Ok(self.copies[copy][offset as usize..end].to_vec())
    }

    /// Redundant read according to [`Flash::mode`].
    ///
    /// In TMR mode every byte is majority-voted across the three copies
    /// (cost: 3× the read cycles); `None`/`Sequential` read copy 0 (callers
    /// implementing sequential fallback use [`Flash::read_copy`] for the
    /// alternates).
    ///
    /// # Errors
    ///
    /// Returns [`BootError::FlashRange`] when out of range.
    pub fn read_redundant(&mut self, offset: u32, len: u32) -> Result<Vec<u8>, BootError> {
        match self.mode {
            RedundancyMode::None | RedundancyMode::Sequential => self.read_copy(0, offset, len),
            RedundancyMode::Tmr => {
                let (start, end) = (offset as usize, offset as usize + len as usize);
                if end > self.size() {
                    return Err(BootError::FlashRange { offset, len });
                }
                self.read_cycles += COPIES as u64 * u64::from(len.div_ceil(READ_BYTES_PER_CYCLE));
                let [a, b, c] = [0, 1, 2].map(|k| &self.copies[k][start..end]);
                let (out, corrected) = tmr_vote(a, b, c);
                self.corrected_bytes += corrected;
                Ok(out)
            }
        }
    }

    /// Flip one bit in one copy (fault-injection hook).
    ///
    /// Returns `false` if out of range.
    pub fn flip_bit(&mut self, copy: usize, byte_offset: u32, bit: u8) -> bool {
        if copy >= COPIES || byte_offset as usize >= self.size() || bit >= 8 {
            return false;
        }
        self.copies[copy][byte_offset as usize] ^= 1 << bit;
        true
    }
}

/// Bitwise majority of three equal-length copies, eight bytes at a time,
/// and the number of byte positions where the copies disagree.
fn tmr_vote(a: &[u8], b: &[u8], c: &[u8]) -> (Vec<u8>, u64) {
    /// One word's vote and its count of nonzero bytes in the disagreement
    /// mask (a byte's high bit is set after the add iff any bit was).
    fn vote(x: [u8; 8], y: [u8; 8], z: [u8; 8]) -> ([u8; 8], u64) {
        const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
        let [x, y, z] = [x, y, z].map(u64::from_le_bytes);
        let diff = (x ^ y) | (x ^ z);
        let nonzero = (((diff & LOW7) + LOW7) | diff) & !LOW7;
        (((x & y) | (x & z) | (y & z)).to_le_bytes(), u64::from(nonzero.count_ones()))
    }
    let word = |s: &[u8]| -> [u8; 8] { s.try_into().expect("8-byte chunk") };
    let mut out = Vec::with_capacity(a.len());
    let mut corrected = 0;
    let (aw, bw, cw) = (a.chunks_exact(8), b.chunks_exact(8), c.chunks_exact(8));
    let tail = [aw.remainder(), bw.remainder(), cw.remainder()];
    for ((x, y), z) in aw.zip(bw).zip(cw) {
        let (v, n) = vote(word(x), word(y), word(z));
        out.extend_from_slice(&v);
        corrected += n;
    }
    // the tail, zero-padded alike in every copy (padding never disagrees)
    let [x, y, z] = tail.map(|t| {
        let mut w = [0u8; 8];
        w[..t.len()].copy_from_slice(t);
        w
    });
    let (v, n) = vote(x, y, z);
    out.extend_from_slice(&v[..tail[0].len()]);
    (out, corrected + n)
}

/// Builds a complete flash image: BL1 stub, load list, payloads.
#[derive(Debug, Default)]
pub struct FlashImageBuilder {
    payloads: Vec<(u32, Vec<u8>)>,
    next_offset: u32,
}

impl FlashImageBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FlashImageBuilder {
            payloads: Vec::new(),
            next_offset: PAYLOAD_OFFSET,
        }
    }

    fn add_payload(&mut self, bytes: Vec<u8>) -> (u32, u32, u32) {
        let offset = self.next_offset;
        let size = bytes.len() as u32;
        let crc = crc32(&bytes);
        self.next_offset += size.div_ceil(256) * 256; // 256-byte alignment
        self.payloads.push((offset, bytes));
        (offset, size, crc)
    }

    /// Add a software image (machine words) deployed to `dest` and started
    /// at `entry` on core 0.
    pub fn add_software(&mut self, dest: u32, entry: u32, words: &[u32]) -> LoadEntry {
        self.add_software_on_core(dest, entry, 0, words)
    }

    /// Add a software image started on a specific core.
    pub fn add_software_on_core(
        &mut self,
        dest: u32,
        entry: u32,
        core: u8,
        words: &[u32],
    ) -> LoadEntry {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let (offset, size, crc) = self.add_payload(bytes);
        LoadEntry {
            kind: ImageKind::Software,
            offset,
            size,
            dest,
            entry,
            core,
            crc,
        }
    }

    /// Add a data image deployed to `dest` without starting anything.
    pub fn add_data(&mut self, dest: u32, bytes: &[u8]) -> LoadEntry {
        let (offset, size, crc) = self.add_payload(bytes.to_vec());
        LoadEntry {
            kind: ImageKind::Software,
            offset,
            size,
            dest,
            entry: 0,
            core: 0,
            crc,
        }
    }

    /// Add an eFPGA bitstream.
    pub fn add_bitstream(&mut self, bitstream: &Bitstream) -> LoadEntry {
        let bytes = bitstream.to_bytes();
        let (offset, size, crc) = self.add_payload(bytes);
        LoadEntry {
            kind: ImageKind::Bitstream,
            offset,
            size,
            dest: 0,
            entry: 0,
            core: 0,
            crc,
        }
    }

    /// Assemble the flash: a synthetic BL1 image at offset 0, the load list
    /// at [`LOADLIST_OFFSET`], payloads beyond.
    ///
    /// # Panics
    ///
    /// Panics if the payloads exceed the 8 MiB flash (test images are far
    /// smaller).
    pub fn build(self, list: &LoadList, mode: RedundancyMode) -> Flash {
        let size = (self.next_offset as usize + 0x1_0000).max(0x10_0000);
        let mut flash = Flash::new(size, mode);
        // synthetic BL1 binary: in this model BL1 is host code, but BL0
        // still fetches and integrity-checks a real blob
        let bl1_blob: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        let header = ImageHeader {
            size: bl1_blob.len() as u32,
            crc: crc32(&bl1_blob),
        };
        flash.program(0, &header.to_bytes()).expect("in range");
        flash
            .program(ImageHeader::BYTES, &bl1_blob)
            .expect("in range");
        flash
            .program(LOADLIST_OFFSET, &list.to_bytes())
            .expect("in range");
        for (offset, bytes) in &self.payloads {
            flash.program(*offset, bytes).expect("in range");
        }
        flash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmr_vote_corrects_single_copy_corruption() {
        let mut flash = Flash::new(1024, RedundancyMode::Tmr);
        flash.program(0, &[0xAA; 64]).unwrap();
        for bit in 0..8 {
            flash.flip_bit(1, 10, bit);
        }
        flash.flip_bit(2, 20, 3);
        let data = flash.read_redundant(0, 64).unwrap();
        assert!(data.iter().all(|&b| b == 0xAA), "voting repairs");
        assert_eq!(flash.corrected_bytes, 2);
    }

    #[test]
    fn double_copy_corruption_defeats_tmr() {
        let mut flash = Flash::new(256, RedundancyMode::Tmr);
        flash.program(0, &[0x00; 16]).unwrap();
        flash.flip_bit(0, 5, 1);
        flash.flip_bit(1, 5, 1); // same bit in two copies
        let data = flash.read_redundant(0, 16).unwrap();
        assert_eq!(data[5], 0x02, "majority is now wrong");
    }

    #[test]
    fn tmr_costs_three_reads() {
        let mut plain = Flash::new(1024, RedundancyMode::None);
        plain.program(0, &[1; 512]).unwrap();
        plain.read_redundant(0, 512).unwrap();
        let mut tmr = Flash::new(1024, RedundancyMode::Tmr);
        tmr.program(0, &[1; 512]).unwrap();
        tmr.read_redundant(0, 512).unwrap();
        assert_eq!(tmr.read_cycles, 3 * plain.read_cycles);
    }

    /// The byte-at-a-time vote over copied reads: the oracle.
    fn read_tmr_bytewise(flash: &mut Flash, offset: u32, len: u32) -> Result<Vec<u8>, BootError> {
        let a = flash.read_copy(0, offset, len)?;
        let b = flash.read_copy(1, offset, len)?;
        let c = flash.read_copy(2, offset, len)?;
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len as usize {
            let (x, y, z) = (a[i], b[i], c[i]);
            if !(x == y && y == z) {
                flash.corrected_bytes += 1;
            }
            out.push((x & y) | (x & z) | (y & z));
        }
        Ok(out)
    }

    #[test]
    fn word_vote_matches_bytewise_oracle() {
        const SIZE: usize = 1024;
        let mut rng = hermes_rtl::rng::DetRng::new(0x7312_0019);
        for case in 0..300 {
            let mut flash = Flash::new(SIZE, RedundancyMode::Tmr);
            flash.program(0, &rng.bytes(SIZE)).unwrap();
            // upsets in one, two or all three copies, clustered so that
            // some bytes are hit in several copies at once
            let copies_hit = 1 + case % 3;
            let base = rng.below(SIZE as u64 / 2) as u32;
            for copy in 0..copies_hit {
                for _ in 0..rng.range_u64(1, 12) {
                    let at = base + rng.below(32) as u32;
                    flash.flip_bit(copy, at, rng.below(8) as u8);
                }
            }
            let len = match case % 4 {
                0 => 0,
                1 => rng.range_u64(1, 8) as u32,
                2 => 8 * rng.range_u64(1, 20) as u32 + rng.range_u64(1, 8) as u32,
                _ => 8 * rng.range_u64(1, 40) as u32,
            };
            let offset = base.saturating_sub(rng.below(24) as u32) | 1;
            let mut oracle = flash.clone();
            let got = flash.read_redundant(offset, len).unwrap();
            let want = read_tmr_bytewise(&mut oracle, offset, len).unwrap();
            assert_eq!(got, want, "case {case}: offset {offset} len {len}");
            assert_eq!(flash.corrected_bytes, oracle.corrected_bytes, "case {case}");
            assert_eq!(flash.read_cycles, oracle.read_cycles, "case {case}");
        }
    }

    #[test]
    fn out_of_range_tmr_read_charges_nothing() {
        let mut flash = Flash::new(128, RedundancyMode::Tmr);
        for (offset, len) in [(121, 8), (0, 129), (128, 1)] {
            assert!(matches!(
                flash.read_redundant(offset, len),
                Err(BootError::FlashRange { .. })
            ));
        }
        assert_eq!(flash.read_cycles, 0);
        assert_eq!(flash.corrected_bytes, 0);
    }

    #[test]
    fn range_checks() {
        let mut flash = Flash::new(128, RedundancyMode::None);
        assert!(matches!(
            flash.read_redundant(100, 64),
            Err(BootError::FlashRange { .. })
        ));
        assert!(matches!(
            flash.program(120, &[0; 16]),
            Err(BootError::FlashRange { .. })
        ));
        assert!(!flash.flip_bit(0, 999, 0));
        assert!(!flash.flip_bit(5, 0, 0));
    }

    #[test]
    fn builder_lays_out_images() {
        let mut b = FlashImageBuilder::new();
        let e1 = b.add_software(0x4000_0000, 0x4000_0000, &[1, 2, 3]);
        let e2 = b.add_data(0x4100_0000, &[9; 300]);
        assert!(e2.offset > e1.offset);
        assert_eq!(e2.offset % 256, 0);
        let list = LoadList {
            entries: vec![e1.clone(), e2],
        };
        let mut flash = b.build(&list, RedundancyMode::Tmr);
        // load list parses back from flash
        let raw = flash
            .read_redundant(LOADLIST_OFFSET, list.to_bytes().len() as u32)
            .unwrap();
        let parsed = LoadList::from_bytes(&raw).unwrap();
        assert_eq!(parsed.entries.len(), 2);
        // payload CRC matches
        let payload = flash.read_redundant(e1.offset, e1.size).unwrap();
        assert_eq!(crc32(&payload), e1.crc);
    }

    #[test]
    fn image_header_roundtrip() {
        let h = ImageHeader {
            size: 4096,
            crc: 0xCAFEBABE,
        };
        let back = ImageHeader::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(back, h);
        assert!(ImageHeader::from_bytes(b"XXXXXXXXXXXX").is_err());
    }
}
