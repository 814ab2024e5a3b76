//! Synthetic configuration bitstream.
//!
//! NG-ULTRA bitstreams are proprietary, so this module defines an open
//! stand-in with the properties the rest of the ecosystem needs: a device
//! check, per-frame CRC-32 integrity (the memory-integrity checking the
//! paper highlights as transparent to developers), and deterministic
//! generation from a placed design. The BL1 boot loader (`hermes-boot`)
//! programs the eFPGA by verifying and "loading" these bitstreams, and the
//! radiation campaigns (`hermes-rad`) flip bits in them to exercise the
//! detection path.

use crate::device::DeviceProfile;
use crate::place::Placement;
use crate::primitives::{PrimNetlist, Primitive};
use crate::FpgaError;

/// Magic bytes identifying a HERMES bitstream.
pub const MAGIC: [u8; 4] = *b"NXB1";

/// Payload bytes per configuration frame.
pub const FRAME_BYTES: usize = 64;

/// Standard IEEE 802.3 CRC-32 (reflected, polynomial 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb == 1 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// One configuration frame: payload plus its CRC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Configuration payload.
    pub payload: [u8; FRAME_BYTES],
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl Frame {
    /// Build a frame, computing its CRC.
    pub fn new(payload: [u8; FRAME_BYTES]) -> Self {
        Frame {
            crc: crc32(&payload),
            payload,
        }
    }

    /// Whether the stored CRC matches the payload.
    pub fn is_intact(&self) -> bool {
        crc32(&self.payload) == self.crc
    }
}

/// A complete device configuration image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Device the bitstream targets.
    pub device_name: String,
    /// Design name embedded in the header.
    pub design_name: String,
    /// Configuration frames.
    pub frames: Vec<Frame>,
}

impl Bitstream {
    /// Generate a bitstream from a mapped and placed design.
    ///
    /// Frame contents are a deterministic encoding of each primitive's
    /// configuration (kind, truth table) and site, so two runs of the same
    /// flow produce byte-identical bitstreams.
    pub fn generate(
        prim: &PrimNetlist,
        placement: &Placement,
        device: &DeviceProfile,
    ) -> Self {
        let mut payload_bytes: Vec<u8> = Vec::new();
        for (cid, cell) in prim.cells() {
            let (x, y) = placement.site(cid);
            payload_bytes.extend_from_slice(&x.to_le_bytes());
            payload_bytes.extend_from_slice(&y.to_le_bytes());
            match &cell.prim {
                Primitive::Lut4 { truth, used_inputs } => {
                    payload_bytes.push(0x01);
                    payload_bytes.extend_from_slice(&truth.to_le_bytes());
                    payload_bytes.push(*used_inputs);
                }
                Primitive::Carry => payload_bytes.push(0x02),
                Primitive::Dff { has_enable } => {
                    payload_bytes.push(0x03);
                    payload_bytes.push(u8::from(*has_enable));
                }
                Primitive::Dsp { width, pipelined } => {
                    payload_bytes.push(0x04);
                    payload_bytes.push(*width);
                    payload_bytes.push(u8::from(*pipelined));
                }
                Primitive::Ramb { depth, width } => {
                    payload_bytes.push(0x05);
                    payload_bytes.extend_from_slice(&depth.to_le_bytes());
                    payload_bytes.push(*width);
                }
                Primitive::IoPad { is_input } => {
                    payload_bytes.push(0x06);
                    payload_bytes.push(u8::from(*is_input));
                }
            }
        }
        let frames = payload_bytes
            .chunks(FRAME_BYTES)
            .map(|chunk| {
                let mut payload = [0u8; FRAME_BYTES];
                payload[..chunk.len()].copy_from_slice(chunk);
                Frame::new(payload)
            })
            .collect();
        Bitstream {
            device_name: device.name.clone(),
            design_name: prim.name.clone(),
            frames,
        }
    }

    /// Verify every frame's CRC.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BitstreamCorrupt`] with the index of the first
    /// failing frame.
    pub fn verify(&self) -> Result<(), FpgaError> {
        for (i, frame) in self.frames.iter().enumerate() {
            if !frame.is_intact() {
                return Err(FpgaError::BitstreamCorrupt { frame: i });
            }
        }
        Ok(())
    }

    /// Total size in bytes when serialized.
    pub fn size_bytes(&self) -> usize {
        // magic + name lengths + names + frame count + frames
        4 + 2
            + self.device_name.len()
            + 2
            + self.design_name.len()
            + 4
            + self.frames.len() * (FRAME_BYTES + 4)
    }

    /// Serialize to a byte vector (the format BL1 reads from flash).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.size_bytes());
        v.extend_from_slice(&MAGIC);
        v.extend_from_slice(&(self.device_name.len() as u16).to_le_bytes());
        v.extend_from_slice(self.device_name.as_bytes());
        v.extend_from_slice(&(self.design_name.len() as u16).to_le_bytes());
        v.extend_from_slice(self.design_name.as_bytes());
        v.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        for f in &self.frames {
            v.extend_from_slice(&f.payload);
            v.extend_from_slice(&f.crc.to_le_bytes());
        }
        v
    }

    /// Parse a serialized bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BitstreamMalformed`] for truncated or
    /// wrong-magic input. CRC validation is *not* performed here — call
    /// [`Bitstream::verify`] so that callers (like BL1) can distinguish
    /// malformed from corrupted images.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FpgaError> {
        let err = |detail: &str| FpgaError::BitstreamMalformed {
            detail: detail.into(),
        };
        if data.len() < 4 || data[..4] != MAGIC {
            return Err(err("bad magic"));
        }
        let mut pos = 4usize;
        let mut read = |n: usize, data: &[u8]| -> Result<usize, FpgaError> {
            if pos + n > data.len() {
                return Err(err("truncated"));
            }
            let start = pos;
            pos += n;
            Ok(start)
        };
        let s = read(2, data)?;
        let dn_len = u16::from_le_bytes([data[s], data[s + 1]]) as usize;
        let s = read(dn_len, data)?;
        let device_name = String::from_utf8_lossy(&data[s..s + dn_len]).into_owned();
        let s = read(2, data)?;
        let gn_len = u16::from_le_bytes([data[s], data[s + 1]]) as usize;
        let s = read(gn_len, data)?;
        let design_name = String::from_utf8_lossy(&data[s..s + gn_len]).into_owned();
        let s = read(4, data)?;
        let count =
            u32::from_le_bytes([data[s], data[s + 1], data[s + 2], data[s + 3]]) as usize;
        let mut frames = Vec::with_capacity(count);
        for _ in 0..count {
            let s = read(FRAME_BYTES, data)?;
            let mut payload = [0u8; FRAME_BYTES];
            payload.copy_from_slice(&data[s..s + FRAME_BYTES]);
            let s = read(4, data)?;
            let crc = u32::from_le_bytes([data[s], data[s + 1], data[s + 2], data[s + 3]]);
            frames.push(Frame { payload, crc });
        }
        Ok(Bitstream {
            device_name,
            design_name,
            frames,
        })
    }

    /// Flip a single payload bit (radiation-test hook). Returns `false` if
    /// the frame/bit coordinates are out of range.
    pub fn flip_bit(&mut self, frame: usize, bit: usize) -> bool {
        if let Some(f) = self.frames.get_mut(frame) {
            if bit < FRAME_BYTES * 8 {
                f.payload[bit / 8] ^= 1 << (bit % 8);
                return true;
            }
        }
        false
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

    fn sample() -> Bitstream {
        let mut nl = Netlist::new("bsdemo");
        let a = nl.add_input("a", 8);
        let b = nl.add_input("b", 8);
        let y = nl.add_net("y", 8);
        nl.add_cell("add", CellOp::Add, &[a, b], &[y]).unwrap();
        nl.mark_output(y);
        let dev = DeviceProfile::ng_medium_like();
        let prim = Synthesizer::new(dev.clone()).synthesize(&nl).unwrap().prim;
        let placement = Placer::new(dev.clone(), Effort::Zero, 1)
            .place(&prim, 1, 1, &Recorder::disabled())
            .unwrap();
        Bitstream::generate(&prim, &placement, &dev)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn generated_bitstream_verifies() {
        let bs = sample();
        assert!(!bs.frames.is_empty());
        bs.verify().expect("fresh bitstream is intact");
    }

    #[test]
    fn roundtrip_serialization() {
        let bs = sample();
        let bytes = bs.to_bytes();
        assert_eq!(bytes.len(), bs.size_bytes());
        let back = Bitstream::from_bytes(&bytes).unwrap();
        assert_eq!(back, bs);
    }

    #[test]
    fn bit_flip_detected() {
        let mut bs = sample();
        assert!(bs.flip_bit(0, 13));
        let err = bs.verify().unwrap_err();
        assert!(matches!(err, FpgaError::BitstreamCorrupt { frame: 0 }));
    }

    #[test]
    fn double_flip_restores() {
        let mut bs = sample();
        bs.flip_bit(1, 7);
        bs.flip_bit(1, 7);
        bs.verify().expect("double flip restores the payload");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            Bitstream::from_bytes(b"XXXX"),
            Err(FpgaError::BitstreamMalformed { .. })
        ));
        let bs = sample();
        let bytes = bs.to_bytes();
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(
            Bitstream::from_bytes(truncated),
            Err(FpgaError::BitstreamMalformed { .. })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sample().to_bytes();
        let b = sample().to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_flip_is_noop() {
        let mut bs = sample();
        let n = bs.frames.len();
        assert!(!bs.flip_bit(n + 5, 0));
        assert!(!bs.flip_bit(0, FRAME_BYTES * 8));
        bs.verify().unwrap();
    }
}
