//! SpaceWire link model and the remote boot protocol.
//!
//! BL0/BL1 can fetch the boot chain "remotely from the SpaceWire bus"
//! (Section IV) following "a custom protocol". The model provides a
//! packet-level link (with CRC-protected payloads, configurable bandwidth,
//! and an error-injection hook) and a simple file-serving remote node: the
//! boot side requests a named object, the remote answers with data packets.

use crate::BootError;
use hermes_fpga::bitstream::crc32;
use std::collections::HashMap;

/// Payload bytes per SpaceWire data packet.
pub const PACKET_PAYLOAD: usize = 256;

/// Cycles to transfer one packet (SpaceWire is serial and slower than
/// local flash; ~0.5 byte/cycle plus per-packet overhead).
pub const CYCLES_PER_PACKET: u64 = (PACKET_PAYLOAD as u64) * 2 + 40;

/// Retransmissions allowed per corrupt packet before the fetch fails.
pub const RETRY_BUDGET: u32 = 3;

/// One link packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Logical address of the target node.
    pub target: u8,
    /// Sequence number within a transfer.
    pub sequence: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl Packet {
    /// Build a packet with a valid CRC.
    pub fn new(target: u8, sequence: u16, payload: Vec<u8>) -> Self {
        Packet {
            target,
            sequence,
            crc: crc32(&payload),
            payload,
        }
    }

    /// Whether the payload matches the CRC.
    pub fn is_intact(&self) -> bool {
        crc32(&self.payload) == self.crc
    }
}

/// An in-flight bit error scheduled against an object's transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InjectedFault {
    object: String,
    packet: usize,
    bit: usize,
    /// How many more serves of the object this fault corrupts.
    remaining: u32,
}

/// The remote node serving boot objects over the link.
#[derive(Debug, Clone, Default)]
pub struct RemoteNode {
    objects: HashMap<String, Vec<u8>>,
    faults: Vec<InjectedFault>,
}

impl RemoteNode {
    /// An empty node.
    pub fn new() -> Self {
        RemoteNode::default()
    }

    /// Publish an object (e.g. `"loadlist"`, `"image:0"`).
    pub fn publish(&mut self, name: impl Into<String>, data: Vec<u8>) {
        self.objects.insert(name.into(), data);
    }

    /// Inject a single bit error into packet `packet` of the next transfer
    /// of `object` (corrupts exactly one serve).
    pub fn inject_fault(&mut self, object: impl Into<String>, packet: usize, bit: usize) {
        self.inject_persistent_fault(object, packet, bit, 1);
    }

    /// Inject a bit error that corrupts packet `packet` of the next
    /// `repeats` consecutive serves of `object` — a noisy-link model that
    /// lets tests probe the retransmission budget: a fetch serves the
    /// object once plus up to 3 retries, so `repeats <= 3` recovers and
    /// `repeats >= 4` exhausts the budget.
    pub fn inject_persistent_fault(
        &mut self,
        object: impl Into<String>,
        packet: usize,
        bit: usize,
        repeats: u32,
    ) {
        if repeats == 0 {
            return;
        }
        self.faults.push(InjectedFault {
            object: object.into(),
            packet,
            bit,
            remaining: repeats,
        });
    }

    fn serve(&mut self, name: &str) -> Option<Vec<Packet>> {
        let data = self.objects.get(name)?.clone();
        let mut packets: Vec<Packet> = data
            .chunks(PACKET_PAYLOAD)
            .enumerate()
            .map(|(i, chunk)| Packet::new(0, i as u16, chunk.to_vec()))
            .collect();
        // apply any injected faults for this object (post-CRC: corruption
        // in flight), each persisting for its remaining serve count
        for fault in self.faults.iter_mut().filter(|f| f.object == name) {
            fault.remaining -= 1;
            if let Some(pkt) = packets.get_mut(fault.packet) {
                let byte = fault.bit / 8;
                if byte < pkt.payload.len() {
                    pkt.payload[byte] ^= 1 << (fault.bit % 8);
                }
            }
        }
        self.faults.retain(|f| f.remaining > 0);
        Some(packets)
    }
}

/// The boot-side link endpoint.
#[derive(Debug, Clone, Default)]
pub struct SpaceWireLink {
    /// The remote node.
    pub remote: RemoteNode,
    /// Cycles consumed on the link.
    pub cycles: u64,
    /// Packets retransmitted after CRC failures.
    pub retransmissions: u64,
}

impl SpaceWireLink {
    /// A link to a fresh remote node.
    pub fn new(remote: RemoteNode) -> Self {
        SpaceWireLink {
            remote,
            cycles: 0,
            retransmissions: 0,
        }
    }

    /// Fetch a named object, verifying per-packet CRCs and retransmitting
    /// corrupt packets (up to [`RETRY_BUDGET`] attempts each).
    ///
    /// # Errors
    ///
    /// Returns [`BootError::SpaceWire`] if the object is unknown or a
    /// packet stays corrupt after the retry budget.
    pub fn fetch(&mut self, name: &str) -> Result<Vec<u8>, BootError> {
        let packets = self
            .remote
            .serve(name)
            .ok_or_else(|| BootError::SpaceWire {
                detail: format!("remote has no object `{name}`"),
            })?;
        let mut out = Vec::new();
        for (i, pkt) in packets.iter().enumerate() {
            self.cycles += CYCLES_PER_PACKET;
            if pkt.is_intact() {
                out.extend_from_slice(&pkt.payload);
                continue;
            }
            // retransmission loop: re-serve the object, take packet i
            let mut repaired = false;
            for _ in 0..RETRY_BUDGET {
                self.retransmissions += 1;
                self.cycles += CYCLES_PER_PACKET;
                let again = self.remote.serve(name).ok_or_else(|| BootError::SpaceWire {
                    detail: format!("remote lost object `{name}`"),
                })?;
                if let Some(p) = again.get(i) {
                    if p.is_intact() {
                        out.extend_from_slice(&p.payload);
                        repaired = true;
                        break;
                    }
                }
            }
            if !repaired {
                return Err(BootError::SpaceWire {
                    detail: format!("packet {i} of `{name}` unrecoverable"),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_roundtrip() {
        let mut remote = RemoteNode::new();
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        remote.publish("img", data.clone());
        let mut link = SpaceWireLink::new(remote);
        let got = link.fetch("img").unwrap();
        assert_eq!(got, data);
        assert!(link.cycles >= 4 * CYCLES_PER_PACKET);
        assert_eq!(link.retransmissions, 0);
    }

    #[test]
    fn corrupt_packet_retransmitted() {
        let mut remote = RemoteNode::new();
        remote.publish("img", vec![7u8; 600]);
        remote.inject_fault("img", 1, 13);
        let mut link = SpaceWireLink::new(remote);
        let got = link.fetch("img").unwrap();
        assert_eq!(got, vec![7u8; 600]);
        assert!(link.retransmissions >= 1);
    }

    #[test]
    fn corruption_just_under_budget_recovers() {
        // The first serve plus `RETRY_BUDGET` retries are available; a
        // fault persisting for exactly RETRY_BUDGET serves leaves the last
        // retry clean.
        let mut remote = RemoteNode::new();
        remote.publish("img", vec![3u8; 700]);
        remote.inject_persistent_fault("img", 2, 5, RETRY_BUDGET);
        let mut link = SpaceWireLink::new(remote);
        let got = link.fetch("img").unwrap();
        assert_eq!(got, vec![3u8; 700]);
        assert_eq!(link.retransmissions, u64::from(RETRY_BUDGET));
    }

    #[test]
    fn corruption_beyond_budget_is_unrecoverable() {
        let mut remote = RemoteNode::new();
        remote.publish("img", vec![3u8; 700]);
        remote.inject_persistent_fault("img", 2, 5, RETRY_BUDGET + 1);
        let mut link = SpaceWireLink::new(remote);
        let err = link.fetch("img").unwrap_err();
        match err {
            BootError::SpaceWire { detail } => {
                assert!(detail.contains("unrecoverable"), "got: {detail}");
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(link.retransmissions, u64::from(RETRY_BUDGET));
    }

    #[test]
    fn persistent_faults_on_different_packets_are_independent() {
        let mut remote = RemoteNode::new();
        remote.publish("img", vec![9u8; 1024]);
        remote.inject_persistent_fault("img", 0, 3, 2);
        remote.inject_persistent_fault("img", 3, 7, 1);
        let mut link = SpaceWireLink::new(remote);
        let got = link.fetch("img").unwrap();
        assert_eq!(got, vec![9u8; 1024]);
        assert!(link.retransmissions >= 2);
    }

    #[test]
    fn unknown_object_fails() {
        let mut link = SpaceWireLink::new(RemoteNode::new());
        assert!(matches!(
            link.fetch("nope"),
            Err(BootError::SpaceWire { .. })
        ));
    }

    #[test]
    fn packet_crc_detects_tamper() {
        let mut p = Packet::new(0, 0, vec![1, 2, 3]);
        assert!(p.is_intact());
        p.payload[1] ^= 0x80;
        assert!(!p.is_intact());
    }
}
