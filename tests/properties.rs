//! Property-based tests over the ecosystem's core invariants, driven by
//! the repo's deterministic seeded PRNG (`DetRng`) so the suite stays
//! hermetic — no external dependencies, byte-identical runs.

use hermes::axi::master::AxiMaster;
use hermes::axi::memory::MemoryTiming;
use hermes::axi::testbench::AxiTestbench;
use hermes::fpga::bitstream::crc32;
use hermes::hls::HlsFlow;
use hermes::rad::edac;
use hermes::rad::tmr::TmrWord;
use hermes::rtl::rng::DetRng;
use hermes::rtl::sim::Simulator;

/// CRC-32 detects any single-bit corruption of any payload.
#[test]
fn crc32_detects_single_bitflips() {
    let mut rng = DetRng::new(0xC2C1);
    for _ in 0..64 {
        let len = rng.range_u64(1, 256) as usize;
        let mut data = rng.bytes(len);
        let clean = crc32(&data);
        let idx = rng.below(data.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        data[idx] ^= 1 << bit;
        assert_ne!(clean, crc32(&data));
    }
}

/// SECDED corrects any single-bit error on any data word, at any code
/// position.
#[test]
fn edac_corrects_any_single_error() {
    let mut rng = DetRng::new(0xC2C2);
    for _ in 0..64 {
        let data = rng.next_u32();
        let bit = rng.below(u64::from(edac::CODE_BITS)) as u32;
        let code = edac::encode(data) ^ (1u64 << bit);
        match edac::decode(code) {
            edac::Decode::Corrected(v) => assert_eq!(v, data),
            other => panic!("expected correction, got {other:?}"),
        }
    }
}

/// SECDED never silently miscorrects a double-bit error.
#[test]
fn edac_flags_any_double_error() {
    let mut rng = DetRng::new(0xC2C3);
    for _ in 0..64 {
        let data = rng.next_u32();
        let b1 = rng.below(u64::from(edac::CODE_BITS)) as u32;
        let b2 = rng.below(u64::from(edac::CODE_BITS)) as u32;
        if b1 == b2 {
            continue;
        }
        let code = edac::encode(data) ^ (1u64 << b1) ^ (1u64 << b2);
        assert_eq!(edac::decode(code), edac::Decode::DoubleError);
    }
}

/// TMR masks any set of upsets confined to one copy.
#[test]
fn tmr_masks_single_copy_damage() {
    let mut rng = DetRng::new(0xC2C4);
    for _ in 0..64 {
        let value = rng.next_u32();
        let copy = rng.below(3) as usize;
        let mut w = TmrWord::new(value);
        for _ in 0..rng.range_u64(1, 8) {
            w.flip_bit(copy, rng.below(32) as u32);
        }
        assert_eq!(w.read(), value);
    }
}

/// The AXI master's burst plans cover exactly the requested bytes, with
/// every burst legal (the constructor validates 4K crossings etc.).
#[test]
fn axi_plans_cover_request() {
    let mut rng = DetRng::new(0xC2C5);
    for _ in 0..64 {
        let addr = rng.below(1_000_000);
        let len = rng.range_u64(1, 5000) as usize;
        let mut m = AxiMaster::new(8);
        let plans = m.plan_read(addr, len).expect("plan is legal");
        let total: usize = plans.iter().map(|p| p.take).sum();
        assert_eq!(total, len);
        // chunks are contiguous
        let mut cursor = addr;
        for p in &plans {
            let start = p.burst.beat_addr(0) + p.skip as u64;
            assert_eq!(start, cursor);
            cursor += p.take as u64;
        }
    }
}

/// Bus-level writes followed by reads return the written data for any
/// alignment and length.
#[test]
fn axi_memory_roundtrip() {
    let mut rng = DetRng::new(0xC2C6);
    for _ in 0..64 {
        let addr = rng.below(3000);
        let len = rng.range_u64(1, 300) as usize;
        let data = rng.bytes(len);
        let mut tb = AxiTestbench::new(8192, MemoryTiming::ideal());
        tb.write_blocking(addr, &data).expect("write");
        let (back, _) = tb.read_blocking(addr, data.len()).expect("read");
        assert_eq!(back, data);
        assert!(tb.violations().is_empty());
    }
}

/// The load-list binary format round-trips arbitrary entries and
/// detects any single-bit corruption.
#[test]
fn loadlist_roundtrip_and_integrity() {
    use hermes::boot::loadlist::{ImageKind, LoadEntry, LoadList};
    let mut rng = DetRng::new(0xC2C7);
    for _ in 0..64 {
        let offsets: Vec<u32> = (0..rng.below(6)).map(|_| rng.next_u32()).collect();
        let list = LoadList {
            entries: offsets
                .iter()
                .enumerate()
                .map(|(i, &o)| LoadEntry {
                    kind: if i % 2 == 0 {
                        ImageKind::Software
                    } else {
                        ImageKind::Bitstream
                    },
                    offset: o,
                    size: o.wrapping_mul(3),
                    dest: o ^ 0xFFFF,
                    entry: o.wrapping_add(1),
                    core: (i % 4) as u8,
                    crc: o.wrapping_mul(7),
                })
                .collect(),
        };
        let bytes = list.to_bytes();
        assert_eq!(LoadList::from_bytes(&bytes).expect("parses"), list);
        let mut corrupt = bytes.clone();
        let idx = rng.below(corrupt.len() as u64) as usize;
        corrupt[idx] ^= 1 << (rng.below(8) as u8);
        // any flip must either fail to parse or parse to different content
        // (the manifest CRC makes silent acceptance impossible)
        if let Ok(parsed) = LoadList::from_bytes(&corrupt) {
            assert!(parsed != LoadList::from_bytes(&bytes).expect("parses"));
        }
    }
}

/// For randomized straight-line integer expressions, the HLS
/// co-simulation, the structural-netlist simulation, and the C-like
/// reference semantics all agree.
#[test]
fn hls_netlist_reference_agree() {
    type Ref3 = fn(i64, i64, i64) -> i64;
    let mut rng = DetRng::new(0xC2C8);
    let flow = HlsFlow::new();
    for case in 0..12usize {
        let a = rng.range_i64(-1000, 1000);
        let b = rng.range_i64(-1000, 1000);
        let c1 = rng.range_i64(1, 64);
        let op_sel = case % 5;
        let (op, reference): (&str, Ref3) = match op_sel {
            0 => ("+", |a, b, c| (a + b + c) as i32 as i64),
            1 => ("-", |a, b, c| (a - b - c) as i32 as i64),
            2 => ("*", |a, b, c| ((a * b) as i32 as i64 * c) as i32 as i64),
            3 => ("&", |a, b, c| a & b & c),
            _ => ("^", |a, b, c| a ^ b ^ c),
        };
        let src = format!("int f(int a, int b) {{ return (a {op} b) {op} {c1}; }}");
        let design = flow.compile(&src).expect("compiles");
        let sim = design.simulate(&[a, b]).expect("simulates");
        let want = reference(a, b, c1);
        assert_eq!(sim.return_value, Some(want), "co-sim for {src}");
        // structural netlist agrees
        let mut ns = Simulator::new(design.netlist()).expect("valid");
        ns.reset();
        ns.poke("arg_a", a as u64).expect("a");
        ns.poke("arg_b", b as u64).expect("b");
        ns.run_until(sim.states_visited * 3 + 32, |s| {
            s.peek("done").expect("done") == 1
        })
        .expect("runs")
        .expect("finishes");
        assert_eq!(
            ns.peek("ret_q").expect("ret"),
            (want as u64) & 0xFFFF_FFFF,
            "netlist for {src}"
        );
    }
}

/// Scheduling under a minimal allocation never runs faster than under
/// the default allocation, and both compute the same values.
#[test]
fn allocation_monotonicity() {
    use hermes::hls::allocate::Allocation;
    let src = "int f(int a, int b) {
        return a * b + (a - b) * (a + b) + a * 3 + b * 5; }";
    let flow = HlsFlow::new();
    let fast = flow.compile(src).expect("compiles");
    // a clone taken after the first compile shares its library
    let slow = flow
        .clone()
        .allocation(Allocation::minimal())
        .compile(src)
        .expect("compiles");
    let mut rng = DetRng::new(0xC2C9);
    for _ in 0..12 {
        let x = rng.range_i64(0, 500);
        let y = rng.range_i64(1, 500);
        let rf = fast.simulate(&[x, y]).expect("fast sim");
        let rs = slow.simulate(&[x, y]).expect("slow sim");
        assert_eq!(rf.return_value, rs.return_value);
        assert!(rs.cycles >= rf.cycles);
    }
}

/// Assembler/disassembler agreement: every assembled instruction
/// decodes back to text that re-assembles to the same word.
#[test]
fn isa_reassembly_fixpoint() {
    use hermes::cpu::isa::{assemble, disassemble};
    let mut rng = DetRng::new(0xC2CA);
    for _ in 0..24 {
        let rd = rng.below(16);
        let rs1 = rng.below(16);
        let rs2 = rng.below(16);
        let imm = rng.range_i64(-500, 500);
        let programs = [
            format!("add r{rd}, r{rs1}, r{rs2}"),
            format!("addi r{rd}, r{rs1}, {imm}"),
            format!("lw r{rd}, {imm}(r{rs1})"),
            format!("sw r{rd}, {imm}(r{rs1})"),
        ];
        for p in &programs {
            let w1 = assemble(p).expect("assembles")[0];
            let text = disassemble(w1);
            let w2 = assemble(&text).expect("reassembles")[0];
            assert_eq!(w1, w2, "fixpoint for `{p}` -> `{text}`");
        }
    }
}

/// The cyclic plan locator always returns an in-range slot whose offset
/// is within the slot duration.
#[test]
fn plan_locate_in_range() {
    use hermes::xng::config::{Plan, Slot};
    use hermes::xng::PartitionId;
    let mut rng = DetRng::new(0xC2CB);
    for _ in 0..24 {
        let durations: Vec<u64> = (0..rng.range_u64(1, 8))
            .map(|_| rng.range_u64(1, 10_000))
            .collect();
        let time = rng.next_u64();
        let plan = Plan::new(
            durations
                .iter()
                .enumerate()
                .map(|(i, &d)| Slot::new(PartitionId(i as u32), d))
                .collect(),
        );
        let (idx, off) = plan
            .locate(time % (plan.major_frame() * 3))
            .expect("nonempty plan");
        assert!(idx < durations.len());
        assert!(off < durations[idx]);
    }
}
