//! Parameterizable RTL component templates.
//!
//! Each [`ComponentTemplate`] describes a generic library unit (an adder, a
//! multiplier, a true dual-port RAM, …) specialized by operand bit-widths and
//! pipeline depth — exactly the specialization axes the paper's Eucalyptus
//! characterizer sweeps. Templates carry a behavioural model
//! ([`ComponentTemplate::evaluate`]) used by the cycle simulator and a
//! structural footprint used by downstream logic synthesis.

use crate::{mask, sign_extend, RtlError};
use std::fmt;

/// The kind of a library component, before specialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// Two's-complement adder.
    Adder,
    /// Two's-complement subtractor.
    Subtractor,
    /// Unsigned/two's-complement multiplier (low half of the product).
    Multiplier,
    /// Unsigned divider (quotient).
    Divider,
    /// Unsigned remainder unit.
    Modulo,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOT (single operand).
    Not,
    /// Logical left shift.
    ShiftLeft,
    /// Logical right shift.
    ShiftRightLogical,
    /// Arithmetic right shift.
    ShiftRightArith,
    /// Comparator producing a 1-bit result.
    Comparator(Comparison),
    /// Two-input multiplexer (select, a, b).
    Mux,
    /// Clocked register with optional enable/reset.
    Register,
    /// True dual-port synchronous RAM (as on the NG-ULTRA fabric).
    RamTdp,
    /// Single-port synchronous ROM.
    Rom,
    /// Constant driver.
    Constant,
    /// Zero- or sign-extension / truncation unit.
    Resize,
}

impl ComponentKind {
    /// All specializable kinds, in a stable order (used by characterization sweeps).
    pub fn all() -> &'static [ComponentKind] {
        use ComponentKind::*;
        &[
            Adder,
            Subtractor,
            Multiplier,
            Divider,
            Modulo,
            And,
            Or,
            Xor,
            Not,
            ShiftLeft,
            ShiftRightLogical,
            ShiftRightArith,
            Comparator(Comparison::Eq),
            Comparator(Comparison::Ne),
            Comparator(Comparison::LtU),
            Comparator(Comparison::LtS),
            Comparator(Comparison::GeU),
            Comparator(Comparison::GeS),
            Mux,
            Register,
            RamTdp,
            Rom,
            Constant,
            Resize,
        ]
    }

    /// Short lowercase mnemonic used in generated HDL identifiers.
    pub fn mnemonic(self) -> &'static str {
        use ComponentKind::*;
        match self {
            Adder => "add",
            Subtractor => "sub",
            Multiplier => "mul",
            Divider => "div",
            Modulo => "mod",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            ShiftLeft => "shl",
            ShiftRightLogical => "shrl",
            ShiftRightArith => "shra",
            Comparator(Comparison::Eq) => "cmpeq",
            Comparator(Comparison::Ne) => "cmpne",
            Comparator(Comparison::LtU) => "cmpltu",
            Comparator(Comparison::LtS) => "cmplts",
            Comparator(Comparison::GeU) => "cmpgeu",
            Comparator(Comparison::GeS) => "cmpges",
            Mux => "mux",
            Register => "reg",
            RamTdp => "ram_tdp",
            Rom => "rom",
            Constant => "const",
            Resize => "resize",
        }
    }
}

impl fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicate of a [`ComponentKind::Comparator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Comparison {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Signed less-than.
    LtS,
    /// Unsigned greater-or-equal.
    GeU,
    /// Signed greater-or-equal.
    GeS,
}

impl Comparison {
    /// Apply the predicate to two operands of the given width.
    pub fn apply(self, a: u64, b: u64, width: u32) -> bool {
        let (a, b) = (mask(a, width), mask(b, width));
        match self {
            Comparison::Eq => a == b,
            Comparison::Ne => a != b,
            Comparison::LtU => a < b,
            Comparison::GeU => a >= b,
            Comparison::LtS => sign_extend(a, width) < sign_extend(b, width),
            Comparison::GeS => sign_extend(a, width) >= sign_extend(b, width),
        }
    }
}

/// A library component specialized by operand widths and pipeline stages.
///
/// This is the unit of characterization: the paper's Eucalyptus tool
/// synthesizes "different configurations of library components … obtained by
/// specializing a generic template … according to the bit widths of its input
/// and output arguments, and to the number of pipeline stages".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ComponentTemplate {
    /// The generic kind being specialized.
    pub kind: ComponentKind,
    /// Input operand width in bits (1..=64).
    pub input_width: u32,
    /// Output width in bits (1..=64).
    pub output_width: u32,
    /// Number of internal pipeline register stages (0 = combinational).
    pub pipeline_stages: u32,
}

impl ComponentTemplate {
    /// Create a template with equal input/output widths and no pipelining.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnsupportedWidth`] for widths of 0 or above 64.
    pub fn new(kind: ComponentKind, width: u32) -> Result<Self, RtlError> {
        Self::with_widths(kind, width, width, 0)
    }

    /// Create a fully specialized template.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnsupportedWidth`] for widths of 0 or above 64.
    pub fn with_widths(
        kind: ComponentKind,
        input_width: u32,
        output_width: u32,
        pipeline_stages: u32,
    ) -> Result<Self, RtlError> {
        for &w in &[input_width, output_width] {
            if w == 0 || w > 64 {
                return Err(RtlError::UnsupportedWidth { width: w });
            }
        }
        Ok(ComponentTemplate {
            kind,
            input_width,
            output_width,
            pipeline_stages,
        })
    }

    /// A stable unique name for this specialization, e.g. `mul_32_32_p2`.
    pub fn instance_name(&self) -> String {
        format!(
            "{}_{}_{}_p{}",
            self.kind.mnemonic(),
            self.input_width,
            self.output_width,
            self.pipeline_stages
        )
    }

    /// Number of data input operands the component consumes.
    pub fn input_arity(&self) -> usize {
        use ComponentKind::*;
        match self.kind {
            Not | Resize | Register | Rom => 1,
            Mux => 3,
            Constant => 0,
            RamTdp => 6, // addr_a, data_a, we_a, addr_b, data_b, we_b
            _ => 2,
        }
    }

    /// Evaluate the combinational function of the component.
    ///
    /// Storage components ([`ComponentKind::Register`], RAM, ROM) are handled
    /// by the simulator's sequential phase, not here.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Self::input_arity`]. Divide by
    /// zero yields an all-ones result (matching typical hardware dividers).
    pub fn evaluate(&self, inputs: &[u64]) -> u64 {
        assert_eq!(
            inputs.len(),
            self.input_arity(),
            "component {} expects {} inputs",
            self.instance_name(),
            self.input_arity()
        );
        let w = self.input_width;
        let ow = self.output_width;
        let m = |v| mask(v, w);
        use ComponentKind::*;
        let raw = match self.kind {
            Adder => m(inputs[0]).wrapping_add(m(inputs[1])),
            Subtractor => m(inputs[0]).wrapping_sub(m(inputs[1])),
            Multiplier => m(inputs[0]).wrapping_mul(m(inputs[1])),
            Divider => {
                // division by zero yields all-ones, matching the RTL model
                m(inputs[0]).checked_div(m(inputs[1])).unwrap_or(u64::MAX)
            }
            Modulo => {
                let d = m(inputs[1]);
                if d == 0 {
                    m(inputs[0])
                } else {
                    m(inputs[0]) % d
                }
            }
            And => inputs[0] & inputs[1],
            Or => inputs[0] | inputs[1],
            Xor => inputs[0] ^ inputs[1],
            Not => !m(inputs[0]),
            ShiftLeft => {
                let sh = mask(inputs[1], w).min(63) as u32;
                m(inputs[0]) << sh
            }
            ShiftRightLogical => {
                let sh = mask(inputs[1], w).min(63) as u32;
                m(inputs[0]) >> sh
            }
            ShiftRightArith => {
                let sh = mask(inputs[1], w).min(63) as u32;
                (sign_extend(inputs[0], w) >> sh) as u64
            }
            Comparator(c) => c.apply(inputs[0], inputs[1], w) as u64,
            Mux => {
                if mask(inputs[0], 1) != 0 {
                    m(inputs[2])
                } else {
                    m(inputs[1])
                }
            }
            Resize => sign_extend(inputs[0], w) as u64,
            Register | RamTdp | Rom | Constant => inputs.first().copied().unwrap_or(0),
        };
        mask(raw, ow)
    }
}

impl fmt::Display for ComponentTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.instance_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(kind: ComponentKind, w: u32) -> ComponentTemplate {
        ComponentTemplate::new(kind, w).expect("valid width")
    }

    #[test]
    fn adder_wraps_at_width() {
        let add = t(ComponentKind::Adder, 8);
        assert_eq!(add.evaluate(&[250, 10]), 4);
        assert_eq!(add.evaluate(&[1, 2]), 3);
    }

    #[test]
    fn subtractor_wraps() {
        let sub = t(ComponentKind::Subtractor, 8);
        assert_eq!(sub.evaluate(&[3, 5]), 254);
    }

    #[test]
    fn multiplier_truncates() {
        let mul = t(ComponentKind::Multiplier, 8);
        assert_eq!(mul.evaluate(&[16, 16]), 0); // 256 truncated to 8 bits
        assert_eq!(mul.evaluate(&[15, 15]), 225);
    }

    #[test]
    fn divider_by_zero_is_all_ones() {
        let div = t(ComponentKind::Divider, 8);
        assert_eq!(div.evaluate(&[5, 0]), 0xFF);
        assert_eq!(div.evaluate(&[100, 7]), 14);
    }

    #[test]
    fn modulo_by_zero_is_dividend() {
        let md = t(ComponentKind::Modulo, 8);
        assert_eq!(md.evaluate(&[5, 0]), 5);
        assert_eq!(md.evaluate(&[100, 7]), 2);
    }

    #[test]
    fn signed_comparison() {
        let lt = t(ComponentKind::Comparator(Comparison::LtS), 8);
        // -1 < 1 signed
        assert_eq!(lt.evaluate(&[0xFF, 1]), 1);
        let ltu = t(ComponentKind::Comparator(Comparison::LtU), 8);
        assert_eq!(ltu.evaluate(&[0xFF, 1]), 0);
    }

    #[test]
    fn arithmetic_shift_preserves_sign() {
        let shra = t(ComponentKind::ShiftRightArith, 8);
        assert_eq!(shra.evaluate(&[0x80, 1]), 0xC0);
        let shrl = t(ComponentKind::ShiftRightLogical, 8);
        assert_eq!(shrl.evaluate(&[0x80, 1]), 0x40);
    }

    #[test]
    fn mux_selects() {
        let mux = t(ComponentKind::Mux, 8);
        assert_eq!(mux.evaluate(&[0, 11, 22]), 11);
        assert_eq!(mux.evaluate(&[1, 11, 22]), 22);
    }

    #[test]
    fn shift_amount_saturates() {
        let shl = t(ComponentKind::ShiftLeft, 8);
        // shift by 200 masked to width then clamped; must not panic
        let _ = shl.evaluate(&[1, 200]);
    }

    #[test]
    fn width_validation() {
        assert!(ComponentTemplate::new(ComponentKind::Adder, 0).is_err());
        assert!(ComponentTemplate::new(ComponentKind::Adder, 65).is_err());
        assert!(ComponentTemplate::new(ComponentKind::Adder, 64).is_ok());
    }

    #[test]
    fn instance_names_are_unique_per_specialization() {
        use std::collections::HashSet;
        let mut names = HashSet::new();
        for &k in ComponentKind::all() {
            for w in [1u32, 8, 16, 32, 64] {
                for p in 0..3 {
                    let c = ComponentTemplate::with_widths(k, w, w, p).expect("valid");
                    assert!(names.insert(c.instance_name()), "duplicate {}", c);
                }
            }
        }
    }

    #[test]
    fn resize_sign_extends() {
        let r = ComponentTemplate::with_widths(ComponentKind::Resize, 4, 8, 0).expect("valid");
        assert_eq!(r.evaluate(&[0xF]), 0xFF);
        assert_eq!(r.evaluate(&[0x7]), 0x07);
    }
}
