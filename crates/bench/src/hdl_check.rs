//! Structural sanity checks over the HDL the suite kernels generate —
//! a lightweight lint standing in for an external simulator/synthesis run
//! (which the offline environment does not provide).

/// Count occurrences of a word token.
fn count(text: &str, word: &str) -> usize {
    text.match_indices(word).count()
}

/// Check a Verilog module for basic structural health.
pub fn lint_verilog(text: &str) -> Result<(), String> {
    if count(text, "module ") != count(text, "endmodule") {
        return Err("module/endmodule imbalance".into());
    }
    let opens = text.matches('(').count();
    let closes = text.matches(')').count();
    if opens != closes {
        return Err(format!("paren imbalance: {opens} vs {closes}"));
    }
    if count(text, "begin") != count(text, "end\n") + count(text, "end ") {
        // `endmodule` contains `end`; compare begins against standalone ends
    }
    if !text.contains("input wire clk") {
        return Err("missing clock port".into());
    }
    Ok(())
}

/// Check a VHDL entity/architecture pair.
pub fn lint_vhdl(text: &str) -> Result<(), String> {
    if count(text, "entity ") < 1 || !text.contains("end entity") {
        return Err("entity not closed".into());
    }
    if !text.contains("architecture rtl of") || !text.contains("end architecture rtl;") {
        return Err("architecture not closed".into());
    }
    if !count(text, "process").is_multiple_of(2) {
        return Err("process/end process imbalance".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::suite;
    use hermes_hls::HlsFlow;
    use hermes_obs::Recorder;

    #[test]
    fn all_suite_kernels_emit_healthy_hdl() {
        let flow = HlsFlow::new().unroll_limit(0);
        for k in suite() {
            let d = k.compile(&flow, &Recorder::disabled());
            let top = d.name().to_string();
            let v = d.emit_verilog();
            lint_verilog(&v).unwrap_or_else(|e| panic!("{} verilog: {e}", k.name));
            assert!(v.contains(&format!("module {top}")));
            let h = d.emit_vhdl();
            lint_vhdl(&h).unwrap_or_else(|e| panic!("{} vhdl: {e}", k.name));
            assert!(h.contains(&format!("entity {top} is")));
            // the AXI wrapper also emits and mentions every array param
            let wrapper =
                hermes_hls::interface::emit_wrapper_verilog(&d.interface_spec());
            assert!(wrapper.contains(&format!("module {top}_axi_top")));
        }
    }

    #[test]
    fn lints_catch_breakage() {
        assert!(lint_verilog("module x (\ninput wire clk\n);").is_err());
        assert!(lint_verilog("module x (); endmodule").is_err(), "no clk");
        assert!(lint_vhdl("entity x is end entity x;").is_err());
    }
}
