//! E6 — Boot sequence timing and recovery (Fig. 5, Section IV).
//!
//! Stage-by-stage cycle breakdown of the BL0→BL1→application sequence from
//! flash and from SpaceWire; redundancy-mode ablation under injected flash
//! corruption.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_boot::bl1::{Bl1, BootSource};
use hermes_boot::flash::{Flash, FlashImageBuilder, RedundancyMode};
use hermes_boot::loadlist::LoadList;
use hermes_cpu::isa::assemble;
use hermes_cpu::memmap::layout;

fn mission_flash(mode: RedundancyMode) -> (Flash, LoadList) {
    let app = assemble("addi r1, r0, 7\nhalt").expect("asm");
    let mut b = FlashImageBuilder::new();
    let payload: Vec<u8> = (0..2048u32).flat_map(|v| v.to_le_bytes()).collect();
    let e1 = b.add_data(layout::DDR_BASE + 0x10_0000, &payload);
    let e2 = b.add_software(layout::DDR_BASE, layout::DDR_BASE, &app);
    let list = LoadList {
        entries: vec![e1, e2],
    };
    let flash = b.build(&list, mode);
    (flash, list)
}

/// Run E6 with a flight recorder: the flash and SpaceWire boot timelines
/// export one `Boot`-clocked span per BL1 stage (under `boot.flash` and
/// `boot.spw`) plus the recovery counters of each [`BootReport`]. E6
/// runs serially, so `jobs` is unused.
///
/// [`BootReport`]: hermes_boot::report::BootReport
pub fn run(_jobs: usize, obs: &hermes_obs::Recorder) -> ExperimentOutput {
    // stage breakdown, flash vs spacewire
    let mut a = Table::new(&["stage", "flash_cycles", "spw_cycles"]);
    let (flash, list) = mission_flash(RedundancyMode::Tmr);
    let link = BootSource::spacewire_from_flash(
        mission_flash(RedundancyMode::Tmr).0,
        &list,
    )
    .expect("remote publish");
    let mut bl1_flash = Bl1::new(BootSource::Flash(flash));
    bl1_flash.app_run_budget = 0;
    let flash_out = bl1_flash.boot().expect("flash boot");
    let mut bl1_spw = Bl1::new(BootSource::SpaceWire(link));
    bl1_spw.app_run_budget = 0;
    let spw_out = bl1_spw.boot().expect("spw boot");
    flash_out.report.obs_export(obs, "boot.flash");
    spw_out.report.obs_export(obs, "boot.spw");
    for (f, s) in flash_out.report.stages.iter().zip(&spw_out.report.stages) {
        a.row(cells![f.name, f.cycles, s.cycles]);
    }
    a.row(cells![
        "TOTAL",
        flash_out.report.total_cycles(),
        spw_out.report.total_cycles()
    ]);

    // redundancy ablation with corruption of one copy
    let mut b = Table::new(&["redundancy", "boot", "corrected_bytes", "total_cycles"]);
    for mode in [
        RedundancyMode::None,
        RedundancyMode::Sequential,
        RedundancyMode::Tmr,
    ] {
        let (mut flash, list) = mission_flash(mode);
        // pepper copy 0 of the first payload with upsets
        for i in 0..64u32 {
            flash.flip_bit(0, list.entries[0].offset + i * 17, (i % 8) as u8);
        }
        let mut bl1 = Bl1::new(BootSource::Flash(flash));
        bl1.app_run_budget = 0;
        match bl1.boot() {
            Ok(out) => b.row(cells![
                format!("{mode:?}"),
                "SUCCESS",
                out.report.flash_corrected_bytes,
                out.report.total_cycles(),
            ]),
            Err(e) => b.row(cells![format!("{mode:?}"), format!("FAILED ({e})"), 0, 0]),
        }
    }

    let text = format!(
        "E6a: boot stage breakdown, flash vs SpaceWire (cycles)\n{}\n\
         E6b: redundancy ablation with 64 upsets in flash copy 0\n{}",
        a.render(),
        b.render()
    );
    ExperimentOutput::new(text)
        .with("e6a", "boot stage breakdown", a)
        .with("e6b", "redundancy ablation", b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e6_shapes_hold() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        assert!(out.contains("ddr-init"));
        // unprotected boot fails, protected ones succeed
        assert!(out.contains("FAILED"));
        let successes = out.matches("SUCCESS").count();
        assert_eq!(successes, 2, "Sequential and TMR recover:\n{out}");
    }
}
