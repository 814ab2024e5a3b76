//! E8 — Radiation-hardening effectiveness (the Section I platform claims:
//! "triple modular redundancy, error correction mechanisms, and memory
//! integrity checks").
//!
//! Protection × scrub-interval × flux sweeps under identical seeded upset
//! sequences, plus the configuration-bitstream CRC audit.

use crate::cells;
use crate::table::Table;
use crate::ExperimentOutput;
use hermes_rad::campaign::{bitstream_campaign, Campaign, Protection};

/// Run E8 and render its tables. E8 runs serially and has no
/// instrumented layers yet, so `jobs` and the recorder are unused.
pub fn run(_jobs: usize, _obs: &hermes_obs::Recorder) -> ExperimentOutput {
    let mut a = Table::new(&[
        "protection", "upsets", "silent", "detected", "corrected", "overhead%",
    ]);
    for protection in [Protection::None, Protection::Tmr, Protection::Edac] {
        let r = Campaign::new(4096, 0xABCD)
            .upsets(400)
            .scrub_interval(Some(1000))
            .run(protection);
        a.row(cells![
            format!("{:?}", r.protection),
            r.upsets,
            r.silent_corruptions,
            r.detected_uncorrectable,
            r.corrected,
            r.storage_overhead_pct,
        ]);
    }

    let mut b = Table::new(&["scrub_interval", "tmr_silent", "edac_silent+detected"]);
    for interval in [None, Some(100_000u64), Some(10_000), Some(1_000), Some(100)] {
        let tmr = Campaign::new(256, 0x77)
            .upsets(3000)
            .scrub_interval(interval)
            .run(Protection::Tmr);
        let edac = Campaign::new(256, 0x77)
            .upsets(3000)
            .scrub_interval(interval)
            .run(Protection::Edac);
        b.row(cells![
            interval.map(|i| i.to_string()).unwrap_or_else(|| "never".into()),
            tmr.silent_corruptions,
            edac.silent_corruptions + edac.detected_uncorrectable,
        ]);
    }

    let mut c = Table::new(&["upsets", "none_silent", "tmr_silent", "edac_silent"]);
    for upsets in [50usize, 200, 800, 3200] {
        let run_p = |p| {
            Campaign::new(1024, 0x5A5A)
                .upsets(upsets)
                .scrub_interval(Some(2_000))
                .run(p)
        };
        c.row(cells![
            upsets,
            run_p(Protection::None).silent_corruptions,
            run_p(Protection::Tmr).silent_corruptions,
            run_p(Protection::Edac).silent_corruptions,
        ]);
    }

    // configuration-plane audit
    let artifact = hermes_core::accelerator::AcceleratorFlow::new()
        .build("int f(int a, int b) { return a * b + a; }")
        .expect("accelerator builds");
    let r = bitstream_campaign(&artifact.bitstream, 100, 0xF00D);
    let mut d = Table::new(&["metric", "value"]);
    d.row(cells!["config upsets injected", r.upsets]);
    d.row(cells!["corrupted frames detected by CRC", r.detected_frames]);
    d.row(cells!["corrupted frames undetected", r.undetected_frames]);

    let text = format!(
        "E8a: protection comparison (4096 words, 400 upsets, scrub@1000)\n{}\n\
         E8b: scrub-interval sweep (256 words, 3000 upsets)\n{}\n\
         E8c: flux sweep (1024 words, scrub@2000)\n{}\n\
         E8d: eFPGA configuration-memory CRC audit\n{}",
        a.render(),
        b.render(),
        c.render(),
        d.render()
    );
    ExperimentOutput::new(text)
        .with("e8a", "protection comparison", a)
        .with("e8b", "scrub-interval sweep", b)
        .with("e8c", "flux sweep", c)
        .with("e8d", "config CRC audit", d)
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_protection_ordering() {
        let out = super::run(hermes_par::jobs(), &hermes_obs::Recorder::disabled()).text;
        assert!(out.contains("Tmr"));
        assert!(out.contains("Edac"));
        assert!(out.contains("corrupted frames undetected"));
        // the undetected row must end in 0
        let undetected = out
            .lines()
            .find(|l| l.contains("undetected"))
            .unwrap()
            .split_whitespace()
            .last()
            .unwrap();
        assert_eq!(undetected, "0");
    }
}
