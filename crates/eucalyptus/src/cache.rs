//! Process-wide shared characterization cache.
//!
//! A characterization sweep is a pure function of the device profile and
//! the sweep configuration, yet every HLS flow used to pay for its own
//! sweep — a suite of N kernel flows ran N identical sweeps. This module
//! memoizes completed sweeps behind a `OnceLock`-guarded mutex so the
//! first flow characterizes and everyone after it (including parallel
//! fan-outs, which block on the same lock and then hit) shares the
//! resulting [`CharacterizationLibrary`] by `Arc`.
//!
//! Keys are `(device fingerprint, sweep signature)`: the fingerprint
//! hashes *every* field of the [`DeviceProfile`] (not just its name, so
//! two differently tuned profiles with the same name never alias), and
//! the signature canonically renders the sweep's widths, pipeline depths,
//! and the characterizer's kind list.
//!
//! For A/B measurement and tests that must observe a cold sweep, the
//! cache has a programmatic bypass, [`set_bypass`]. Bypassed calls
//! neither read nor populate the store.

use crate::library::CharacterizationLibrary;
use crate::sweep::{Eucalyptus, SweepConfig};
use crate::CharError;
use hermes_fpga::device::DeviceProfile;
use hermes_obs::hash::Fnv1a;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Store = Mutex<HashMap<(u64, String), Arc<CharacterizationLibrary>>>;

static CACHE: OnceLock<Store> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYPASSES: AtomicU64 = AtomicU64::new(0);
static BYPASS: AtomicBool = AtomicBool::new(false);

/// Cache effectiveness counters (process-wide, monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Calls served from the store.
    pub hits: u64,
    /// Calls that ran a sweep and populated the store.
    pub misses: u64,
    /// Calls that skipped the store entirely (bypass knob).
    pub bypasses: u64,
}

/// Current process-wide cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        bypasses: BYPASSES.load(Ordering::Relaxed),
    }
}

/// Programmatic bypass knob: `true` makes every [`characterize_shared`]
/// call run a fresh sweep without touching the store (tests, A/B runs).
pub fn set_bypass(on: bool) {
    BYPASS.store(on, Ordering::Relaxed);
}

/// Whether caching is currently bypassed ([`set_bypass`]).
pub fn bypassed() -> bool {
    BYPASS.load(Ordering::Relaxed)
}

/// FNV-1a over a canonical rendering of every device-profile field
/// (floats by bit pattern), so any tuning difference changes the key.
pub fn device_fingerprint(device: &DeviceProfile) -> u64 {
    let mut h = Fnv1a::new();
    h.str(&device.name);
    for v in [
        u64::from(device.grid_cols),
        u64::from(device.grid_rows),
        u64::from(device.luts_per_tile),
        u64::from(device.dsps_per_column),
        u64::from(device.dsp_width),
        u64::from(device.rams_per_column),
        u64::from(device.ram_bits),
        u64::from(device.ram_port_width),
        u64::from(device.config_tmr),
    ] {
        h.u64(v);
    }
    for &c in &device.dsp_columns {
        h.u64(u64::from(c));
    }
    h.u64(u64::MAX); // separator between the two column lists
    for &c in &device.ram_columns {
        h.u64(u64::from(c));
    }
    let t = &device.timing;
    for f in [
        t.lut_delay_ns,
        t.carry_delay_ns,
        t.ff_clk_to_q_ns,
        t.ff_setup_ns,
        t.dsp_delay_ns,
        t.ram_clk_to_out_ns,
        t.ram_setup_ns,
        t.net_base_ns,
        t.net_per_tile_ns,
        t.net_per_fanout_ns,
    ] {
        h.u64(f.to_bits());
    }
    let p = &device.power;
    for f in [
        p.lut_static_uw,
        p.lut_dynamic_uw_per_100mhz,
        p.dsp_static_uw,
        p.ram_static_uw,
    ] {
        h.u64(f.to_bits());
    }
    h.finish()
}

/// Canonical signature of a sweep request: widths, pipeline depths, and
/// the characterizer's kind list, in order.
pub fn sweep_signature(euc: &Eucalyptus, sweep: &SweepConfig) -> String {
    let join = |v: &[u32]| {
        v.iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let kinds = euc
        .kinds
        .iter()
        .map(|k| k.mnemonic())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "w[{}];s[{}];k[{}]",
        join(&sweep.widths),
        join(&sweep.pipeline_stages),
        kinds
    )
}

/// Run (or reuse) a characterization sweep through the shared store.
///
/// On a miss the sweep runs *while the store lock is held*, so parallel
/// callers requesting the same key wait for the first one and then hit —
/// a kernel-suite fan-out characterizes exactly once. Failed sweeps are
/// never cached.
///
/// # Errors
///
/// Propagates the sweep's [`CharError`] on a (non-cached) failure.
pub fn characterize_shared(
    euc: &Eucalyptus,
    sweep: &SweepConfig,
) -> Result<Arc<CharacterizationLibrary>, CharError> {
    if bypassed() {
        BYPASSES.fetch_add(1, Ordering::Relaxed);
        return euc.characterize(sweep).map(Arc::new);
    }
    let key = (device_fingerprint(euc.device()), sweep_signature(euc, sweep));
    let store = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = store.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(lib) = map.get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(lib));
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let lib = Arc::new(euc.characterize(sweep)?);
    map.insert(key, Arc::clone(&lib));
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that touch the process-global store, counters
    /// and bypass flag, so one test's bypass window or miss never lands
    /// inside another's before/after reading.
    static GLOBALS: Mutex<()> = Mutex::new(());

    fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
        GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn fingerprint_separates_profiles() {
        let a = DeviceProfile::ng_medium_like();
        let b = DeviceProfile::ng_ultra_like();
        let c = DeviceProfile::legacy_radhard_like();
        assert_ne!(device_fingerprint(&a), device_fingerprint(&b));
        assert_ne!(device_fingerprint(&a), device_fingerprint(&c));
        assert_eq!(
            device_fingerprint(&a),
            device_fingerprint(&DeviceProfile::ng_medium_like())
        );
        // same name, different tuning: must not alias
        let mut tuned = DeviceProfile::ng_medium_like();
        tuned.timing.lut_delay_ns *= 1.5;
        assert_ne!(device_fingerprint(&a), device_fingerprint(&tuned));
    }

    #[test]
    fn sweep_signature_is_order_sensitive() {
        let euc = Eucalyptus::new(DeviceProfile::ng_medium_like());
        let a = sweep_signature(
            &euc,
            &SweepConfig { widths: vec![8, 16], pipeline_stages: vec![0] },
        );
        let b = sweep_signature(
            &euc,
            &SweepConfig { widths: vec![16, 8], pipeline_stages: vec![0] },
        );
        assert_ne!(a, b);
        let narrowed = Eucalyptus::new(DeviceProfile::ng_medium_like())
            .with_kinds(vec![hermes_rtl::component::ComponentKind::Adder]);
        let c = sweep_signature(
            &narrowed,
            &SweepConfig { widths: vec![8, 16], pipeline_stages: vec![0] },
        );
        assert_ne!(a, c, "kind list is part of the key");
    }

    #[test]
    fn shared_sweep_hits_after_miss_and_returns_same_arc() {
        let _globals = lock_globals();
        let euc = Eucalyptus::new(DeviceProfile::ng_medium_like())
            .with_kinds(vec![hermes_rtl::component::ComponentKind::Not]);
        // a sweep config no other test uses, so the first call is a miss
        let sweep = SweepConfig { widths: vec![5], pipeline_stages: vec![0] };
        let before = stats();
        let a = characterize_shared(&euc, &sweep).expect("sweep succeeds");
        let b = characterize_shared(&euc, &sweep).expect("sweep cached");
        let after = stats();
        assert!(Arc::ptr_eq(&a, &b), "second call shares the first library");
        assert_eq!(after.misses, before.misses + 1);
        assert!(after.hits > before.hits);
        assert_eq!(a.len(), 1, "not x width 5 x 1 stage");
    }

    #[test]
    fn bypass_skips_the_store() {
        let _globals = lock_globals();
        let euc = Eucalyptus::new(DeviceProfile::ng_medium_like())
            .with_kinds(vec![hermes_rtl::component::ComponentKind::Not]);
        let sweep = SweepConfig { widths: vec![6], pipeline_stages: vec![0] };
        set_bypass(true);
        let a = characterize_shared(&euc, &sweep).expect("sweep succeeds");
        let b = characterize_shared(&euc, &sweep).expect("sweep succeeds");
        set_bypass(false);
        assert!(!Arc::ptr_eq(&a, &b), "bypassed calls never share");
        let s = stats();
        assert!(s.bypasses >= 2);
        // the store was not populated under bypass: this is a miss
        let before = stats().misses;
        let _ = characterize_shared(&euc, &sweep).expect("sweep succeeds");
        assert_eq!(stats().misses, before + 1);
    }
}
