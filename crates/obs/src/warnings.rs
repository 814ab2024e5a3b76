//! Process-wide, once-per-key warning sink.
//!
//! Some anomalies (an event ring reaching capacity and truncating a
//! trace) must be surfaced without spamming one warning per occurrence.
//! `warn_once` records a warning the *first* time each key is seen in the
//! process and tells the caller whether it was the first, so the caller
//! can mirror it to stderr exactly once. Trace exporters drain
//! [`snapshot`] into the document's warnings section.

use std::sync::{Mutex, OnceLock};

fn sink() -> &'static Mutex<Vec<(String, String)>> {
    static SINK: OnceLock<Mutex<Vec<(String, String)>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record `(key, message)` if `key` has not been warned about yet in this
/// process. Returns `true` on the first occurrence of `key`.
pub fn warn_once(key: &str, message: &str) -> bool {
    let mut w = sink().lock().unwrap_or_else(|e| e.into_inner());
    if w.iter().any(|(k, _)| k == key) {
        return false;
    }
    w.push((key.to_string(), message.to_string()));
    true
}

/// All `(key, message)` warnings recorded so far, in first-seen order.
pub fn snapshot() -> Vec<(String, String)> {
    sink().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_wins() {
        assert!(warn_once("obs-test-key", "first message"));
        assert!(!warn_once("obs-test-key", "second message"));
        let snap = snapshot();
        let hits: Vec<_> = snap.iter().filter(|(k, _)| k == "obs-test-key").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, "first message");
    }
}
