//! The sixteen test families, grouped by what they exercise.

pub mod deploy;
pub mod description;
pub mod hardware;
pub mod services;

use std::collections::BTreeSet;
use ttt_testbed::Symptom;

/// Map a nodecheck probe key to the symptom the bug tracker expects, e.g.
/// `"cpu/cstates"` → [`Symptom::CpuCStates`].
pub(crate) fn probe_key_to_signature(key: &str) -> Symptom {
    if key.starts_with("cpu/cstates") {
        Symptom::CpuCStates
    } else if key.starts_with("cpu/turbo") {
        Symptom::CpuTurbo
    } else if key.starts_with("cpu/ht") || key.starts_with("cpu/threads") {
        Symptom::CpuHt
    } else if key.starts_with("disk/") && key.ends_with("/firmware") {
        Symptom::DiskFirmware
    } else if key.starts_with("disk/") && key.ends_with("/write_cache") {
        Symptom::DiskWriteCache
    } else if key.starts_with("memory/") {
        Symptom::DimmFailure
    } else if key.starts_with("network/") && key.ends_with("/rate_gbps") {
        Symptom::NicDowngrade
    } else if key.starts_with("bios/") {
        Symptom::BiosVersion
    } else {
        Symptom::DescriptionMismatch
    }
}

/// Convert a nodecheck report into deduplicated diagnostics.
pub(crate) fn nodecheck_diagnostics(
    report: &ttt_nodecheck::CheckReport,
) -> Vec<crate::report::Diagnostic> {
    if !report.reachable {
        return vec![crate::report::Diagnostic::new(
            Symptom::NodeDead.on(&report.node),
            format!("{} does not answer probes", report.node),
        )];
    }
    if !report.described {
        return vec![crate::report::Diagnostic::new(
            Symptom::Undescribed.on(&report.node),
            format!("{} is missing from the Reference API", report.node),
        )];
    }
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for m in &report.mismatches {
        let symptom = probe_key_to_signature(&m.key);
        if seen.insert(symptom) {
            out.push(crate::report::Diagnostic::new(
                symptom.on(&report.node),
                format!(
                    "{}: {} (Reference API says {}, probed {})",
                    report.node, m.key, m.expected, m.actual
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_mapping_covers_fault_kinds() {
        assert_eq!(probe_key_to_signature("cpu/cstates"), Symptom::CpuCStates);
        assert_eq!(probe_key_to_signature("cpu/threads"), Symptom::CpuHt);
        assert_eq!(probe_key_to_signature("disk/sda/firmware"), Symptom::DiskFirmware);
        assert_eq!(probe_key_to_signature("disk/sdb/write_cache"), Symptom::DiskWriteCache);
        assert_eq!(probe_key_to_signature("memory/total_gb"), Symptom::DimmFailure);
        assert_eq!(probe_key_to_signature("network/eth0/rate_gbps"), Symptom::NicDowngrade);
        assert_eq!(probe_key_to_signature("bios/version"), Symptom::BiosVersion);
        assert_eq!(probe_key_to_signature("gpu/count"), Symptom::DescriptionMismatch);
    }
}
