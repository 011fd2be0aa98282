//! # ttt-nodecheck — per-node verification (g5k-checks)
//!
//! Reproduces g5k-checks (slide 7): "Runs at node boot (or manually by
//! users). Acquires info using OHAI, ethtool, etc. Compares with Reference
//! API." Here the probe reads the node's *actual* simulated hardware (the
//! state faults mutate) and the comparison target is the latest Reference
//! API description; any divergence yields a structured mismatch keyed the
//! way OHAI reports it (`cpu/cstates`, `disk/sda/firmware`, …).
//!
//! Deliberately, several fault classes are *invisible* to per-node probes —
//! dead consoles, stuck VLAN ports, spontaneous reboots, flaky services,
//! mis-wired wattmeters. Catching those requires the behavioural test
//! families of `ttt-suite`, which is the paper's argument for testing the
//! whole testbed and not just node conformity.

#![forbid(unsafe_code)]

pub mod compare;

pub use compare::{check_cluster, check_node, diff_hardware, CheckReport, Mismatch};
