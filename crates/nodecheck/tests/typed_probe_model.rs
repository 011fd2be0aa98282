//! Model-based check of g5k-checks' typed walk.
//!
//! `diff_hardware` pairs the fields of two `NodeHardware` values, compares
//! them typed and in place, and renders a key and its values only where
//! they differ, listing the mismatches in key order. The reference below is
//! the string-map probe it replaced, copied as it was: flatten both sides
//! into a `BTreeMap` of OHAI-style key paths to rendered values, then diff
//! the two maps — keys the description has in key order, then the keys
//! only the probe reports. The two must list the same mismatches, element
//! by element and in order, for random hardware pairs: drifted scalars;
//! disks, NICs and BIOS settings added, removed, renamed, repeated under
//! one name and out of order; IB and GPU toggled; and names that prefix
//! one another across a byte below `/` (`sda` / `sda-1` / `sda1`), where
//! sorting by name and sorting by key part ways. A value never differs
//! from itself, so `check_node`'s `==` pre-check only skips walks that
//! would find nothing.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use ttt_nodecheck::{diff_hardware, Mismatch};
use ttt_testbed::hardware::{Dimm, PstateDriver};
use ttt_testbed::{
    BiosSpec, CpuSpec, DiskInterface, DiskKind, DiskSpec, GpuSpec, IbSpec, MemSpec, NicSpec,
    NodeHardware, Vendor,
};

// ---- The reference: the string-map probe, as it was -----------------------

type ProbeReport = BTreeMap<String, String>;

fn flatten(hw: &NodeHardware, memory_gb: u32) -> ProbeReport {
    let mut m = ProbeReport::new();
    m.insert("cpu/model".into(), hw.cpu.model.clone());
    m.insert("cpu/microarch".into(), hw.cpu.microarch.clone());
    m.insert("cpu/sockets".into(), hw.cpu.sockets.to_string());
    m.insert("cpu/cores".into(), hw.cpu.total_cores().to_string());
    m.insert("cpu/threads".into(), hw.cpu.total_threads().to_string());
    m.insert("cpu/freq_mhz".into(), hw.cpu.base_freq_mhz.to_string());
    m.insert("cpu/turbo".into(), onoff(hw.cpu.turbo_enabled).to_string());
    m.insert("cpu/ht".into(), onoff(hw.cpu.ht_enabled).to_string());
    m.insert(
        "cpu/cstates".into(),
        onoff(hw.cpu.cstates_enabled).to_string(),
    );
    m.insert("memory/total_gb".into(), memory_gb.to_string());
    m.insert("memory/dimms".into(), hw.mem.dimms.len().to_string());
    for d in &hw.disks {
        let p = format!("disk/{}", d.device);
        m.insert(format!("{p}/vendor"), d.vendor.clone());
        m.insert(format!("{p}/model"), d.model.clone());
        m.insert(format!("{p}/firmware"), d.firmware.clone());
        m.insert(format!("{p}/size_gb"), d.size_gb.to_string());
        m.insert(format!("{p}/write_cache"), onoff(d.write_cache).to_string());
        m.insert(format!("{p}/read_cache"), onoff(d.read_cache).to_string());
    }
    for n in &hw.nics {
        let p = format!("network/{}", n.name);
        m.insert(format!("{p}/model"), n.model.clone());
        m.insert(format!("{p}/driver"), n.driver.clone());
        m.insert(format!("{p}/firmware"), n.firmware.clone());
        m.insert(format!("{p}/rate_gbps"), n.rate_gbps.to_string());
        m.insert(format!("{p}/mounted"), onoff(n.mounted).to_string());
    }
    m.insert("bios/vendor".into(), hw.bios.vendor.to_string());
    m.insert("bios/version".into(), hw.bios.version.clone());
    for (k, v) in &hw.bios.settings {
        m.insert(format!("bios/setting/{k}"), v.clone());
    }
    if let Some(ib) = &hw.ib {
        m.insert("infiniband/hca".into(), ib.hca.clone());
        m.insert("infiniband/rate_gbps".into(), ib.rate_gbps.to_string());
    }
    if let Some(gpu) = &hw.gpu {
        m.insert("gpu/model".into(), gpu.model.clone());
        m.insert("gpu/count".into(), gpu.count.to_string());
    }
    m
}

fn onoff(b: bool) -> &'static str {
    if b {
        "enabled"
    } else {
        "disabled"
    }
}

fn diff_reports(expected: &ProbeReport, actual: &ProbeReport) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for (k, ev) in expected {
        match actual.get(k) {
            Some(av) if av == ev => {}
            Some(av) => out.push(Mismatch {
                key: k.clone(),
                expected: ev.clone(),
                actual: av.clone(),
            }),
            None => out.push(Mismatch {
                key: k.clone(),
                expected: ev.clone(),
                actual: "<absent>".into(),
            }),
        }
    }
    for (k, av) in actual {
        if !expected.contains_key(k) {
            out.push(Mismatch {
                key: k.clone(),
                expected: "<absent>".into(),
                actual: av.clone(),
            });
        }
    }
    out
}

fn reference(described: &NodeHardware, probed: &NodeHardware, memory_gb: u32) -> Vec<Mismatch> {
    diff_reports(
        &flatten(described, described.memory_gb()),
        &flatten(probed, memory_gb),
    )
}

// ---- Random hardware ------------------------------------------------------

/// Names that prefix one another around bytes on both sides of `/`.
const DISKS: [&str; 6] = ["sda", "sdb", "sd", "sda-1", "sda1", "nvme0n1"];
const NICS: [&str; 5] = ["eth0", "eth1", "eth", "eth0.10", "ib0"];
const SETTINGS: [&str; 5] = ["boot_mode", "boot", "boot-mode", "power_profile", "numa"];
const VENDORS: [Vendor; 4] = [Vendor::Dell, Vendor::Hp, Vendor::Bull, Vendor::Ibm];
/// Few values, so a drift often lands back on the same one.
const WORDS: [&str; 3] = ["GA67", "GA63", "x"];

fn word(rng: &mut SmallRng) -> String {
    WORDS.choose(rng).unwrap().to_string()
}

fn disk(rng: &mut SmallRng) -> DiskSpec {
    DiskSpec {
        device: DISKS.choose(rng).unwrap().to_string(),
        vendor: word(rng),
        model: word(rng),
        firmware: word(rng),
        size_gb: rng.gen_range(1..3u32) * 500,
        kind: if rng.gen_bool(0.5) {
            DiskKind::Hdd
        } else {
            DiskKind::Ssd
        },
        write_cache: rng.gen_bool(0.5),
        read_cache: rng.gen_bool(0.5),
        interface: if rng.gen_bool(0.5) {
            DiskInterface::Sata
        } else {
            DiskInterface::Sas
        },
    }
}

fn nic(rng: &mut SmallRng) -> NicSpec {
    NicSpec {
        name: NICS.choose(rng).unwrap().to_string(),
        model: word(rng),
        driver: word(rng),
        firmware: word(rng),
        rate_gbps: *[1, 10].choose(rng).unwrap(),
        mounted: rng.gen_bool(0.5),
    }
}

fn ib(rng: &mut SmallRng) -> IbSpec {
    IbSpec {
        hca: word(rng),
        rate_gbps: *[40, 56].choose(rng).unwrap(),
    }
}

fn gpu(rng: &mut SmallRng) -> GpuSpec {
    GpuSpec {
        model: word(rng),
        count: rng.gen_range(1..3),
    }
}

fn hardware(rng: &mut SmallRng) -> NodeHardware {
    NodeHardware {
        cpu: CpuSpec {
            model: word(rng),
            microarch: word(rng),
            sockets: rng.gen_range(1..3),
            cores_per_socket: rng.gen_range(1..3),
            threads_per_core: rng.gen_range(1..3),
            base_freq_mhz: *[2400, 2600].choose(rng).unwrap(),
            turbo_enabled: rng.gen_bool(0.5),
            ht_enabled: rng.gen_bool(0.5),
            cstates_enabled: rng.gen_bool(0.5),
            pstate_driver: PstateDriver::IntelPstate,
        },
        mem: MemSpec {
            dimms: (0..rng.gen_range(0..5))
                .map(|_| Dimm {
                    size_gb: *[8, 16].choose(rng).unwrap(),
                    mhz: 2133,
                })
                .collect(),
        },
        disks: (0..rng.gen_range(0..4)).map(|_| disk(rng)).collect(),
        nics: (0..rng.gen_range(0..4)).map(|_| nic(rng)).collect(),
        bios: BiosSpec {
            vendor: *VENDORS.choose(rng).unwrap(),
            version: word(rng),
            settings: (0..rng.gen_range(0..4))
                .map(|_| (SETTINGS.choose(rng).unwrap().to_string(), word(rng)))
                .collect(),
        },
        ib: rng.gen_bool(0.5).then(|| ib(rng)),
        gpu: rng.gen_bool(0.5).then(|| gpu(rng)),
    }
}

/// Add, remove, rename, redraw or reorder the entries of a named list.
fn edit_list<T>(
    list: &mut Vec<T>,
    rng: &mut SmallRng,
    fresh: fn(&mut SmallRng) -> T,
    name: fn(&mut T) -> &mut String,
    names: &[&str],
) {
    let at = rng.gen_range(0..list.len().max(1));
    match rng.gen_range(0..5) {
        0 => list.insert(rng.gen_range(0..list.len() + 1), fresh(rng)),
        _ if list.is_empty() => {}
        1 => drop(list.remove(at)),
        2 => *name(&mut list[at]) = names.choose(rng).unwrap().to_string(),
        3 => {
            // The same name with every field drawn afresh.
            let mut redrawn = fresh(rng);
            *name(&mut redrawn) = name(&mut list[at]).clone();
            list[at] = redrawn;
        }
        _ => list.shuffle(rng),
    }
}

/// The probed side: the described hardware after one to five edits.
fn drift(described: &NodeHardware, rng: &mut SmallRng) -> NodeHardware {
    let mut hw = described.clone();
    for _ in 0..rng.gen_range(1..6) {
        match rng.gen_range(0..12) {
            0 => hw.cpu.cstates_enabled ^= true,
            1 => hw.cpu.threads_per_core = rng.gen_range(1..3),
            2 => hw.cpu.model = word(rng),
            3 => edit_list(&mut hw.disks, rng, disk, |d| &mut d.device, &DISKS),
            4 => edit_list(&mut hw.nics, rng, nic, |n| &mut n.name, &NICS),
            5 => {
                let settings = &mut hw.bios.settings;
                let key = SETTINGS.choose(rng).unwrap().to_string();
                if rng.gen_bool(0.5) {
                    settings.remove(&key);
                } else {
                    settings.insert(key, word(rng));
                }
            }
            6 => hw.ib = if hw.ib.is_some() { None } else { Some(ib(rng)) },
            7 => {
                hw.gpu = if hw.gpu.is_some() {
                    None
                } else {
                    Some(gpu(rng))
                }
            }
            8 => {
                hw.mem.dimms.pop();
            }
            9 => hw.bios.version = word(rng),
            10 => hw.bios.vendor = *VENDORS.choose(rng).unwrap(),
            _ => {
                if let Some(d) = hw.disks.choose_mut(rng) {
                    d.firmware = word(rng);
                }
                if let Some(n) = hw.nics.choose_mut(rng) {
                    n.rate_gbps = 1;
                }
            }
        }
    }
    hw
}

/// What the OS sees: the probed DIMMs, less up to one failed module.
fn probed_memory(hw: &NodeHardware, rng: &mut SmallRng) -> u32 {
    let failed = rng.gen_range(0..2usize).min(hw.mem.dimms.len());
    hw.mem.dimms.iter().skip(failed).map(|d| d.size_gb).sum()
}

fn case(seed: u64) -> (NodeHardware, NodeHardware, u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let described = hardware(&mut rng);
    let probed = drift(&described, &mut rng);
    let memory = probed_memory(&probed, &mut rng);
    (described, probed, memory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn walk_lists_the_string_map_diff(seed in 0u64..u64::MAX) {
        let (described, probed, memory) = case(seed);
        let walk = diff_hardware(&described, &probed, memory);
        let want = reference(&described, &probed, memory);
        for (i, (got, expected)) in walk.iter().zip(&want).enumerate() {
            prop_assert_eq!(got, expected, "mismatch {} of {}", i, want.len());
        }
        prop_assert_eq!(walk.len(), want.len());
        // A hardware value never differs from itself.
        prop_assert_eq!(diff_hardware(&probed, &probed, probed.memory_gb()), vec![]);
    }
}

/// The generator reaches the shapes the model exists for, so the property
/// above cannot pass by never meeting them.
#[test]
fn the_generator_reaches_every_shape() {
    let (mut probed_only_first, mut repeated, mut unsorted, mut both_toggled) = (0, 0, 0, 0);
    for seed in 0..2048 {
        let (described, probed, memory) = case(seed);
        let want = reference(&described, &probed, memory);
        // A probed-only key that sorts before a key the description has.
        let split = want.iter().position(|m| m.expected == "<absent>");
        if let Some(split) = split {
            probed_only_first += usize::from(want[..split].iter().any(|m| m.key > want[split].key));
        }
        let names = |hw: &NodeHardware| -> Vec<String> {
            hw.disks.iter().map(|d| format!("{}/", d.device)).collect()
        };
        let (e, p) = (names(&described), names(&probed));
        repeated += usize::from((1..e.len()).any(|i| e[..i].contains(&e[i])));
        unsorted += usize::from(p.windows(2).any(|w| w[0] > w[1]) && want.len() > 1);
        both_toggled += usize::from(
            described.ib.is_some() != probed.ib.is_some()
                && described.gpu.is_some() != probed.gpu.is_some(),
        );
    }
    for (shape, n) in [
        ("probed-only key before an expected one", probed_only_first),
        ("repeated device name", repeated),
        ("disks out of key order", unsorted),
        ("IB and GPU toggled together", both_toggled),
    ] {
        assert!(n >= 20, "{shape}: {n} of 2048 cases");
    }
}
