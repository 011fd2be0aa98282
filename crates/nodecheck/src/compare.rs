//! Comparison of probed reality against the Reference API description.
//!
//! The probe reports OHAI-style keys (`cpu/cstates`, `disk/sda/firmware`,
//! `network/eth0/rate_gbps`, …). A conformant node shares its cluster's
//! hardware template with the description generated from it, so one
//! pointer compare proves it conforms; any other pair is compared with
//! `==` first. Only a pair that differs is walked: the walk visits both
//! sides' fields at once and compares each pair typed, in place; a key and
//! its two values are rendered to text only for a field that differs, and
//! the mismatches are listed in key order. Checking a conformant node makes
//! no allocator call.

use std::fmt;
use std::sync::Arc;
use ttt_refapi::{NodeDescription, TestbedDescription};
use ttt_testbed::{
    BiosSpec, Cluster, CpuSpec, DiskSpec, GpuSpec, IbSpec, NicSpec, NodeHardware, NodeId, Testbed,
    Vendor,
};

/// What a mismatch reports for the side that lacks the key.
const ABSENT: &str = "<absent>";

/// One disagreement between description and reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Probe key, e.g. `"cpu/cstates"`.
    pub key: String,
    /// Value according to the Reference API (`"<absent>"` when the key is
    /// only probed).
    pub expected: String,
    /// Value actually probed (`"<absent>"` when the key is missing).
    pub actual: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, probed {}",
            self.key, self.expected, self.actual
        )
    }
}

/// Result of checking one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport<'t> {
    /// Host name of the checked node.
    pub node: &'t str,
    /// Whether the node answered probes at all.
    pub reachable: bool,
    /// Whether the node was described in the Reference API.
    pub described: bool,
    /// All disagreements found (empty = conformant).
    pub mismatches: Vec<Mismatch>,
}

impl CheckReport<'_> {
    /// Whether the check passed: node reachable, described, no mismatch.
    pub fn passed(&self) -> bool {
        self.reachable && self.described && self.mismatches.is_empty()
    }

    /// Mismatch keys, for signature building.
    pub fn keys(&self) -> Vec<&str> {
        self.mismatches.iter().map(|m| m.key.as_str()).collect()
    }
}

/// One probed value, as the hardware holds it. Each key always reads the
/// same variant, and every variant renders injectively, so comparing two
/// values equals comparing their renderings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Value<'h> {
    Text(&'h str),
    Count(u64),
    /// Rendered `enabled` / `disabled`.
    Switch(bool),
    Vendor(Vendor),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Text(s) => f.write_str(s),
            Value::Count(n) => write!(f, "{n}"),
            Value::Switch(on) => f.write_str(if on { "enabled" } else { "disabled" }),
            Value::Vendor(v) => write!(f, "{v}"),
        }
    }
}

/// A probe key in three pieces — part, name, field — joined only when a
/// mismatch names it: `["disk/", "sda", "/firmware"]`, `["cpu/", "", "ht"]`.
type Key<'k> = [&'k str; 3];

/// One field of a part: the key's last piece and how to read the value.
type Field<T> = (&'static str, fn(&T) -> Value<'_>);

const BIOS: [Field<BiosSpec>; 2] = [
    ("vendor", |b| Value::Vendor(b.vendor)),
    ("version", |b| Value::Text(&b.version)),
];

const CPU: [Field<CpuSpec>; 9] = [
    ("cores", |c| Value::Count(c.total_cores().into())),
    ("cstates", |c| Value::Switch(c.cstates_enabled)),
    ("freq_mhz", |c| Value::Count(c.base_freq_mhz.into())),
    ("ht", |c| Value::Switch(c.ht_enabled)),
    ("microarch", |c| Value::Text(&c.microarch)),
    ("model", |c| Value::Text(&c.model)),
    ("sockets", |c| Value::Count(c.sockets.into())),
    ("threads", |c| Value::Count(c.total_threads().into())),
    ("turbo", |c| Value::Switch(c.turbo_enabled)),
];

const DISK: [Field<DiskSpec>; 6] = [
    ("/firmware", |d| Value::Text(&d.firmware)),
    ("/model", |d| Value::Text(&d.model)),
    ("/read_cache", |d| Value::Switch(d.read_cache)),
    ("/size_gb", |d| Value::Count(d.size_gb.into())),
    ("/vendor", |d| Value::Text(&d.vendor)),
    ("/write_cache", |d| Value::Switch(d.write_cache)),
];

const GPU: [Field<GpuSpec>; 2] = [
    ("count", |g| Value::Count(g.count.into())),
    ("model", |g| Value::Text(&g.model)),
];

const INFINIBAND: [Field<IbSpec>; 2] = [
    ("hca", |ib| Value::Text(&ib.hca)),
    ("rate_gbps", |ib| Value::Count(ib.rate_gbps.into())),
];

const NETWORK: [Field<NicSpec>; 5] = [
    ("/driver", |n| Value::Text(&n.driver)),
    ("/firmware", |n| Value::Text(&n.firmware)),
    ("/model", |n| Value::Text(&n.model)),
    ("/mounted", |n| Value::Switch(n.mounted)),
    ("/rate_gbps", |n| Value::Count(n.rate_gbps.into())),
];

/// The mismatches of one walk, listed the way a diff of the two sides' key
/// maps lists them: every key the description has, in key order, then the
/// keys only the probe reports, in key order.
#[derive(Default)]
struct Diff {
    found: Vec<Mismatch>,
    probed_only: Vec<Mismatch>,
}

impl Diff {
    fn field(&mut self, key: Key<'_>, expected: Option<Value<'_>>, actual: Option<Value<'_>>) {
        if expected != actual {
            self.mismatch(key, expected, actual);
        }
    }

    /// Render one mismatch: the only place the walk allocates.
    #[cold]
    fn mismatch(&mut self, key: Key<'_>, expected: Option<Value<'_>>, actual: Option<Value<'_>>) {
        let render = |v: Option<Value<'_>>| v.map_or_else(|| ABSENT.to_owned(), |v| v.to_string());
        let list = if expected.is_some() {
            &mut self.found
        } else {
            &mut self.probed_only
        };
        list.push(Mismatch {
            key: key.concat(),
            expected: render(expected),
            actual: render(actual),
        });
    }

    /// Compare the fields of one part; a side without the part (no GPU, a
    /// disk only one side has) has none of its keys.
    fn part<T>(
        &mut self,
        head: &str,
        name: &str,
        fields: &[Field<T>],
        e: Option<&T>,
        a: Option<&T>,
    ) {
        for &(tail, read) in fields {
            self.field([head, name, tail], e.map(read), a.map(read));
        }
    }

    fn into_mismatches(mut self) -> Vec<Mismatch> {
        // Keys are unique: a name is visited once, each field once.
        self.found.sort_unstable_by(|x, y| x.key.cmp(&y.key));
        self.probed_only.sort_unstable_by(|x, y| x.key.cmp(&y.key));
        self.found.append(&mut self.probed_only);
        self.found
    }
}

/// Visit every name either side has once — disks by device, NICs by
/// interface, BIOS settings by name — with each side's last entry of that
/// name, as a later insert into a key map replaces an earlier one.
fn by_name<'h, T>(
    expected: impl Iterator<Item = (&'h str, T)> + Clone,
    actual: impl Iterator<Item = (&'h str, T)> + Clone,
    mut visit: impl FnMut(&'h str, Option<T>, Option<T>),
) {
    let mut rest = expected.clone();
    while let Some((name, e)) = rest.next() {
        if lacks(rest.clone(), name) {
            let a = actual.clone().filter(|&(n, _)| n == name).last();
            visit(name, Some(e), a.map(|(_, a)| a));
        }
    }
    let mut rest = actual;
    while let Some((name, a)) = rest.next() {
        if lacks(rest.clone(), name) && lacks(expected.clone(), name) {
            visit(name, None, Some(a));
        }
    }
}

/// Whether no entry of `side` is named `name`.
fn lacks<'h, T>(mut side: impl Iterator<Item = (&'h str, T)>, name: &str) -> bool {
    side.all(|(n, _)| n != name)
}

/// Every disagreement between a node's described hardware and what its
/// probes report, under the keys the probe reports them by. Memory is the
/// one value the probe does not read off the hardware: failed DIMMs are
/// masked by the BIOS, so the OS sees `probed_memory_gb`.
///
/// Mismatches come in key order, the keys only the probe reports after the
/// others; a key the description has and the probe lacks reads `<absent>`
/// as its probed value, and the other way round. A key renders as the
/// probe would report it, so these are exactly the differences of the two
/// sides' probe reports.
pub fn diff_hardware<'h>(
    described: &'h NodeHardware,
    probed: &'h NodeHardware,
    probed_memory_gb: u32,
) -> Vec<Mismatch> {
    let (e, a) = (described, probed);
    let mut diff = Diff::default();
    let settings = |hw: &'h NodeHardware| {
        hw.bios
            .settings
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    };
    by_name(settings(e), settings(a), |name, e, a| {
        diff.field(
            ["bios/setting/", name, ""],
            e.map(Value::Text),
            a.map(Value::Text),
        );
    });
    diff.part("bios/", "", &BIOS, Some(&e.bios), Some(&a.bios));
    diff.part("cpu/", "", &CPU, Some(&e.cpu), Some(&a.cpu));
    let disks = |hw: &'h NodeHardware| hw.disks.iter().map(|d| (d.device.as_str(), d));
    by_name(disks(e), disks(a), |name, e, a| {
        diff.part("disk/", name, &DISK, e, a);
    });
    diff.part("gpu/", "", &GPU, e.gpu.as_ref(), a.gpu.as_ref());
    diff.part("infiniband/", "", &INFINIBAND, e.ib.as_ref(), a.ib.as_ref());
    let dimms = |hw: &NodeHardware| Some(Value::Count(hw.mem.dimms.len() as u64));
    diff.field(["memory/", "", "dimms"], dimms(e), dimms(a));
    diff.field(
        ["memory/", "", "total_gb"],
        Some(Value::Count(e.memory_gb().into())),
        Some(Value::Count(probed_memory_gb.into())),
    );
    let nics = |hw: &'h NodeHardware| hw.nics.iter().map(|n| (n.name.as_str(), n));
    by_name(nics(e), nics(a), |name, e, a| {
        diff.part("network/", name, &NETWORK, e, a);
    });
    diff.into_mismatches()
}

/// Find a node's description, looking inside its own cluster first — a
/// couple of dozen name compares instead of a scan over the whole testbed
/// — with the global scan kept as a fallback for descriptions that
/// disagree about cluster membership.
fn describe_node<'d>(
    tb: &Testbed,
    desc: &'d TestbedDescription,
    node: NodeId,
) -> Option<&'d NodeDescription> {
    let n = tb.node(node);
    let cluster = &tb.cluster(n.cluster).name;
    desc.cluster(cluster)
        .and_then(|c| c.nodes.iter().find(|d| d.name == n.name))
        .or_else(|| desc.node(&n.name))
}

/// g5k-checks on one node against the description found for it (`None`:
/// the node is undescribed). A dead node answers no probe.
fn check_described<'t>(
    tb: &'t Testbed,
    node: NodeId,
    described: Option<&NodeDescription>,
) -> CheckReport<'t> {
    let n = tb.node(node);
    let memory_gb = n.effective_memory_gb();
    let mismatches = match described {
        Some(d) if n.condition.alive => {
            // Most nodes conform, and a conformant node shares its
            // cluster's template with the description generated from it:
            // one pointer compare proves it. Other pairs (a drifted node, a
            // description built elsewhere) take `==`, which settles an
            // equal pair faster than the walk (*Probe typed* in
            // EXPERIMENTS.md); only the walk names a mismatch.
            let same = Arc::ptr_eq(&n.hardware, &d.hardware) || n.hardware == d.hardware;
            let conforms = same && memory_gb == d.hardware.memory_gb();
            if conforms {
                Vec::new()
            } else {
                diff_hardware(&d.hardware, &n.hardware, memory_gb)
            }
        }
        _ => Vec::new(),
    };
    CheckReport {
        node: &n.name,
        reachable: n.condition.alive,
        described: described.is_some(),
        mismatches,
    }
}

/// Run the full g5k-checks pass on one node: probe it and compare with the
/// given Reference API description.
pub fn check_node<'t>(tb: &'t Testbed, desc: &TestbedDescription, node: NodeId) -> CheckReport<'t> {
    check_described(tb, node, describe_node(tb, desc, node))
}

/// Run g5k-checks on every node of `cluster`, in the cluster's order. The
/// cluster's description is looked up once and its nodes are paired with
/// the testbed's by position; a node whose name disagrees with the
/// description at its position is looked up by name, as [`check_node`]
/// does.
pub fn check_cluster<'a>(
    tb: &'a Testbed,
    desc: &'a TestbedDescription,
    cluster: &'a Cluster,
) -> impl Iterator<Item = CheckReport<'a>> + 'a {
    let described = desc.cluster(&cluster.name);
    cluster.nodes.iter().enumerate().map(move |(i, &node)| {
        let name = &tb.node(node).name;
        let paired = described
            .and_then(|c| c.nodes.get(i))
            .filter(|d| d.name == *name);
        check_described(tb, node, paired.or_else(|| describe_node(tb, desc, node)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};

    fn setup() -> (Testbed, TestbedDescription) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        (tb, desc)
    }

    #[test]
    fn pristine_testbed_passes_everywhere() {
        let (tb, desc) = setup();
        for node in tb.nodes() {
            let r = check_node(&tb, &desc, node.id);
            assert!(r.passed(), "{}: {:?}", r.node, r.mismatches);
        }
    }

    #[test]
    fn cluster_sweep_equals_one_check_per_node() {
        let (mut tb, mut desc) = setup();
        let alpha = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        tb.apply_fault(
            FaultKind::CpuCStatesDrift,
            FaultTarget::Node(alpha[1]),
            SimTime::ZERO,
        )
        .unwrap();
        // Out of position: the sweep falls back to the name lookup.
        desc.sites[0].clusters[0].nodes.swap(2, 3);
        let sweep = |tb: &Testbed, desc: &TestbedDescription| {
            let cl = tb.cluster_by_name("alpha").unwrap();
            let swept: Vec<_> = check_cluster(tb, desc, cl).collect();
            let one_by_one: Vec<_> = cl.nodes.iter().map(|&n| check_node(tb, desc, n)).collect();
            assert_eq!(swept, one_by_one);
            swept.iter().filter(|r| !r.passed()).count()
        };
        assert_eq!(sweep(&tb, &desc), 1);
        // A node the description lost is undescribed, not paired with its
        // neighbour's description.
        desc.sites[0].clusters[0].nodes.remove(0);
        assert_eq!(sweep(&tb, &desc), 2);
    }

    #[test]
    fn every_part_is_probed_under_its_key() {
        // Each part of the hardware answers under the key OHAI would
        // report it by.
        let tb = TestbedBuilder::small().build();
        let hw: &NodeHardware = &tb.nodes()[0].hardware;
        let memory = hw.memory_gb();
        type Drift = fn(&mut NodeHardware);
        let drifted: [(&str, Drift); 6] = [
            ("cpu/model", |h| h.cpu.model.push('!')),
            ("cpu/cstates", |h| h.cpu.cstates_enabled ^= true),
            ("disk/sda/firmware", |h| h.disks[0].firmware.push('!')),
            ("network/eth0/rate_gbps", |h| h.nics[0].rate_gbps += 1),
            ("bios/version", |h| h.bios.version.push('!')),
            ("bios/setting/boot_mode", |h| {
                h.bios.settings.insert("boot_mode".into(), "uefi".into());
            }),
        ];
        for (key, drift) in drifted {
            let mut probed = hw.clone();
            drift(&mut probed);
            let keys: Vec<String> = diff_hardware(hw, &probed, memory)
                .into_iter()
                .map(|m| m.key)
                .collect();
            assert_eq!(keys, [key]);
        }
        assert_eq!(diff_hardware(hw, hw, memory), []);
        let m = &diff_hardware(hw, hw, memory - 1)[0];
        assert_eq!(m.key, "memory/total_gb");
        assert_eq!(
            (m.expected.clone(), m.actual.clone()),
            (memory.to_string(), (memory - 1).to_string())
        );
    }

    #[test]
    fn ib_keys_only_on_ib_nodes() {
        let tb = TestbedBuilder::small().build();
        let ib = tb.clusters().iter().find(|c| c.has_ib).unwrap().nodes[0];
        let plain = tb.clusters().iter().find(|c| !c.has_ib).unwrap().nodes[0];
        let (ib, plain) = (&tb.node(ib).hardware, &tb.node(plain).hardware);
        let d = diff_hardware(ib, plain, plain.memory_gb());
        let hca = d.iter().find(|m| m.key == "infiniband/hca").unwrap();
        assert_eq!(hca.actual, "<absent>");
        let d = diff_hardware(plain, ib, ib.memory_gb());
        let hca = d.iter().find(|m| m.key == "infiniband/hca").unwrap();
        assert_eq!(hca.expected, "<absent>");
    }

    #[test]
    fn probed_only_keys_come_last() {
        // A key only the probe reports reads `<absent>` as its expectation
        // and follows every key the description has.
        let tb = TestbedBuilder::small().build();
        let hw: &NodeHardware = &tb.nodes()[0].hardware;
        let mut probed = hw.clone();
        let mut extra = probed.disks[0].clone();
        extra.device = "sdz".into();
        probed.disks.insert(0, extra);
        probed.nics[0].rate_gbps += 1;
        let d = diff_hardware(hw, &probed, hw.memory_gb());
        let keys: Vec<&str> = d.iter().map(|m| m.key.as_str()).collect();
        assert_eq!(keys[0], "network/eth0/rate_gbps");
        assert_eq!(&keys[1..], DISK.map(|(tail, _)| format!("disk/sdz{tail}")));
        assert!(d[1..].iter().all(|m| m.expected == "<absent>"));
    }

    #[test]
    fn cstates_drift_is_detected_with_the_right_key() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(
            FaultKind::CpuCStatesDrift,
            FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert_eq!(r.keys(), vec!["cpu/cstates"]);
        assert_eq!(r.mismatches[0].expected, "disabled");
        assert_eq!(r.mismatches[0].actual, "enabled");
    }

    #[test]
    fn firmware_drift_is_detected() {
        let (mut tb, desc) = setup();
        // alpha is disk-checkable.
        let n = tb.cluster_by_name("alpha").unwrap().nodes[0];
        tb.apply_fault(
            FaultKind::DiskFirmwareDrift,
            FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        let r = check_node(&tb, &desc, n);
        assert_eq!(r.keys(), vec!["disk/sda/firmware"]);
        assert_eq!(r.mismatches[0].actual, "GA63");
    }

    #[test]
    fn ht_drift_changes_thread_count_too() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(
            FaultKind::HyperthreadingDrift,
            FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        let r = check_node(&tb, &desc, n);
        let keys = r.keys();
        assert!(keys.contains(&"cpu/ht"));
        assert!(keys.contains(&"cpu/threads"));
    }

    #[test]
    fn failed_dimm_shows_reduced_memory() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(FaultKind::DimmFailure, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let r = check_node(&tb, &desc, n);
        assert_eq!(r.keys(), vec!["memory/total_gb"]);
        let m = &r.mismatches[0];
        let (expected, actual): (u32, u32) =
            (m.expected.parse().unwrap(), m.actual.parse().unwrap());
        assert!(actual < expected, "{actual} !< {expected}");
    }

    #[test]
    fn dead_node_reported_unreachable() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(
            FaultKind::CpuCStatesDrift,
            FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert!(!r.reachable);
        assert!(r.described);
        assert!(r.mismatches.is_empty(), "a dead node answers no probe");
    }

    #[test]
    fn behavioural_faults_are_invisible_to_node_checks() {
        // The ablation the paper motivates: per-node conformity checking
        // cannot see consoles, VLAN ports, monitoring wiring or flaky
        // reboots. These need behavioural tests.
        let (mut tb, desc) = setup();
        let cluster = &tb.clusters()[0];
        let (a, b) = (cluster.nodes[0], cluster.nodes[1]);
        for (kind, target) in [
            (FaultKind::ConsoleDead, FaultTarget::Node(a)),
            (FaultKind::VlanPortStuck, FaultTarget::Node(a)),
            (FaultKind::RandomReboots, FaultTarget::Node(a)),
            (FaultKind::KernelBootRace, FaultTarget::Node(a)),
            (FaultKind::CablingSwap, FaultTarget::NodePair(a, b)),
        ] {
            tb.apply_fault(kind, target, SimTime::ZERO).unwrap();
        }
        let r = check_node(&tb, &desc, a);
        assert!(
            r.passed(),
            "behavioural faults should not show up in probes: {:?}",
            r.mismatches
        );
    }

    #[test]
    fn undescribed_node_is_flagged() {
        let (tb, mut desc) = setup();
        // Remove one node from the description.
        desc.sites[0].clusters[0].nodes.remove(0);
        let n = tb.cluster_by_name("alpha").unwrap().nodes[0];
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert!(!r.described);
    }
}
