//! Model-based check of the typed bug → fault matcher.
//!
//! `find_fault` takes a [`Signature`] and keeps one rule: among the active
//! faults whose kind lists the symptom and whose target is the subject, the
//! one whose canonical symptom it is, else the first. The reference below is
//! the string matcher it replaced, copied verbatim with the symptom column
//! it read (then `&str`s) beside it: an exact pass on the fault's own
//! `kind@target`, then the symptom column. The two must answer alike for
//! every symptom on every subject shape a diagnostic carries — host names,
//! service, site and link renderings, a single link endpoint, an unknown
//! name, the empty subject — over random testbeds carrying random active
//! sets of all 23 kinds. The one difference is a subject that renders a
//! node *id*, which no diagnostic files: the reference's exact pass matches
//! it against the id, the typed matcher only ever against host names.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;
use ttt_sim::SimTime;
use ttt_testbed::fault::inject_random;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::{
    find_fault, Fault, FaultKind, FaultTarget, NodeId, ServiceKind, Signature, SiteId, Symptom,
    Testbed, TestbedBuilder, Vendor,
};

/// The catalogue's symptom column before it held `Symptom`s, by kind.
const STRING_SYMPTOMS: [&[&str]; 23] = [
    &["disk-write-cache"],
    &["disk-firmware"],
    &["cpu-cstates"],
    &["cpu-ht"],
    &["cpu-turbo"],
    &["bios-version"],
    &["dimm-failure"],
    &["nic-downgrade"],
    &["cabling-swap"],
    &["boot-delay", "deploy-failure"],
    &["boot-failure", "deploy-failure"],
    &["ofed-flaky"],
    &["console-dead"],
    &["vlan-port-stuck"],
    &["service-flaky", "service-down"],
    &["service-down", "service-flaky"],
    &["node-dead", "deploy-failure"],
    &["site-power-outage"],
    &["site-link-partition"],
    &["clock-skew"],
    &["service-crash", "service-restart"],
    &["service-restart", "service-crash"],
    &["rpc-degraded"],
];

/// Whether `value` renders as exactly `expected`, decided piece by piece as
/// `Display` writes them: nothing is formatted into a string.
fn renders_as(value: impl fmt::Display, expected: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    use fmt::Write as _;
    let mut rest = Rest(expected);
    write!(rest, "{value}").is_ok() && rest.0.is_empty()
}

/// The string matcher, as it was.
fn reference<'a>(tb: &'a Testbed, bug_signature: &str) -> Option<&'a Fault> {
    // No catalogue name contains '@', so a fault's signature splits here too.
    let (prefix, subject) = bug_signature.split_once('@')?;
    let active = tb.active_faults();
    if let Some(exact) = active
        .iter()
        .find(|f| f.kind.name() == prefix && renders_as(f.target, subject))
    {
        return Some(exact);
    }
    let mut showing = active
        .iter()
        .filter(|f| STRING_SYMPTOMS[f.kind as usize].contains(&prefix))
        .peekable();
    showing.peek()?;
    // Diagnostics name nodes by host name, fault targets by id.
    let node = tb.node_by_name(subject).map(|n| n.id);
    showing.find(|f| match (f.target, node) {
        (FaultTarget::Node(n), Some(id)) => n == id,
        (FaultTarget::NodePair(a, b), Some(id)) => a == id || b == id,
        (FaultTarget::Node(_) | FaultTarget::NodePair(..), None) => false,
        // Identical for the flaky/down and crash/restart pairs on the
        // same service.
        (FaultTarget::Service(..) | FaultTarget::Site(..), _) => renders_as(f.target, subject),
        // A partition diagnostic may name the pair or a single endpoint.
        (FaultTarget::SiteLink(a, b), _) => {
            renders_as(f.target, subject) || renders_as(a, subject) || renders_as(b, subject)
        }
    })
}

/// A random testbed of 1–4 sites. Some cluster names make host names
/// collide with other renderings: cluster `node` names its hosts like node
/// ids, cluster `site` like site ids.
fn random_testbed(rng: &mut SmallRng) -> Testbed {
    let mut names = ["node", "site", "alpha", "beta", "gamma", "delta", "omega"];
    names.shuffle(rng);
    let sites = rng.gen_range(1..=4usize);
    let clusters = rng.gen_range(sites..=names.len());
    let vendors = [Vendor::Dell, Vendor::Hp, Vendor::Bull, Vendor::Ibm];
    let specs = names[..clusters]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ClusterSpec::new(
                name,
                &format!("s{}", i % sites),
                rng.gen_range(1..=5u32),
                [4, 8, 16][rng.gen_range(0..3usize)],
                vendors[rng.gen_range(0..vendors.len())],
                rng.gen_bool(0.5),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    TestbedBuilder::from_specs(specs).build()
}

/// Random arrivals of all 23 kinds, then what makes the rule's tie-breaks
/// matter: flaky and down on one service, crash and restart tried on
/// another, and partitions sharing one endpoint.
fn random_faults(tb: &mut Testbed, rng: &mut SmallRng) {
    for _ in 0..rng.gen_range(0..48u32) {
        let kind = FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())];
        inject_random(kind, SimTime::ZERO, tb, rng);
    }
    let sites = tb.sites().len() as u16;
    for mut pair in [
        [FaultKind::ServiceFlaky, FaultKind::ServiceDown],
        [FaultKind::ServiceCrash, FaultKind::ServiceRestart],
    ] {
        let service = ServiceKind::ALL[rng.gen_range(0..ServiceKind::ALL.len())];
        let target = FaultTarget::Service(SiteId(rng.gen_range(0..sites)), service);
        pair.shuffle(rng);
        for kind in pair {
            tb.apply_fault(kind, target, SimTime::ZERO);
        }
    }
    let hub = SiteId(rng.gen_range(0..sites));
    for other in (0..sites).map(SiteId).filter(|&s| s != hub) {
        if rng.gen_bool(0.7) {
            tb.apply_fault(FaultKind::SiteLinkPartition, FaultTarget::SiteLink(hub, other), SimTime::ZERO);
        }
    }
}

/// Every subject a diagnostic can carry on `tb`, then every node id's
/// rendering (the stated difference).
fn subjects(tb: &Testbed) -> Vec<String> {
    let mut out: Vec<String> = tb.nodes().iter().map(|n| n.name.clone()).collect();
    let sites: Vec<SiteId> = tb.sites().iter().map(|s| s.id).collect();
    for &a in &sites {
        out.push(a.to_string());
        for kind in ServiceKind::ALL {
            out.push(FaultTarget::Service(a, kind).to_string());
        }
        for &b in &sites {
            out.push(FaultTarget::SiteLink(a, b).to_string());
        }
    }
    out.push("nowhere-1".into());
    out.push(String::new());
    out.extend(tb.nodes().iter().map(|n| n.id.to_string()));
    out
}

/// Whether `f` sits on the host named `subject`.
fn on_host(tb: &Testbed, f: &Fault, subject: &str) -> bool {
    let host = |n: NodeId| tb.node(n).name == subject;
    match f.target {
        FaultTarget::Node(n) => host(n),
        FaultTarget::NodePair(a, b) => host(a) || host(b),
        _ => false,
    }
}

#[test]
fn typed_matcher_answers_as_the_string_matcher() {
    let mut collisions = 0;
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tb = random_testbed(&mut rng);
        random_faults(&mut tb, &mut rng);
        for subject in subjects(&tb) {
            for symptom in Symptom::ALL {
                let signature: Signature = symptom.on(&subject);
                let typed = find_fault(&tb, &signature);
                let string = reference(&tb, &format!("{}@{subject}", symptom.name()));
                if typed == string {
                    continue;
                }
                // The stated difference: the reference's exact pass read the
                // subject as a node id; the typed answer, if any, sits on
                // the host of that name.
                let by_id = string.expect("only the exact pass finds more");
                let id = subject.strip_prefix("node-").and_then(|n| n.parse().ok());
                assert!(
                    id.map(|n| FaultTarget::Node(NodeId(n))) == Some(by_id.target)
                        && by_id.kind.name() == symptom.name()
                        && !on_host(&tb, by_id, &subject)
                        && typed.is_none_or(|f| on_host(&tb, f, &subject)),
                    "seed {seed}: {signature} → {typed:?}, reference {string:?}"
                );
                collisions += 1;
            }
        }
    }
    assert!(collisions > 0, "no world exercised a node-id subject");
}
