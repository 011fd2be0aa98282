//! The paper's hard numbers, locked in as integration tests.
//!
//! These are the claims that must hold *exactly* (they are structural, not
//! stochastic): testbed scale, matrix size, suite coverage.

use throughout::ci::{expand_axes, Axis};
use throughout::kadeploy::standard_images;
use throughout::suite::{build_suite, family_counts, Family};
use throughout::testbed::{TestbedBuilder, Vendor};

#[test]
fn slide6_testbed_scale() {
    let tb = TestbedBuilder::paper_scale().build();
    assert_eq!(tb.sites().len(), 8);
    assert_eq!(tb.clusters().len(), 32);
    assert_eq!(tb.nodes().len(), 894);
    assert_eq!(tb.total_cores(), 8490);
}

#[test]
fn slide15_matrix_is_448() {
    let images: Vec<String> = standard_images().iter().map(|e| e.name.clone()).collect();
    assert_eq!(images.len(), 14);
    let tb = TestbedBuilder::paper_scale().build();
    let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
    let axes = vec![Axis::new("image", images), Axis::new("cluster", clusters)];
    assert_eq!(expand_axes(&axes).len(), 448);
}

#[test]
fn slide21_suite_is_751() {
    let tb = TestbedBuilder::paper_scale().build();
    let suite = build_suite(&tb, &standard_images());
    assert_eq!(suite.len(), 751);
    let counts: std::collections::BTreeMap<Family, usize> =
        family_counts(&suite).into_iter().collect();
    // Slide 21's per-family split.
    let expected = [
        (Family::Environments, 448),
        (Family::StdEnv, 32),
        (Family::Refapi, 32),
        (Family::OarProperties, 32),
        (Family::DellBios, 18),
        (Family::OarState, 8),
        (Family::Cmdline, 8),
        (Family::SidApi, 8),
        (Family::ParallelDeploy, 32),
        (Family::MultiReboot, 32),
        (Family::MultiDeploy, 32),
        (Family::Console, 32),
        (Family::Kavlan, 9),
        (Family::Kwapi, 8),
        (Family::MpiGraph, 6),
        (Family::Disk, 14),
    ];
    for (family, n) in expected {
        assert_eq!(counts[&family], n, "{family}");
    }
    assert_eq!(expected.iter().map(|(_, n)| n).sum::<usize>(), 751);
}

#[test]
fn hardware_restricted_families_match_cluster_attributes() {
    let tb = TestbedBuilder::paper_scale().build();
    let dell = tb.clusters().iter().filter(|c| c.vendor == Vendor::Dell).count();
    let ib = tb.clusters().iter().filter(|c| c.has_ib).count();
    let disk = tb.clusters().iter().filter(|c| c.disk_checkable).count();
    assert_eq!((dell, ib, disk), (18, 6, 14));
    // The restricted families target exactly those clusters.
    let suite = build_suite(&tb, &standard_images());
    for cfg in &suite {
        if let throughout::suite::Target::Cluster(name) = &cfg.target {
            let cluster = tb.cluster_by_name(name).unwrap();
            match cfg.family {
                Family::DellBios => assert_eq!(cluster.vendor, Vendor::Dell),
                Family::MpiGraph => assert!(cluster.has_ib),
                Family::Disk => assert!(cluster.disk_checkable),
                _ => {}
            }
        }
    }
}

#[test]
fn paper_request_parses_exactly() {
    // Slide 7's oarsub line.
    let req = throughout::oar::parse_request(
        "cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2",
        throughout::sim::SimDuration::from_hours(1),
    )
    .unwrap();
    assert_eq!(req.groups.len(), 2);
    assert_eq!(req.walltime, throughout::sim::SimDuration::from_hours(2));
}

#[test]
fn gpu_property_selects_the_gpu_cluster() {
    // The paper's example selects on gpu='YES'; grele is our GPU cluster.
    let tb = TestbedBuilder::paper_scale().build();
    let desc = throughout::refapi::describe(&tb, 1, throughout::sim::SimTime::ZERO);
    let db = throughout::refapi::all_properties(&desc);
    let gpu_hosts: Vec<&String> = db
        .iter()
        .filter(|(_, p)| p["gpu"].render() == "YES")
        .map(|(h, _)| h)
        .collect();
    assert_eq!(gpu_hosts.len(), 10, "grele has 10 nodes");
    assert!(gpu_hosts.iter().all(|h| h.starts_with("grele-")));
}
