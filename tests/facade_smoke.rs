//! Smoke test for the `throughout` facade: every re-exported subsystem is
//! reachable through the facade path, and the paper-scale topology matches
//! the documented 8 sites / 32 clusters / 894 nodes.

use throughout::testbed::gen::TestbedBuilder;

/// The facade's headline claim (also the crate-level doctest): paper scale.
#[test]
fn paper_scale_matches_documented_topology() {
    let tb = TestbedBuilder::paper_scale().build();
    assert_eq!(tb.sites().len(), 8, "8 sites");
    assert_eq!(tb.clusters().len(), 32, "32 clusters");
    assert_eq!(tb.nodes().len(), 894, "894 nodes");
}

/// Touch one item behind each facade re-export so a missing or misrouted
/// `pub use` in `src/lib.rs` fails this test rather than only downstream
/// consumers.
#[test]
fn every_reexport_is_reachable() {
    use throughout::sim::{SimDuration, SimTime};

    // sim: time arithmetic and named RNG streams.
    assert_eq!(SimTime::ZERO + SimDuration::from_hours(2), SimTime::from_secs(7200));
    let _rng = throughout::sim::rng::stream_rng(42, "smoke");

    // testbed: the small topology builds too.
    let tb = TestbedBuilder::small().build();
    assert!(!tb.nodes().is_empty());

    // refapi: describing the testbed yields one description per site.
    let desc = throughout::refapi::describe(&tb, 1, SimTime::ZERO);
    assert_eq!(desc.sites.len(), tb.sites().len());

    // oar: the paper's request syntax parses.
    let req =
        throughout::oar::parse_request("{cluster='grisou'}/nodes=2,walltime=1", SimDuration::from_hours(1))
            .unwrap();
    assert_eq!(req.groups.len(), 1);

    // kadeploy: the standard image list is the paper's 14.
    assert_eq!(throughout::kadeploy::standard_images().len(), 14);

    // kavlan: the default VLAN exists.
    let _ = throughout::kavlan::DEFAULT_VLAN;

    // kwapi: an empty ring series is empty.
    assert_eq!(throughout::kwapi::RingSeries::new(16, SimDuration::from_secs(60)).raw_len(), 0);

    // nodecheck: a node checks clean against a fresh description.
    let full = TestbedBuilder::paper_scale().build();
    let full_desc = throughout::refapi::describe(&full, 1, SimTime::ZERO);
    let node = full.nodes()[0].id;
    let report = throughout::nodecheck::check_node(&full, &full_desc, node);
    assert!(report.passed(), "fresh node conforms to fresh description");

    // ci: a 2x3 matrix expands to 6 cells.
    let axes = vec![
        throughout::ci::Axis::new("a", ["1", "2"]),
        throughout::ci::Axis::new("b", ["x", "y", "z"]),
    ];
    assert_eq!(throughout::ci::expand_axes(&axes).len(), 6);

    // suite: the paper-scale suite is 751 configurations.
    let suite = throughout::suite::build_suite(&full, &throughout::kadeploy::standard_images());
    assert_eq!(suite.len(), 751);

    // jobsched: a scheduler over no entries makes no decisions.
    let sched = throughout::jobsched::ExternalScheduler::new(
        throughout::jobsched::PolicyConfig::default(),
        Vec::new(),
    );
    assert!(sched.entries().is_empty());

    // bugs: an empty tracker has filed nothing.
    assert_eq!(throughout::bugs::BugTracker::new().filed(), 0);

    // status: a grid over no jobs holds no cells.
    let grid = throughout::status::StatusGrid::from_jobs(&[]);
    assert!(grid.cell("environments", "grisou").is_none());

    // core: the paper scenario config targets the paper testbed.
    let cfg = throughout::core::scenario::paper_scenario(2017);
    assert!(cfg.duration > SimDuration::ZERO);

    // scengen: a seed expands into a runnable scenario spec.
    let spec = throughout::scengen::ScenarioSpec::from_seed(2017);
    assert!(spec.node_count() > 0);
}
