//! Experiment E11 (slide 8): "200 nodes deployed in ~5 minutes".
//!
//! Sweeps deployment size and prints the makespan series, separating the
//! clean path (no per-node failures) from the default failure/retry model.
//!
//! Run with: `cargo run --release --example deploy_campaign`

use throughout::kadeploy::{standard_images, DeployConfig, Deployer};
use throughout::sim::rng::stream_rng;
use throughout::testbed::{NodeId, TestbedBuilder};

fn main() {
    let tb = TestbedBuilder::paper_scale().build();
    let env = standard_images()
        .into_iter()
        .find(|e| e.name == "debian9-base")
        .unwrap();

    // Take nodes from the two big nancy clusters, as a real 200-node
    // deployment there would.
    let mut pool: Vec<NodeId> = tb.cluster_by_name("graphene").unwrap().nodes.clone();
    pool.extend(tb.cluster_by_name("griffon").unwrap().nodes.iter().copied());

    let clean = Deployer::new(DeployConfig {
        step_fail_prob: 0.0,
        ..Default::default()
    });
    let default = Deployer::default();

    println!("image: {} ({} MB)", env.name, env.size_mb);
    println!("{:>6} {:>14} {:>18} {:>10}", "nodes", "clean (min)", "with retries (min)", "success");
    for &n in &[25usize, 50, 100, 150, 200, 232] {
        let nodes = &pool[..n.min(pool.len())];
        let mut tb1 = tb.clone();
        let mut rng = stream_rng(1, "deploy-sweep-clean");
        let r_clean = clean.deploy(&mut tb1, &env, nodes, &mut rng);
        let mut tb2 = tb.clone();
        let mut rng = stream_rng(1, "deploy-sweep-default");
        let r_def = default.deploy(&mut tb2, &env, nodes, &mut rng);
        println!(
            "{:>6} {:>14.1} {:>18.1} {:>9.1}%",
            nodes.len(),
            r_clean.makespan.as_mins_f64(),
            r_def.makespan.as_mins_f64(),
            r_def.success_ratio() * 100.0
        );
    }
    println!("\npaper reference point: 200 nodes ≈ 5 minutes");
}
