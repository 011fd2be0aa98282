//! Testbed generation.
//!
//! [`TestbedBuilder::paper_scale`] emits the configuration the paper reports
//! on slide 6 — **8 sites, 32 clusters, 894 nodes, 8490 cores** — with the
//! heterogeneity the paper blames for many bugs: hardware of different ages
//! and vendors, some clusters with Infiniband, some with introspectable HDD
//! arrays, one with GPUs. Counts of Dell (18), Infiniband (6) and
//! disk-checkable (14) clusters are chosen so the default test suite
//! reproduces the paper's 751 test configurations exactly (slide 21; the
//! per-family split is pinned by `tests/paper_numbers.rs::slide21_suite_is_751`).

use crate::cluster::Cluster;
use crate::hardware::*;
use crate::ids::{ClusterId, NodeId, PduId, SiteId, SwitchId};
use crate::node::{Node, NodeCondition};
use crate::site::Site;
use crate::testbed::Testbed;
use crate::topology::{Pdu, PortRef, Switch, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Specification of one cluster to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Cluster name.
    pub name: String,
    /// Site name (sites are created on first use, in order of appearance).
    pub site: String,
    /// Number of nodes.
    pub nodes: u32,
    /// Physical cores per node.
    pub cores_per_node: u32,
    /// Chassis vendor.
    pub vendor: Vendor,
    /// Whether nodes carry Infiniband HCAs.
    pub has_ib: bool,
    /// Whether the `disk` test family can introspect the disks.
    pub disk_checkable: bool,
    /// Whether nodes carry GPUs.
    pub has_gpu: bool,
}

impl ClusterSpec {
    /// Convenience constructor (GPU-less; chain [`ClusterSpec::with_gpu`]).
    pub fn new(
        name: &str,
        site: &str,
        nodes: u32,
        cores_per_node: u32,
        vendor: Vendor,
        has_ib: bool,
        disk_checkable: bool,
    ) -> Self {
        ClusterSpec {
            name: name.into(),
            site: site.into(),
            nodes,
            cores_per_node,
            vendor,
            has_ib,
            disk_checkable,
            has_gpu: false,
        }
    }

    /// Mark the cluster's nodes as carrying GPUs.
    pub fn with_gpu(mut self) -> Self {
        self.has_gpu = true;
        self
    }
}

/// Builds [`Testbed`]s from cluster specifications.
#[derive(Debug, Clone)]
pub struct TestbedBuilder {
    specs: Vec<ClusterSpec>,
}

impl TestbedBuilder {
    /// Build from explicit specifications.
    pub fn from_specs(specs: Vec<ClusterSpec>) -> Self {
        TestbedBuilder { specs }
    }

    /// The paper-scale testbed: 8 sites, 32 clusters, 894 nodes, 8490 cores.
    pub fn paper_scale() -> Self {
        use Vendor::*;
        let s = |n, st, nn, c, v, ib, dc| ClusterSpec::new(n, st, nn, c, v, ib, dc);
        TestbedBuilder {
            specs: vec![
                // nancy (7 clusters)
                s("graphene", "nancy", 140, 4, Dell, true, false),
                s("griffon", "nancy", 92, 8, Dell, true, false),
                s("graphite", "nancy", 7, 16, Dell, false, false),
                s("grimoire", "nancy", 8, 16, Dell, false, true),
                s("grisou", "nancy", 24, 16, Dell, false, true),
                s("grele", "nancy", 10, 12, Dell, true, false).with_gpu(),
                s("griffu", "nancy", 10, 20, Dell, false, false),
                // rennes (5 clusters)
                s("paravance", "rennes", 38, 16, Dell, false, true),
                s("parapide", "rennes", 24, 8, Dell, true, false),
                s("parasilo", "rennes", 22, 16, Dell, false, true),
                s("parasol", "rennes", 19, 4, Ibm, false, true),
                s("paranoia", "rennes", 8, 20, Ibm, false, false),
                // lyon (5 clusters)
                s("sagittaire", "lyon", 79, 4, Bull, false, false),
                s("taurus", "lyon", 12, 12, Bull, false, false),
                s("orion", "lyon", 4, 12, Bull, false, false),
                s("nova", "lyon", 15, 16, Bull, false, true),
                s("hercule", "lyon", 4, 12, Bull, false, false),
                // grenoble (3 clusters)
                s("edel", "grenoble", 65, 8, Hp, true, false),
                s("genepi", "grenoble", 32, 8, Hp, true, false),
                s("adonis", "grenoble", 10, 8, Hp, false, false),
                // lille (4 clusters)
                s("chetemi", "lille", 13, 20, Dell, false, true),
                s("chifflet", "lille", 8, 24, Dell, false, true),
                s("chinqchint", "lille", 31, 20, Ibm, false, false),
                s("chiclet", "lille", 15, 10, Dell, false, true),
                // luxembourg (2 clusters)
                s("granduc", "luxembourg", 20, 8, Hp, false, false),
                s("petitprince", "luxembourg", 14, 12, Hp, false, false),
                // nantes (2 clusters)
                s("econome", "nantes", 18, 16, Dell, false, true),
                s("ecotype", "nantes", 21, 20, Dell, false, true),
                // sophia (4 clusters)
                s("suno", "sophia", 44, 8, Dell, false, true),
                s("uvb", "sophia", 37, 8, Dell, false, true),
                s("helios", "sophia", 37, 4, Ibm, false, false),
                s("sphene", "sophia", 13, 12, Dell, false, true),
            ],
        }
    }

    /// A grid-of-grids testbed: `sites` sites of `clusters_per_site`
    /// clusters of `nodes_per_cluster` nodes each, pushing past the
    /// paper's 8 sites toward the hundreds-of-sites regime. Names are
    /// collision-free by construction — site `g{s}`, cluster `g{s}c{c}`,
    /// node `g{s}c{c}-{n}` — and the hardware
    /// mix cycles through the paper's heterogeneity axes (vendor, core
    /// count, Infiniband, introspectable disks, one GPU cluster per site)
    /// so every test family finds targets at any scale.
    #[cfg(test)]
    pub fn grid_of_grids(sites: u32, clusters_per_site: u32, nodes_per_cluster: u32) -> Self {
        TestbedBuilder {
            specs: grid_specs(sites, clusters_per_site, nodes_per_cluster),
        }
    }

    /// A small testbed (2 sites, 4 clusters, 14 nodes) for fast tests.
    pub fn small() -> Self {
        use Vendor::*;
        TestbedBuilder {
            specs: vec![
                ClusterSpec::new("alpha", "east", 4, 8, Dell, true, true),
                ClusterSpec::new("beta", "east", 4, 16, Dell, false, false),
                ClusterSpec::new("gamma", "west", 3, 4, Hp, false, true),
                ClusterSpec::new("delta", "west", 3, 12, Bull, false, false),
            ],
        }
    }

    /// The cluster specifications this builder will realize.
    pub fn specs(&self) -> &[ClusterSpec] {
        &self.specs
    }

    /// Generate the testbed.
    ///
    /// Panics when the specification overflows an id width: the arenas
    /// index by dense copy ids (`u16` clusters/sites/switches/PDUs, `u32`
    /// nodes), and a hundreds-of-sites generator must fail loudly here
    /// instead of wrapping two entities onto one aliased id.
    pub fn build(self) -> Testbed {
        assert!(
            self.specs.len() <= u16::MAX as usize,
            "{} clusters overflow the u16 cluster/switch/pdu id space",
            self.specs.len()
        );
        let total_nodes: u64 = self.specs.iter().map(|s| s.nodes as u64).sum();
        assert!(
            total_nodes <= u32::MAX as u64,
            "{total_nodes} nodes overflow the u32 node id space"
        );
        for spec in &self.specs {
            // Switch ports are u16 and reserve 8 uplink ports.
            assert!(
                spec.nodes <= (u16::MAX - 8) as u32,
                "cluster {} has {} nodes, more than one switch can port",
                spec.name,
                spec.nodes
            );
        }
        let mut sites: Vec<Site> = Vec::new();
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut topology = Topology::default();

        for spec in &self.specs {
            let site_id = match sites.iter().position(|s| s.name == spec.site) {
                Some(i) => SiteId(i as u16),
                None => {
                    let id = SiteId(sites.len() as u16);
                    sites.push(Site {
                        id,
                        name: spec.site.clone(),
                        clusters: Vec::new(),
                        switches: Vec::new(),
                    });
                    id
                }
            };
            let cluster_id = ClusterId(clusters.len() as u16);
            sites[site_id.index()].clusters.push(cluster_id);

            // One switch and one PDU per cluster.
            let switch_id = SwitchId(topology.switches.len() as u16);
            topology.switches.push(Switch {
                id: switch_id,
                site: site_id,
                name: format!("sw-{}", spec.name),
                ports: spec.nodes as u16 + 8,
            });
            sites[site_id.index()].switches.push(switch_id);
            let pdu_id = PduId(topology.pdus.len() as u16);
            topology.pdus.push(Pdu {
                id: pdu_id,
                site: site_id,
                ports: spec.nodes as u16,
            });

            let reference = Arc::new(reference_hardware(spec));
            let mut member_ids = Vec::with_capacity(spec.nodes as usize);
            for i in 0..spec.nodes {
                let node_id = NodeId(nodes.len() as u32);
                member_ids.push(node_id);
                topology.attach_node(
                    node_id,
                    PortRef {
                        switch: switch_id,
                        port: i as u16 + 1,
                    },
                );
                nodes.push(Node {
                    id: node_id,
                    name: format!("{}-{}", spec.name, i + 1),
                    cluster: cluster_id,
                    site: site_id,
                    hardware: Arc::clone(&reference),
                    condition: NodeCondition::default(),
                });
            }

            clusters.push(Cluster {
                id: cluster_id,
                name: spec.name.clone(),
                site: site_id,
                vendor: spec.vendor,
                nodes: member_ids,
                has_ib: spec.has_ib,
                disk_checkable: spec.disk_checkable,
                reference,
            });
        }

        // Full-mesh backbone between sites (SiteLinkPartition faults take
        // individual links down).
        topology.mesh_sites(sites.len());
        Testbed::from_parts(sites, clusters, nodes, topology)
    }
}

/// The cluster specifications behind [`TestbedBuilder::grid_of_grids`],
/// exposed so scenario presets can wrap them in a `TestbedScale::Custom`.
/// Deterministic in its arguments; no two clusters (and hence no two
/// nodes) anywhere in the grid share a name.
pub fn grid_specs(sites: u32, clusters_per_site: u32, nodes_per_cluster: u32) -> Vec<ClusterSpec> {
    const VENDORS: [Vendor; 4] = [Vendor::Dell, Vendor::Hp, Vendor::Bull, Vendor::Ibm];
    const CORES: [u32; 4] = [8, 16, 12, 20];
    let mut specs = Vec::with_capacity((sites as usize) * (clusters_per_site as usize));
    for s in 0..sites {
        let site = format!("g{s}");
        for c in 0..clusters_per_site {
            // Cycle the heterogeneity axes with per-site phase shifts so
            // neighbouring sites differ, like the real federation does.
            let k = (s + c) as usize;
            let mut spec = ClusterSpec::new(
                &format!("g{s}c{c}"),
                &site,
                nodes_per_cluster,
                CORES[k % CORES.len()],
                VENDORS[k % VENDORS.len()],
                k % 4 == 1,
                k.is_multiple_of(3),
            );
            if c == clusters_per_site - 1 && s.is_multiple_of(4) {
                spec = spec.with_gpu();
            }
            specs.push(spec);
        }
    }
    specs
}

/// The CPU generation for a given per-node core count (2017-era parts).
fn cpu_for_cores(cores: u32) -> CpuSpec {
    let (model, microarch, per_socket, mhz, driver) = match cores {
        4 => ("Intel Xeon 5110", "Woodcrest", 2, 1600, PstateDriver::AcpiCpufreq),
        8 => ("Intel Xeon L5420", "Harpertown", 4, 2500, PstateDriver::AcpiCpufreq),
        10 => ("Intel Xeon E5-2650L", "Sandy Bridge", 5, 1800, PstateDriver::IntelPstate),
        12 => ("Intel Xeon E5-2620", "Sandy Bridge", 6, 2000, PstateDriver::IntelPstate),
        16 => ("Intel Xeon E5-2630 v3", "Haswell", 8, 2400, PstateDriver::IntelPstate),
        20 => ("Intel Xeon E5-2660 v2", "Ivy Bridge", 10, 2200, PstateDriver::IntelPstate),
        24 => ("Intel Xeon E5-2680 v3", "Haswell", 12, 2500, PstateDriver::IntelPstate),
        _ => ("Intel Xeon E5-2600", "Generic", (cores / 2).max(1), 2100, PstateDriver::IntelPstate),
    };
    CpuSpec {
        model: model.into(),
        microarch: microarch.into(),
        sockets: 2,
        cores_per_socket: per_socket as u8,
        threads_per_core: 1,
        base_freq_mhz: mhz,
        turbo_enabled: false,
        ht_enabled: false,
        cstates_enabled: false,
        pstate_driver: driver,
    }
}

/// Memory bank for a given core count (grows with node generation).
fn mem_for_cores(cores: u32) -> MemSpec {
    match cores {
        4 => MemSpec::uniform(4, 2, 667),
        8 => MemSpec::uniform(4, 4, 800),
        10 => MemSpec::uniform(8, 8, 1600),
        12 => MemSpec::uniform(8, 4, 1333),
        16 => MemSpec::uniform(8, 16, 2133),
        20 => MemSpec::uniform(8, 16, 1866),
        24 => MemSpec::uniform(16, 16, 2133),
        _ => MemSpec::uniform(8, 8, 1600),
    }
}

/// BIOS version/settings per vendor.
fn bios_for(vendor: Vendor) -> BiosSpec {
    let version = match vendor {
        Vendor::Dell => "2.4.3",
        Vendor::Hp => "P68-2015.07.01",
        Vendor::Bull => "BIOSX07",
        Vendor::Ibm => "1.42",
    };
    let mut settings = BTreeMap::new();
    settings.insert("boot_mode".to_string(), "bios".to_string());
    settings.insert("power_profile".to_string(), "performance".to_string());
    BiosSpec {
        vendor,
        version: version.into(),
        settings,
    }
}

/// Full reference hardware for a cluster spec.
fn reference_hardware(spec: &ClusterSpec) -> NodeHardware {
    let cpu = cpu_for_cores(spec.cores_per_node);
    let old_generation = spec.cores_per_node <= 8;
    let disks = if spec.disk_checkable {
        vec![
            DiskSpec {
                device: "sda".into(),
                vendor: "Seagate".into(),
                model: "ST1000NM0033".into(),
                firmware: "GA67".into(),
                size_gb: 1000,
                kind: DiskKind::Hdd,
                write_cache: true,
                read_cache: true,
                interface: DiskInterface::Sata,
            },
            DiskSpec {
                device: "sdb".into(),
                vendor: "Seagate".into(),
                model: "ST1000NM0033".into(),
                firmware: "GA67".into(),
                size_gb: 1000,
                kind: DiskKind::Hdd,
                write_cache: true,
                read_cache: true,
                interface: DiskInterface::Sata,
            },
        ]
    } else if old_generation {
        vec![DiskSpec {
            device: "sda".into(),
            vendor: "Western Digital".into(),
            model: "WD2502ABYS".into(),
            firmware: "02.03B03".into(),
            size_gb: 250,
            kind: DiskKind::Hdd,
            write_cache: true,
            read_cache: true,
            interface: DiskInterface::Sata,
        }]
    } else {
        vec![DiskSpec {
            device: "sda".into(),
            vendor: "Intel".into(),
            model: "SSDSC2BX200G4R".into(),
            firmware: "G2010150".into(),
            size_gb: 200,
            kind: DiskKind::Ssd,
            write_cache: true,
            read_cache: true,
            interface: DiskInterface::Sata,
        }]
    };

    let nics = vec![
        NicSpec {
            name: "eth0".into(),
            model: if old_generation {
                "Broadcom NetXtreme II".into()
            } else {
                "Intel 82599ES".into()
            },
            driver: if old_generation { "bnx2".into() } else { "ixgbe".into() },
            firmware: if old_generation { "4.6.0".into() } else { "0x800003df".into() },
            rate_gbps: if old_generation { 1 } else { 10 },
            mounted: true,
        },
        NicSpec {
            name: "eth1".into(),
            model: "Intel I350".into(),
            driver: "igb".into(),
            firmware: "1.63".into(),
            rate_gbps: 1,
            mounted: false,
        },
    ];

    NodeHardware {
        cpu,
        mem: mem_for_cores(spec.cores_per_node),
        disks,
        nics,
        bios: bios_for(spec.vendor),
        ib: spec.has_ib.then(|| IbSpec {
            hca: "Mellanox ConnectX-3".into(),
            rate_gbps: if old_generation { 40 } else { 56 },
        }),
        gpu: spec.has_gpu.then(|| GpuSpec {
            model: "Nvidia Tesla K40".into(),
            count: 2,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_slide_6() {
        let tb = TestbedBuilder::paper_scale().build();
        assert_eq!(tb.sites().len(), 8, "8 sites");
        assert_eq!(tb.clusters().len(), 32, "32 clusters");
        assert_eq!(tb.nodes().len(), 894, "894 nodes");
        assert_eq!(tb.total_cores(), 8490, "8490 cores");
    }

    #[test]
    fn family_counts_match_design() {
        let tb = TestbedBuilder::paper_scale().build();
        let dell = tb
            .clusters()
            .iter()
            .filter(|c| c.vendor == Vendor::Dell)
            .count();
        let ib = tb.clusters().iter().filter(|c| c.has_ib).count();
        let disk = tb.clusters().iter().filter(|c| c.disk_checkable).count();
        assert_eq!(dell, 18, "dellbios targets");
        assert_eq!(ib, 6, "mpigraph targets");
        assert_eq!(disk, 14, "disk targets");
    }

    #[test]
    fn nodes_start_sharing_their_reference() {
        let tb = TestbedBuilder::paper_scale().build();
        for c in tb.clusters() {
            for &n in &c.nodes {
                let hw = &tb.node(n).hardware;
                assert!(Arc::ptr_eq(hw, &c.reference), "node {n} of {}", c.name);
            }
        }
    }

    #[test]
    fn node_names_and_sites_consistent() {
        let tb = TestbedBuilder::paper_scale().build();
        let graphene = tb.cluster_by_name("graphene").unwrap();
        assert_eq!(graphene.nodes.len(), 140);
        let first = tb.node(graphene.nodes[0]);
        assert_eq!(first.name, "graphene-1");
        assert_eq!(tb.site(first.site).name, "nancy");
        assert_eq!(first.cluster, graphene.id);
    }

    #[test]
    fn every_node_is_cabled_and_metered() {
        let tb = TestbedBuilder::paper_scale().build();
        for n in tb.nodes() {
            assert!(tb.topology().uplink.contains_key(&n.id));
            assert!(tb.topology().wiring_correct(n.id));
        }
        assert_eq!(tb.topology().switches.len(), 32);
    }

    #[test]
    fn gpu_cluster_exists() {
        let tb = TestbedBuilder::paper_scale().build();
        let grele = tb.cluster_by_name("grele").unwrap();
        assert!(grele.reference.gpu.is_some());
        let gpu_free = tb.cluster_by_name("grisou").unwrap();
        assert!(gpu_free.reference.gpu.is_none());
    }

    #[test]
    fn ib_clusters_have_hcas() {
        let tb = TestbedBuilder::paper_scale().build();
        for c in tb.clusters() {
            assert_eq!(c.reference.ib.is_some(), c.has_ib, "cluster {}", c.name);
        }
    }

    #[test]
    fn disk_checkable_clusters_have_two_hdds() {
        let tb = TestbedBuilder::paper_scale().build();
        for c in tb.clusters().iter().filter(|c| c.disk_checkable) {
            assert_eq!(c.reference.disks.len(), 2);
            assert!(c
                .reference
                .disks
                .iter()
                .all(|d| d.kind == DiskKind::Hdd && d.write_cache));
        }
    }

    #[test]
    fn small_testbed_shape() {
        let tb = TestbedBuilder::small().build();
        assert_eq!(tb.sites().len(), 2);
        assert_eq!(tb.clusters().len(), 4);
        assert_eq!(tb.nodes().len(), 14);
    }

    #[test]
    fn grid_of_grids_at_128_sites_validates() {
        // 128 sites × 4 clusters × 98 nodes = 50176 nodes: past the u16
        // temptation everywhere, and every structural invariant (unique
        // names, full site mesh, wattmeter bijection) must still hold.
        let tb = TestbedBuilder::grid_of_grids(128, 4, 98).build();
        assert_eq!(tb.sites().len(), 128);
        assert_eq!(tb.clusters().len(), 512);
        assert_eq!(tb.nodes().len(), 50176);
        crate::validate(&tb).expect("grid-of-grids must validate");
    }

    #[test]
    fn grid_names_never_collide() {
        // The naming scheme is collision-free by construction; keep it
        // honest at an awkward shape (site/cluster counts whose digit
        // concatenations could alias, e.g. g1c11 vs g11c1).
        let specs = grid_specs(12, 12, 1);
        let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), specs.len(), "duplicate cluster name");
        let tb = TestbedBuilder::from_specs(specs).build();
        crate::validate(&tb).expect("awkward grid must validate");
    }

    #[test]
    fn grid_covers_every_family_axis() {
        let tb = TestbedBuilder::grid_of_grids(16, 4, 2).build();
        assert!(tb.clusters().iter().any(|c| c.has_ib), "no IB targets");
        assert!(tb.clusters().iter().any(|c| c.disk_checkable), "no disk targets");
        assert!(
            tb.clusters().iter().any(|c| c.reference.gpu.is_some()),
            "no GPU targets"
        );
        assert!(
            tb.clusters().iter().any(|c| c.vendor == Vendor::Dell),
            "no dellbios targets"
        );
    }

    #[test]
    #[should_panic(expected = "overflow the u16 cluster")]
    fn cluster_id_width_is_guarded() {
        let specs = grid_specs(66000, 1, 1);
        TestbedBuilder::from_specs(specs).build();
    }

    #[test]
    #[should_panic(expected = "more than one switch can port")]
    fn switch_port_width_is_guarded() {
        let specs = grid_specs(1, 1, 70000);
        TestbedBuilder::from_specs(specs).build();
    }

    #[test]
    fn cluster_core_sums() {
        let tb = TestbedBuilder::paper_scale().build();
        let graphene = tb.cluster_by_name("graphene").unwrap();
        assert_eq!(graphene.cores_per_node(), 4);
        assert_eq!(graphene.total_cores(), 560);
    }
}
