//! Test families, targets and suite generation.

use std::fmt;
use ttt_kadeploy::Environment;
use ttt_oar::{Expr, ResourceRequest};
use ttt_sim::SimDuration;
use ttt_testbed::{Testbed, Vendor};

/// The sixteen test families of slide 21.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// Testbed description vs reality (g5k-checks sweep).
    Refapi,
    /// OAR resource database vs reality.
    OarProperties,
    /// BIOS homogeneity on Dell clusters.
    DellBios,
    /// Testbed status sanity (dead/suspected nodes).
    OarState,
    /// Command-line tools of each site.
    Cmdline,
    /// Site REST API.
    SidApi,
    /// Every image on every cluster (the 448-cell matrix).
    Environments,
    /// The standard environment, with a g5k-checks pass at boot.
    StdEnv,
    /// Deploy all nodes of a cluster at once.
    ParallelDeploy,
    /// Reboot nodes repeatedly, watching boot times.
    MultiReboot,
    /// Deploy a cluster several times in a row.
    MultiDeploy,
    /// Serial console access.
    Console,
    /// VLAN isolation, including the global VLAN.
    Kavlan,
    /// Power monitoring attribution and rate.
    Kwapi,
    /// Infiniband fabric (mpigraph all-to-all).
    MpiGraph,
    /// Disk configuration and performance.
    Disk,
}

impl Family {
    /// All families in slide order.
    pub const ALL: [Family; 16] = [
        Family::Refapi,
        Family::OarProperties,
        Family::DellBios,
        Family::OarState,
        Family::Cmdline,
        Family::SidApi,
        Family::Environments,
        Family::StdEnv,
        Family::ParallelDeploy,
        Family::MultiReboot,
        Family::MultiDeploy,
        Family::Console,
        Family::Kavlan,
        Family::Kwapi,
        Family::MpiGraph,
        Family::Disk,
    ];

    /// The CI job name for the family.
    pub fn job_name(self) -> &'static str {
        match self {
            Family::Refapi => "refapi",
            Family::OarProperties => "oarproperties",
            Family::DellBios => "dellbios",
            Family::OarState => "oarstate",
            Family::Cmdline => "cmdline",
            Family::SidApi => "sidapi",
            Family::Environments => "environments",
            Family::StdEnv => "stdenv",
            Family::ParallelDeploy => "paralleldeploy",
            Family::MultiReboot => "multireboot",
            Family::MultiDeploy => "multideploy",
            Family::Console => "console",
            Family::Kavlan => "kavlan",
            Family::Kwapi => "kwapi",
            Family::MpiGraph => "mpigraph",
            Family::Disk => "disk",
        }
    }

    /// Hardware-centric families take every node of their target cluster;
    /// software-centric ones take one node per target (slide 16).
    pub fn hardware_centric(self) -> bool {
        matches!(
            self,
            Family::ParallelDeploy
                | Family::MultiReboot
                | Family::MultiDeploy
                | Family::MpiGraph
                | Family::Disk
        )
    }

    /// Desired cadence between runs of one configuration.
    ///
    /// Hardware-centric families and the 448-cell `environments` matrix
    /// run weekly; the cheap software checks run daily.
    pub fn period(self) -> SimDuration {
        if self.hardware_centric() || self == Family::Environments {
            SimDuration::from_days(7)
        } else {
            SimDuration::from_days(1)
        }
    }

    /// Walltime requested from OAR for one run.
    pub fn walltime(self) -> SimDuration {
        match self {
            Family::Environments | Family::StdEnv => SimDuration::from_mins(30),
            Family::ParallelDeploy | Family::MultiDeploy => SimDuration::from_hours(2),
            Family::MultiReboot => SimDuration::from_hours(2),
            Family::MpiGraph => SimDuration::from_hours(1),
            Family::Disk => SimDuration::from_hours(1),
            _ => SimDuration::from_mins(20),
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.job_name())
    }
}

/// What one configuration targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// One cluster, by name.
    Cluster(String),
    /// One site, by name.
    Site(String),
    /// One (image, cluster) matrix cell.
    ImageCluster {
        /// Image name.
        image: String,
        /// Cluster name.
        cluster: String,
    },
    /// The whole testbed (the global-VLAN kavlan configuration).
    Global,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Cluster(c) => write!(f, "{c}"),
            Target::Site(s) => write!(f, "{s}"),
            Target::ImageCluster { image, cluster } => write!(f, "{cluster}/{image}"),
            Target::Global => f.write_str("global"),
        }
    }
}

/// One test configuration: a family applied to a target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TestConfig {
    /// The family.
    pub family: Family,
    /// The target.
    pub target: Target,
}

impl TestConfig {
    /// Stable identifier, e.g. `"disk/grisou"`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.family, self.target)
    }

    /// Matrix cell key for the CI job, if the family is matrix-shaped.
    pub fn cell(&self) -> Option<String> {
        Some(self.cell_parts().concat())
    }

    /// The text of [`TestConfig::cell`], written over `out`: a caller that
    /// names many cells in a row reuses one buffer.
    pub fn write_cell(&self, out: &mut String) {
        out.clear();
        self.cell_parts().iter().for_each(|part| out.push_str(part));
    }

    fn cell_parts(&self) -> [&str; 4] {
        match &self.target {
            Target::Cluster(c) => ["cluster=", c, "", ""],
            Target::Site(s) => ["site=", s, "", ""],
            Target::ImageCluster { image, cluster } => ["cluster=", cluster, ",image=", image],
            Target::Global => ["scope=global", "", "", ""],
        }
    }

    /// The site whose resources this configuration consumes.
    pub fn site(&self, tb: &Testbed) -> String {
        match &self.target {
            Target::Cluster(c) | Target::ImageCluster { cluster: c, .. } => tb
                .cluster_by_name(c)
                .map(|cl| tb.site(cl.site).name.clone())
                .unwrap_or_default(),
            Target::Site(s) => s.clone(),
            Target::Global => tb
                .sites()
                .first()
                .map(|s| s.name.clone())
                .unwrap_or_default(),
        }
    }

    /// The OAR resource request for one run.
    pub fn resource_request(&self, tb: &Testbed) -> ResourceRequest {
        let walltime = self.family.walltime();
        match &self.target {
            Target::Cluster(c) | Target::ImageCluster { cluster: c, .. } => {
                let filter = Expr::eq("cluster", c);
                if self.family.hardware_centric() {
                    ResourceRequest::all_nodes(filter, walltime)
                } else {
                    ResourceRequest::nodes(filter, 1, walltime)
                }
            }
            Target::Site(s) => {
                ResourceRequest::nodes(Expr::eq("site", s), site_nodes_needed(self.family), walltime)
            }
            Target::Global => {
                // Global kavlan: one node on each of two different sites.
                let sites: Vec<&str> = tb.sites().iter().map(|s| s.name.as_str()).collect();
                let (a, b) = (
                    sites.first().copied().unwrap_or(""),
                    sites.get(1).copied().unwrap_or(""),
                );
                ResourceRequest {
                    groups: vec![
                        ttt_oar::RequestGroup {
                            filter: Expr::eq("site", a),
                            hierarchy: vec![(ttt_oar::Level::Nodes, ttt_oar::Count::Exact(1))],
                        },
                        ttt_oar::RequestGroup {
                            filter: Expr::eq("site", b),
                            hierarchy: vec![(ttt_oar::Level::Nodes, ttt_oar::Count::Exact(1))],
                        },
                    ],
                    walltime,
                }
            }
        }
    }
}

/// Nodes requested by site-targeted families (kavlan needs two to probe
/// isolation, kwapi needs two to compare wattmeters).
fn site_nodes_needed(family: Family) -> u32 {
    match family {
        Family::Kavlan | Family::Kwapi => 2,
        _ => 1,
    }
}

/// Generate the full suite for a testbed and an image catalogue.
///
/// On the paper-scale testbed with the 14 standard images this yields
/// exactly the 751 configurations of slide 21 (see `family_counts`).
pub fn build_suite(tb: &Testbed, images: &[Environment]) -> Vec<TestConfig> {
    let mut out = Vec::new();
    let clusters: Vec<&str> = tb.clusters().iter().map(|c| c.name.as_str()).collect();
    let sites: Vec<&str> = tb.sites().iter().map(|s| s.name.as_str()).collect();

    // Per-(image, cluster): environments.
    for image in images {
        for c in &clusters {
            out.push(TestConfig {
                family: Family::Environments,
                target: Target::ImageCluster {
                    image: image.name.clone(),
                    cluster: c.to_string(),
                },
            });
        }
    }
    // Per-cluster families.
    for c in &clusters {
        for family in [
            Family::StdEnv,
            Family::Refapi,
            Family::OarProperties,
            Family::ParallelDeploy,
            Family::MultiReboot,
            Family::MultiDeploy,
            Family::Console,
        ] {
            out.push(TestConfig {
                family,
                target: Target::Cluster(c.to_string()),
            });
        }
    }
    // Vendor/hardware-restricted per-cluster families.
    for cl in tb.clusters() {
        if cl.vendor == Vendor::Dell {
            out.push(TestConfig {
                family: Family::DellBios,
                target: Target::Cluster(cl.name.clone()),
            });
        }
        if cl.has_ib {
            out.push(TestConfig {
                family: Family::MpiGraph,
                target: Target::Cluster(cl.name.clone()),
            });
        }
        if cl.disk_checkable {
            out.push(TestConfig {
                family: Family::Disk,
                target: Target::Cluster(cl.name.clone()),
            });
        }
    }
    // Per-site families.
    for s in &sites {
        for family in [Family::OarState, Family::Cmdline, Family::SidApi, Family::Kavlan, Family::Kwapi] {
            out.push(TestConfig {
                family,
                target: Target::Site(s.to_string()),
            });
        }
    }
    // The global-VLAN configuration.
    out.push(TestConfig {
        family: Family::Kavlan,
        target: Target::Global,
    });
    out
}

/// Count configurations per family.
// detlint: allow(pub-fn-only-tests-call) -- tests/paper_numbers.rs pins the slide-21 family sizes through it
pub fn family_counts(suite: &[TestConfig]) -> Vec<(Family, usize)> {
    Family::ALL
        .iter()
        .map(|&f| (f, suite.iter().filter(|c| c.family == f).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_kadeploy::standard_images;
    use ttt_testbed::TestbedBuilder;

    #[test]
    fn paper_suite_has_751_configurations() {
        let tb = TestbedBuilder::paper_scale().build();
        let suite = build_suite(&tb, &standard_images());
        assert_eq!(suite.len(), 751, "slide 21: 751 test configurations");
    }

    #[test]
    fn family_counts_match_design_table() {
        let tb = TestbedBuilder::paper_scale().build();
        let suite = build_suite(&tb, &standard_images());
        let counts: std::collections::BTreeMap<Family, usize> =
            family_counts(&suite).into_iter().collect();
        assert_eq!(counts[&Family::Environments], 448);
        assert_eq!(counts[&Family::StdEnv], 32);
        assert_eq!(counts[&Family::Refapi], 32);
        assert_eq!(counts[&Family::OarProperties], 32);
        assert_eq!(counts[&Family::DellBios], 18);
        assert_eq!(counts[&Family::OarState], 8);
        assert_eq!(counts[&Family::Cmdline], 8);
        assert_eq!(counts[&Family::SidApi], 8);
        assert_eq!(counts[&Family::ParallelDeploy], 32);
        assert_eq!(counts[&Family::MultiReboot], 32);
        assert_eq!(counts[&Family::MultiDeploy], 32);
        assert_eq!(counts[&Family::Console], 32);
        assert_eq!(counts[&Family::Kavlan], 9);
        assert_eq!(counts[&Family::Kwapi], 8);
        assert_eq!(counts[&Family::MpiGraph], 6);
        assert_eq!(counts[&Family::Disk], 14);
    }

    #[test]
    fn ids_are_unique() {
        let tb = TestbedBuilder::paper_scale().build();
        let suite = build_suite(&tb, &standard_images());
        let ids: std::collections::HashSet<String> = suite.iter().map(|c| c.id()).collect();
        assert_eq!(ids.len(), suite.len());
    }

    #[test]
    fn requests_match_centricity() {
        let tb = TestbedBuilder::small().build();
        let disk = TestConfig {
            family: Family::Disk,
            target: Target::Cluster("alpha".into()),
        };
        let req = disk.resource_request(&tb);
        assert_eq!(
            req.groups[0].hierarchy,
            vec![(ttt_oar::Level::Nodes, ttt_oar::Count::All)]
        );
        let refapi = TestConfig {
            family: Family::Refapi,
            target: Target::Cluster("alpha".into()),
        };
        let req = refapi.resource_request(&tb);
        assert_eq!(
            req.groups[0].hierarchy,
            vec![(ttt_oar::Level::Nodes, ttt_oar::Count::Exact(1))]
        );
    }

    #[test]
    fn global_kavlan_spans_two_sites() {
        let tb = TestbedBuilder::small().build();
        let cfg = TestConfig {
            family: Family::Kavlan,
            target: Target::Global,
        };
        let req = cfg.resource_request(&tb);
        assert_eq!(req.groups.len(), 2);
        assert_eq!(cfg.cell().as_deref(), Some("scope=global"));
        assert_eq!(cfg.id(), "kavlan/global");
    }

    #[test]
    fn sites_resolve_through_clusters() {
        let tb = TestbedBuilder::small().build();
        let cfg = TestConfig {
            family: Family::Disk,
            target: Target::Cluster("gamma".into()),
        };
        assert_eq!(cfg.site(&tb), "west");
    }
}
