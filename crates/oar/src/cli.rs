//! Command-line façade: `oarsub`, `oarstat`, `oarnodes`.
//!
//! The paper's `cmdline` test family checks the "basic functionality of
//! command-line tools" (slide 21). This module provides the text-level
//! interface those tools expose on a real frontend, on top of
//! [`OarServer`]: submission with the `-l` request language, tabular job
//! status, and per-node resource listings.

use crate::job::{JobKind, JobState, Queue};
use crate::parser::parse_request;
use crate::server::{NodeState, OarServer, SubmitError};
use std::fmt;
use ttt_refapi::PropValue;
use ttt_sim::SimDuration;

/// Error from a CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The `-l` expression did not parse.
    BadRequest(String),
    /// The server rejected the submission.
    Rejected(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadRequest(m) => write!(f, "oarsub: parse error: {m}"),
            CliError::Rejected(m) => write!(f, "oarsub: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// `oarsub -l <request>` — submit a job from its textual request.
///
/// Returns the text a user would see (`OAR_JOB_ID=<n>`) plus the job id.
// detlint: allow(unarmed-service-fn) -- thin CLI wrapper over OarServer::submit, which carries the oar-submit arm; arming both would double-inject one RPC
// detlint: allow(pub-fn-only-tests-call) -- the paper's oarsub front end, pinned by tests/paper_numbers.rs
pub fn oarsub(
    server: &mut OarServer,
    user: &str,
    request: &str,
) -> Result<(String, crate::job::JobId), CliError> {
    let parsed = parse_request(request, SimDuration::from_hours(1))
        .map_err(|e| CliError::BadRequest(e.to_string()))?;
    let id = server
        .submit(user, Queue::Default, JobKind::User, parsed)
        .map_err(|e: SubmitError| CliError::Rejected(e.to_string()))?;
    Ok((format!("OAR_JOB_ID={}", id.0), id))
}

/// `oarstat` — tabular view of non-final jobs (plus recently finished).
// detlint: allow(pub-fn-only-tests-call) -- the whole table as text, which the oarstat model test holds byte for byte; the cmdline family writes through oarstat_into
pub fn oarstat(server: &OarServer) -> String {
    let mut out = String::new();
    let _ = oarstat_into(server, &mut out);
    out
}

/// [`oarstat`], written into `out`: a caller that reads part of the table
/// need not keep the rest.
pub fn oarstat_into(server: &OarServer, out: &mut impl fmt::Write) -> fmt::Result {
    writeln!(out, "{:<8} {:<10} {:<10} {:<9} {:>6}", "Job id", "User", "State", "Queue", "Nodes")?;
    for job in server.live_jobs() {
        let state = match job.state {
            JobState::Waiting => "Waiting",
            JobState::Scheduled => "Scheduled",
            JobState::Running => "Running",
            JobState::Terminated => "Terminated",
            JobState::Error => "Error",
            JobState::Canceled => "Canceled",
        };
        let queue = match job.queue {
            Queue::Default => "default",
            Queue::Besteffort => "besteffort",
            Queue::Admin => "admin",
        };
        writeln!(
            out,
            "{:<8} {:<10} {:<10} {:<9} {:>6}",
            job.id.0,
            job.user,
            state,
            queue,
            job.assigned.len()
        )?;
    }
    Ok(())
}

/// `oarnodes` — state and key properties of the first `limit` nodes the
/// server schedules (all of them when it has fewer).
// detlint: allow(pub-fn-only-tests-call) -- the whole page as text, for the cli tests; the cmdline family writes through oarnodes_into
pub fn oarnodes(server: &OarServer, limit: usize) -> String {
    let mut out = String::new();
    let _ = oarnodes_into(server, limit, &mut out);
    out
}

/// [`oarnodes`], written into `out`.
pub fn oarnodes_into(server: &OarServer, limit: usize, out: &mut impl fmt::Write) -> fmt::Result {
    writeln!(out, "{:<16} {:<10} {:<12} {:>6}", "Host", "State", "Cluster", "Cores")?;
    for &node in server.own_nodes().iter().take(limit) {
        let props = server.properties(node);
        let Some(host) = props.get("host") else { break };
        let state = match server.node_state(node) {
            NodeState::Alive => "Alive",
            NodeState::Absent => "Absent",
            NodeState::Dead => "Dead",
        };
        let (cluster, cores) = (PropCell(props.get("cluster")), PropCell(props.get("cpucore")));
        writeln!(out, "{:<16} {:<10} {:<12} {:>6}", PropCell(Some(host)), state, cluster, cores)?;
    }
    Ok(())
}

/// A table cell holding a property's OAR rendering, empty when the node
/// lacks the property.
struct PropCell<'a>(Option<&'a PropValue>);

impl fmt::Display for PropCell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            None => f.pad(""),
            Some(value) => fmt::Display::fmt(value, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_sim::SimTime;
    use ttt_testbed::{gen::ClusterSpec, TestbedBuilder, Vendor};

    fn server() -> (ttt_testbed::Testbed, OarServer) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let s = OarServer::new(&tb, &desc);
        (tb, s)
    }

    #[test]
    fn oarsub_submits_the_paper_syntax() {
        let (_tb, mut s) = server();
        let (msg, id) = oarsub(
            &mut s,
            "alice",
            "{cluster='alpha'}/nodes=2,walltime=1:30",
        )
        .unwrap();
        assert_eq!(msg, format!("OAR_JOB_ID={}", id.0));
        assert_eq!(s.job(id).unwrap().assigned.len(), 2);
    }

    #[test]
    fn oarsub_reports_parse_errors() {
        let (_tb, mut s) = server();
        let err = oarsub(&mut s, "alice", "nodes=").unwrap_err();
        assert!(matches!(err, CliError::BadRequest(_)));
        assert!(err.to_string().contains("parse error"));
        // Regression: `nodes=0` used to print an OAR_JOB_ID for a job
        // running on no node.
        let err = oarsub(&mut s, "alice", "nodes=0").unwrap_err();
        assert!(matches!(err, CliError::BadRequest(_)), "{err}");
        assert!(s.jobs().is_empty());
    }

    #[test]
    fn oarsub_reports_unsatisfiable() {
        let (_tb, mut s) = server();
        let err = oarsub(&mut s, "alice", "nodes=4000").unwrap_err();
        assert!(matches!(err, CliError::Rejected(_)));
        // Regression: no two clusters have five nodes; this used to print
        // OAR_JOB_ID=1 for a job that could never start.
        let err = oarsub(&mut s, "alice", "cluster=2/nodes=5,walltime=1").unwrap_err();
        assert!(matches!(err, CliError::Rejected(_)), "{err}");
        assert!(s.jobs().is_empty());
    }

    #[test]
    fn oarstat_lists_active_jobs() {
        let (_tb, mut s) = server();
        let (_, id) = oarsub(&mut s, "alice", "nodes=1,walltime=2").unwrap();
        let table = oarstat(&s);
        assert!(table.contains("alice"));
        assert!(table.contains("Running"));
        assert!(table.contains(&id.0.to_string()));
        // Finished jobs drop out.
        s.advance(SimTime::from_hours(3));
        assert!(!oarstat(&s).contains("alice"));
    }

    #[test]
    fn oarnodes_lists_states_and_properties() {
        let (mut tb, mut s) = server();
        let victim = tb.clusters()[0].nodes[0];
        tb.apply_fault(
            ttt_testbed::FaultKind::NodeDead,
            ttt_testbed::FaultTarget::Node(victim),
            SimTime::ZERO,
        )
        .unwrap();
        s.sync_node_states(&tb);
        let table = oarnodes(&s, tb.nodes().len());
        assert!(table.contains("alpha-1"));
        assert!(table.contains("Dead"));
        assert!(table.contains("Alive"));
        assert!(table.contains("alpha"));
    }

    /// The host column of an `oarnodes` table.
    fn hosts(table: &str) -> Vec<&str> {
        table.lines().skip(1).filter_map(|l| l.split_whitespace().next()).collect()
    }

    #[test]
    fn oarnodes_stops_at_the_end_of_a_two_node_world() {
        // Regression: `cmdline` asks for four rows; on a smaller testbed
        // that indexed past the property table.
        let spec = ClusterSpec::new("duo", "solo", 2, 4, Vendor::Dell, false, false);
        let tb = TestbedBuilder::from_specs(vec![spec]).build();
        let s = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
        assert_eq!(hosts(&oarnodes(&s, 4)), ["duo-1", "duo-2"]);
    }

    #[test]
    fn oarnodes_lists_the_servers_own_site() {
        // Regression: every domain but the first listed the first site's
        // hosts, all `Absent`, instead of its own.
        let tb = TestbedBuilder::small().build();
        let fed = crate::Federation::new(&tb, &describe(&tb, 1, SimTime::ZERO));
        let table = oarnodes(&fed.domain(1).oar, 4);
        assert_eq!(hosts(&table), ["gamma-1", "gamma-2", "gamma-3", "delta-1"]);
        assert!(!table.contains("Absent"), "{table}");
    }
}
