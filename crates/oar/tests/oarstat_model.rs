//! Model-based check of `oarstat`'s job walk.
//!
//! `oarstat` visits `OarServer::live_jobs`: the job table from a low-water
//! mark on, below which every job is final. The reference below is the
//! walk it replaced — every job ever submitted, final ones skipped — and
//! the two must print the same bytes after every step of a random
//! submit / start / cancel / fail / complete-early sequence, including
//! while an old `Waiting` job pins the mark under a long finished tail
//! and once every job is final.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use ttt_oar::{oarstat, Expr, JobId, JobKind, JobState, OarServer, Queue, ResourceRequest};
use ttt_refapi::describe;
use ttt_sim::{SimDuration, SimTime};
use ttt_testbed::{FaultId, FaultKind, FaultTarget, Testbed, TestbedBuilder};

/// `oarstat` as it was: a scan of the whole job table.
fn full_scan(server: &OarServer) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<10} {:<10} {:<9} {:>6}",
        "Job id", "User", "State", "Queue", "Nodes"
    );
    for job in server.jobs().iter() {
        let state = match job.state {
            JobState::Waiting => "Waiting",
            JobState::Scheduled => "Scheduled",
            JobState::Running => "Running",
            JobState::Terminated | JobState::Error | JobState::Canceled => continue,
        };
        let queue = match job.queue {
            Queue::Default => "default",
            Queue::Besteffort => "besteffort",
            Queue::Admin => "admin",
        };
        let _ = writeln!(
            out,
            "{:<8} {:<10} {:<10} {:<9} {:>6}",
            job.id.0,
            job.user,
            state,
            queue,
            job.assigned.len()
        );
    }
    out
}

#[track_caller]
fn check(server: &OarServer, step: &str) {
    assert_eq!(oarstat(server), full_scan(server), "after {step}");
}

fn world() -> (Testbed, OarServer) {
    let tb = TestbedBuilder::small().build();
    let server = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
    (tb, server)
}

fn on_cluster(cluster: &str, nodes: u32, walltime: SimDuration) -> ResourceRequest {
    ResourceRequest::nodes(Expr::eq("cluster", cluster), nodes, walltime)
}

fn state_of(server: &OarServer, id: JobId) -> JobState {
    server.job(id).expect("submitted").state
}

/// One random step of everything that moves a job between states. Nodes
/// of `alpha` (the first four) are left alone: the pinned phase owns them.
fn churn(rng: &mut SmallRng, tb: &mut Testbed, s: &mut OarServer, dead: &mut Vec<FaultId>) {
    match rng.gen_range(0..10u32) {
        0..=3 => {
            let cluster = ["beta", "gamma", "delta"][rng.gen_range(0..3usize)];
            let walltime = SimDuration::from_mins(rng.gen_range(10..600u64));
            let queue = [Queue::Default, Queue::Besteffort, Queue::Admin][rng.gen_range(0..3usize)];
            // An unsatisfiable request (three dead nodes of three) is
            // refused and leaves no job behind: fine either way.
            let _ = s.submit(
                "u",
                queue,
                JobKind::User,
                on_cluster(cluster, rng.gen_range(1..=3u32), walltime),
            );
        }
        // Scheduled jobs start and running ones reach walltime.
        4..=5 => s.advance(s.now() + SimDuration::from_mins(rng.gen_range(1..240u64))),
        // Any id past the pinned pair: live, final already, or unknown.
        6 => {
            s.cancel(JobId(rng.gen_range(3..s.jobs().len() as u64 + 3)));
        }
        7 => {
            s.complete_early(JobId(rng.gen_range(3..s.jobs().len() as u64 + 3)));
        }
        8 => {
            let node = tb.nodes()[rng.gen_range(4..tb.nodes().len())].id;
            if let Some(fault) =
                tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(node), s.now())
            {
                dead.push(fault.id);
            }
            s.sync_node_states(tb);
        }
        _ => {
            if let Some(fault) = dead.pop() {
                tb.repair(fault);
                s.sync_node_states(tb);
            }
        }
    }
}

#[test]
fn oarstat_matches_the_full_scan_after_every_step() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut tb, mut s) = world();
        check(&s, "nothing");

        // Job 1 holds all of `alpha` past the planning horizon, so job 2
        // waits; a node of `alpha` then dies under job 1, which fails, and
        // job 2 — still wanting four nodes where three live — stays
        // `Waiting` for good: the oldest non-final job from here on.
        let long = SimDuration::from_days(10);
        let blocker = s
            .submit(
                "ops",
                Queue::Admin,
                JobKind::Test,
                on_cluster("alpha", 4, long),
            )
            .unwrap();
        let pin = s
            .submit(
                "pin",
                Queue::Default,
                JobKind::User,
                on_cluster("alpha", 4, long),
            )
            .unwrap();
        check(&s, "the blocker and its waiter");
        let victim = tb.cluster_by_name("alpha").unwrap().nodes[0];
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(victim), s.now())
            .unwrap();
        s.sync_node_states(&tb);
        assert_eq!(state_of(&s, blocker), JobState::Error);
        assert_eq!(state_of(&s, pin), JobState::Waiting);
        check(&s, "the blocker's failure");

        let mut dead = Vec::new();
        for step in 0..400 {
            churn(&mut rng, &mut tb, &mut s, &mut dead);
            check(&s, &format!("seed {seed} step {step}, pinned"));
            assert_eq!(
                s.live_jobs().next().map(|j| j.id),
                Some(pin),
                "the pin stays first"
            );
        }
        let finished = s.jobs().iter().filter(|j| j.state.is_final()).count();
        assert!(
            finished > 50,
            "seed {seed}: only {finished} jobs ended behind the pin"
        );

        // The pin goes: the mark crosses the whole finished tail at once,
        // and from here on follows the oldest job still going.
        assert!(s.cancel(pin));
        check(&s, "the pin's cancellation");
        for step in 0..400 {
            churn(&mut rng, &mut tb, &mut s, &mut dead);
            check(&s, &format!("seed {seed} step {step}, unpinned"));
        }
        // And then everything else, down to a table of final jobs only.
        let live: Vec<JobId> = s.live_jobs().map(|j| j.id).collect();
        for id in live {
            assert!(s.cancel(id));
            check(&s, "a closing cancellation");
        }
        assert_eq!(s.live_jobs().count(), 0);
        assert_eq!(oarstat(&s).lines().count(), 1, "header only");
        // A job submitted after that is listed again.
        s.submit(
            "late",
            Queue::Default,
            JobKind::User,
            on_cluster("beta", 1, long),
        )
        .unwrap();
        check(&s, "a submission to an all-final server");
        assert!(oarstat(&s).contains("late"));
    }
}
