//! Model-based check of the job table.
//!
//! A server keeps its jobs in a `JobTable` addressed by `id - 1`, cut into
//! segments of 16, 32, 64, … jobs. The reference is the ordered map it
//! replaced, kept beside the server through random submit / cancel /
//! complete-early / advance steps: `jobs().iter()`, `job(id)`,
//! `jobs().get(id)`, `live_jobs()` and `waiting_count()` must answer as
//! the map does, for ids on both sides of every segment boundary up past
//! 10 000 jobs and for ids the table does not hold (0, `len + 1`). A
//! final job never changes again.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use ttt_oar::{Expr, Job, JobId, JobKind, JobState, OarServer, Queue, ResourceRequest};
use ttt_refapi::describe;
use ttt_sim::{SimDuration, SimTime};
use ttt_testbed::TestbedBuilder;

/// Ids of the first job of every segment: 17, 49, 113, …
fn segment_starts() -> impl Iterator<Item = u64> {
    (1..).map(|k: u32| 16 * ((1u64 << k) - 1) + 1)
}

/// The ordered map, filled from what the server answers by id: a job
/// enters at submission and is read again while it is live, so a final
/// job stays in the map as it was when it ended.
#[derive(Default)]
struct Shadow {
    jobs: BTreeMap<JobId, Job>,
    /// The ids the map holds as not final.
    live: BTreeSet<JobId>,
}

impl Shadow {
    /// Take in the jobs submitted since the last step and re-read the live
    /// ones, then hold the server against the map: every walk and count
    /// always, every id on a `full` step and the ids around each segment
    /// boundary on the others.
    fn check(&mut self, s: &OarServer, full: bool, step: &str) {
        let table = s.jobs();
        let len = table.len() as u64;
        let new = self.jobs.len() as u64 + 1..=len;
        self.live.extend(new.map(JobId));
        for &id in &self.live {
            let job = s.job(id).unwrap_or_else(|| panic!("{step}: {id} is gone"));
            assert_eq!(job.id, id, "{step}");
            self.jobs.insert(id, job.clone());
        }
        self.live.retain(|id| !self.jobs[id].state.is_final());

        assert_eq!(table.len(), self.jobs.len(), "{step}");
        assert_eq!(table.is_empty(), self.jobs.is_empty(), "{step}");
        for id in [0, len + 1, len + 2, u64::MAX] {
            assert!(s.job(JobId(id)).is_none(), "{step}: {id} of {len}");
            assert!(table.get(JobId(id)).is_none(), "{step}: {id} of {len}");
        }
        let live = self.live.iter().map(|id| &self.jobs[id]);
        assert!(s.live_jobs().eq(live.clone()), "{step}: live_jobs");
        let waiting = live.filter(|j| j.state == JobState::Waiting).count();
        assert_eq!(s.waiting_count(), waiting, "{step}: waiting_count");

        let ids: Vec<u64> = if full {
            assert!(table.iter().eq(self.jobs.values()), "{step}: jobs().iter()");
            (1..=len).collect()
        } else {
            let around = segment_starts().take_while(|&b| b <= len + 1).flat_map(|b| [b - 1, b]);
            around.chain([1, len]).filter(|id| (1..=len).contains(id)).collect()
        };
        for id in ids {
            let want = self.jobs.get(&JobId(id));
            assert_eq!(s.job(JobId(id)), want, "{step}: job({id})");
            assert_eq!(table.get(JobId(id)), want, "{step}: get({id})");
        }
    }
}

#[test]
fn the_job_table_answers_as_an_ordered_map() {
    const JOBS: usize = 10_050;
    let tb = TestbedBuilder::small().build();
    let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
    let mut s = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
    let mut rng = SmallRng::seed_from_u64(38);
    let mut shadow = Shadow::default();
    shadow.check(&s, true, "nothing");
    let mut boundaries = segment_starts().peekable();
    let (mut step, mut waited) = (0u64, 0u64);
    while s.jobs().len() < JOBS {
        step += 1;
        let len = s.jobs().len() as u64;
        // Any id at all: held, unknown, or 0.
        let any = |rng: &mut SmallRng| JobId(rng.gen_range(0..=len + 1));
        let cluster = Expr::eq("cluster", &clusters[rng.gen_range(0..clusters.len())]);
        match rng.gen_range(0..21u32) {
            0..=9 => {
                let walltime = SimDuration::from_mins(rng.gen_range(5..240u64));
                let request = ResourceRequest::nodes(cluster, rng.gen_range(1..=3), walltime);
                s.submit("u", Queue::Default, JobKind::User, request).expect("three nodes fit");
            }
            // A node held past the planning horizon: what needs all of
            // its cluster waits.
            20 => {
                let request = ResourceRequest::nodes(cluster, 1, SimDuration::from_days(8));
                s.submit("u", Queue::Default, JobKind::User, request).expect("a node fits");
            }
            10..=12 => {
                s.cancel(any(&mut rng));
            }
            13..=15 => {
                s.complete_early(any(&mut rng));
            }
            _ => s.advance(s.now() + SimDuration::from_mins(rng.gen_range(1..120u64))),
        }
        // Keep the queue short: what lives longest is cancelled.
        if s.live_jobs().count() > 40 {
            let oldest = s.live_jobs().next().map(|j| j.id);
            s.cancel(oldest.expect("a live job"));
        }
        let len = s.jobs().len() as u64;
        let crossed = boundaries.next_if(|&b| b <= len).is_some();
        shadow.check(&s, crossed || step % 1_000 == 0, &format!("step {step}"));
        waited += u64::from(s.waiting_count() > 0);
        if step % 500 == 0 {
            assert_eq!(s.check_consistency(), Ok(()), "step {step}");
        }
    }
    let states = |state| shadow.jobs.values().filter(|j| j.state == state).count();
    let ended = (states(JobState::Terminated), states(JobState::Canceled));
    assert!(ended.0 > 1_000 && ended.1 > 100, "{ended:?} terminated and cancelled");
    assert!(waited > step / 2, "a job waited after {waited} of {step} steps");
    assert!(boundaries.next().is_some_and(|b| b > JOBS as u64), "every boundary below 10 050 crossed");
    assert_eq!(s.check_consistency(), Ok(()));
}
