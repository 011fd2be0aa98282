//! # ttt-oar — the resource manager
//!
//! A reproduction of the OAR batch scheduler as used by Grid'5000 and by
//! the paper's testing framework:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — the `oarsub -l` resource-request
//!   language from slide 7, e.g.
//!   `cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2`;
//! * [`eval`] — property-expression evaluation against the resource
//!   database filled from the Reference API;
//! * [`gantt`] — per-node reservation timelines and the index of their
//!   ends, kept together by one `Gantt` per server;
//! * [`job`] — job lifecycle (Waiting → Scheduled → Running → Terminated)
//!   and the table a server keeps its jobs in, by id;
//! * [`server`] — the OAR server: submission, FCFS + conservative
//!   backfilling, immediate-start queries (what the external test scheduler
//!   polls), node-state integration with the testbed;
//! * [`userload`] — diurnal synthetic user jobs providing the contention
//!   the paper's scheduling policies exist to navigate;
//! * [`federation`] — one OAR server per site, with site-affine placement,
//!   saturation spillover and cross-site co-allocation (the multi-site
//!   structure of the real testbed, first-class).

#![forbid(unsafe_code)]

pub mod ast;
pub mod cli;
pub mod eval;
pub mod federation;
pub mod gantt;
pub mod job;
pub mod lexer;
pub mod parser;
pub mod server;
pub mod userload;

pub use ast::{CmpOp, Count, Expr, Level, RequestGroup, ResourceRequest};
pub use federation::{AvailabilityProbe, FedJob, FedJobState, Federation, Placement, SiteDomain};
pub use job::{Job, JobId, JobKind, JobState, JobTable, Queue};
pub use cli::{oarnodes, oarnodes_into, oarstat, oarstat_into, oarsub, CliError};
pub use parser::{parse_request, ParseError};
pub use server::{NodeState, OarServer, Resolved, SubmitError};
pub use userload::{UserLoadError, UserLoadGenerator};
