//! Per-site infrastructure services.
//!
//! The paper's `cmdline` and `sidapi` test families exercise the basic
//! functionality of command-line tools and the REST API of each site; other
//! families depend on the deployment, console, VLAN and monitoring services.
//! Here each service is a small stateful object whose calls can be made
//! flaky or broken by faults ("Problems on the software side → unreliable
//! services", slide 13).

use rand::Rng;
use std::fmt;

/// The kinds of per-site services the testbed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceKind {
    /// Site REST API frontend (the paper's "sid" API).
    ApiFrontend,
    /// OAR resource-manager server.
    OarServer,
    /// Kadeploy deployment server.
    KadeployServer,
    /// Serial console service (conman-like).
    ConsoleServer,
    /// KaVLAN network-reconfiguration service.
    KavlanServer,
    /// Kwapi power/network monitoring service.
    KwapiServer,
    /// SSH gateway into isolated VLANs.
    SshGateway,
}

impl ServiceKind {
    /// All service kinds, in a stable order.
    pub const ALL: [ServiceKind; 7] = [
        ServiceKind::ApiFrontend,
        ServiceKind::OarServer,
        ServiceKind::KadeployServer,
        ServiceKind::ConsoleServer,
        ServiceKind::KavlanServer,
        ServiceKind::KwapiServer,
        ServiceKind::SshGateway,
    ];

    /// This kind's position in [`ServiceKind::ALL`] — its discriminant —
    /// which is how the per-site service and process arenas are indexed.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The daemon's name, as `Display` renders it.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::ApiFrontend => "api-frontend",
            ServiceKind::OarServer => "oar-server",
            ServiceKind::KadeployServer => "kadeploy-server",
            ServiceKind::ConsoleServer => "console-server",
            ServiceKind::KavlanServer => "kavlan-server",
            ServiceKind::KwapiServer => "kwapi-server",
            ServiceKind::SshGateway => "ssh-gateway",
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by a service call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service did not answer at all.
    Down,
    /// The call failed transiently (flaky service).
    Transient(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Down => f.write_str("service down"),
            ServiceError::Transient(m) => write!(f, "transient failure: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Health of one service instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceHealth {
    /// Operating normally; every call succeeds.
    Healthy,
    /// Flaky: each call fails with the given probability.
    Flaky {
        /// Probability in `[0, 1]` that a call fails.
        fail_prob: f64,
    },
    /// Completely down; every call fails.
    Down,
}

/// One service instance at one site.
#[derive(Debug, Clone)]
pub struct Service {
    /// What this service is.
    pub kind: ServiceKind,
    /// Current health.
    pub health: ServiceHealth,
    /// Lifetime number of calls served (diagnostics).
    pub calls: u64,
    /// Lifetime number of failed calls (diagnostics).
    pub failures: u64,
}

impl Service {
    /// A fresh healthy service.
    pub fn healthy(kind: ServiceKind) -> Self {
        Service {
            kind,
            health: ServiceHealth::Healthy,
            calls: 0,
            failures: 0,
        }
    }

    /// Perform one call against the service, drawing flaky outcomes from `rng`.
    pub fn call<R: Rng>(&mut self, rng: &mut R) -> Result<(), ServiceError> {
        self.calls += 1;
        match self.health {
            ServiceHealth::Healthy => Ok(()),
            ServiceHealth::Down => {
                self.failures += 1;
                Err(ServiceError::Down)
            }
            ServiceHealth::Flaky { fail_prob } => {
                if rng.gen_bool(fail_prob.clamp(0.0, 1.0)) {
                    self.failures += 1;
                    Err(ServiceError::Transient(format!(
                        "{} timed out",
                        self.kind
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_sim::rng::stream_rng;

    #[test]
    fn kinds_index_their_own_position() {
        for (i, kind) in ServiceKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn healthy_service_always_succeeds() {
        let mut s = Service::healthy(ServiceKind::ApiFrontend);
        let mut rng = stream_rng(1, "svc");
        for _ in 0..100 {
            assert!(s.call(&mut rng).is_ok());
        }
        assert_eq!(s.calls, 100);
        assert_eq!(s.failures, 0);
    }

    #[test]
    fn down_service_always_fails() {
        let mut s = Service::healthy(ServiceKind::OarServer);
        s.health = ServiceHealth::Down;
        let mut rng = stream_rng(1, "svc");
        assert_eq!(s.call(&mut rng), Err(ServiceError::Down));
    }

    #[test]
    fn flaky_service_fails_at_rate() {
        let mut s = Service::healthy(ServiceKind::KadeployServer);
        s.health = ServiceHealth::Flaky { fail_prob: 0.3 };
        let mut rng = stream_rng(2, "svc");
        let fails = (0..2000).filter(|_| s.call(&mut rng).is_err()).count();
        let ratio = fails as f64 / 2000.0;
        assert!((0.25..0.35).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_kinds_distinct_display() {
        let names: std::collections::HashSet<String> =
            ServiceKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), ServiceKind::ALL.len());
    }
}
