//! The `scenario.v1` file format — the only way a [`ScenarioSpec`] is
//! written to or read from disk.
//!
//! An operator writes one by hand and the swarm CLI loads it with
//! `--scenario`; a shrunken reproducer *is* one (the violated oracle goes
//! in its `notes`); corpus entries and run logs embed one, because
//! `ScenarioSpec`'s `Serialize`/`Deserialize` impls below delegate to
//! this module. The format is sectioned, with human-named fields and
//! defaults for everything but the topology, a `"format": "scenario.v1"`
//! tag, and a validator that reports **every** problem in one pass with a
//! JSON path per error (`clusters[2].nodes: must be between 1 and 8`)
//! instead of dying on the first.
//!
//! Every grammar-generated spec round-trips: `parse_scenario(
//! to_scenario_json(&spec))` returns the spec bit-for-bit (floats are
//! printed shortest-exact by the JSON layer), so a scenario file lowers
//! to the same [`CampaignDigest`](crate::oracle::CampaignDigest) as the
//! spec it was written from, on every engine.
//!
//! The scalar axes are parsed, bounded and emitted by iterating
//! [`SCALAR_AXES`]; the structural ones (topology, arrivals, mode,
//! rollout, link model, horizon × tick) are hand-written here and read
//! their bounds from the [`Domain`] constants beside that table. Every
//! bound has one rule: a value is legal iff [`Domain::nearest`] — what
//! [`crate::mutate::sanitize`] applies — leaves it unchanged.
//!
//! An annotated example lives in `examples/scenarios/` at the repo root.

use crate::grammar::{
    default_cluster, horizon_hours, Domain, ModeDim, RolloutDim, ScenarioSpec, CLUSTER_NODES,
    CORES_PER_NODE, CRON_PERIOD_HOURS, FAULT_RATE, LINK_LATENCY_S, LINK_LOSS, MAX_CLUSTERS,
    MAX_NODES, ROLLOUT_PHASES, SCALAR_AXES, TICK,
};
use serde::Value;
use std::fmt;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::hardware::Vendor;
use ttt_testbed::{FaultKind, LinkModelSpec};

/// The format tag every scenario file must carry.
pub const SCENARIO_FORMAT: &str = "scenario.v1";

/// Top-level keys that are not sections.
const TOP_LEVEL_KEYS: [&str; 8] = [
    "format",
    "name",
    "notes",
    "seed",
    "duration_hours",
    "tick_mins",
    "clusters",
    "per_node_hardware",
];

/// The sections, in emission order, each with the keys its hand-written
/// code owns; a section's remaining keys are its [`SCALAR_AXES`] rows.
const SECTIONS: [(&str, &[&str]); 9] = [
    ("faults", &["arrivals"]),
    ("users", &[]),
    ("scheduling", &["mode", "period_hours"]),
    ("rollout", &["pattern", "phases"]),
    ("operators", &[]),
    ("sampling", &[]),
    ("network", &["link_model", "latency_s", "loss_prob"]),
    ("chaos", &[]),
    ("queries", &[]),
];

/// One validation problem: where in the file, and what is wrong. The
/// validator collects every issue before returning, so an operator fixes
/// a file in one edit-run cycle, not one per field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFileError {
    /// JSON path of the offending value (`clusters[2].nodes`; empty for
    /// document-level problems).
    pub path: String,
    /// What is wrong, phrased for the person editing the file.
    pub message: String,
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

/// Error-collecting parse context.
struct Ctx {
    errors: Vec<ScenarioFileError>,
}

impl Ctx {
    fn err(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.errors.push(ScenarioFileError {
            path: path.into(),
            message: message.into(),
        });
    }
}

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Reject keys outside `known` — a typoed field must fail loudly, not
/// silently fall back to its default.
fn check_keys(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, known: &[&str]) {
    for (k, _) in fields {
        if !known.contains(&k.as_str()) {
            let at = join(path, k);
            ctx.err(at, format!("unknown field (expected one of: {})", known.join(", ")));
        }
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The fields of an object-valued section — empty (all defaults) when the
/// section is omitted or, as [`check_section`] reports, not an object.
fn section<'a>(doc: &'a [(String, Value)], name: &str) -> &'a [(String, Value)] {
    match get(doc, name) {
        Some(Value::Object(inner)) => inner,
        _ => &[],
    }
}

/// A section must be an object whose keys are `structural` or one of its
/// [`SCALAR_AXES`] rows.
fn check_section(ctx: &mut Ctx, doc: &[(String, Value)], name: &str, structural: &[&str]) {
    if let Some(v) = get(doc, name).filter(|v| v.as_object().is_none()) {
        ctx.err(name, format!("must be an object, got {}", v.kind()));
    }
    let axes = SCALAR_AXES.iter().filter(|a| a.section == name);
    let known: Vec<&str> = structural.iter().copied().chain(axes.map(|a| a.key)).collect();
    check_keys(ctx, section(doc, name), name, &known);
}

fn f64_field(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, key: &str, default: f64) -> f64 {
    match get(fields, key) {
        Some(Value::F64(n)) => *n,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::U64(n)) => *n as f64,
        Some(v) => {
            ctx.err(join(path, key), format!("must be a number, got {}", v.kind()));
            default
        }
        None => default,
    }
}

fn u64_field(ctx: &mut Ctx, fields: &[(String, Value)], path: &str, key: &str, default: u64) -> u64 {
    match get(fields, key) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) if *n >= 0 => *n as u64,
        Some(v) => {
            ctx.err(
                join(path, key),
                format!("must be a non-negative integer, got {}", v.kind()),
            );
            default
        }
        None => default,
    }
}

fn bool_field(
    ctx: &mut Ctx,
    fields: &[(String, Value)],
    path: &str,
    key: &str,
    default: bool,
) -> bool {
    match get(fields, key) {
        Some(Value::Bool(b)) => *b,
        Some(v) => {
            ctx.err(join(path, key), format!("must be true or false, got {}", v.kind()));
            default
        }
        None => default,
    }
}

fn str_field<'a>(
    ctx: &mut Ctx,
    fields: &'a [(String, Value)],
    path: &str,
    key: &str,
    default: &'a str,
) -> &'a str {
    match get(fields, key) {
        Some(Value::String(s)) => s,
        Some(v) => {
            ctx.err(join(path, key), format!("must be a string, got {}", v.kind()));
            default
        }
        None => default,
    }
}

/// Flag `value` (printed as `shown`, its type's own form) unless `domain`
/// admits it; returns whether it did.
fn check(
    ctx: &mut Ctx,
    path: String,
    domain: &Domain,
    value: f64,
    shown: impl fmt::Display,
) -> bool {
    let legal = domain.admits(value);
    if !legal {
        ctx.err(path, format!("must be {domain}, got {shown}"));
    }
    legal
}

fn vendor_name(v: Vendor) -> &'static str {
    match v {
        Vendor::Dell => "dell",
        Vendor::Hp => "hp",
        Vendor::Bull => "bull",
        Vendor::Ibm => "ibm",
    }
}

fn parse_vendor(s: &str) -> Option<Vendor> {
    match s.to_ascii_lowercase().as_str() {
        "dell" => Some(Vendor::Dell),
        "hp" | "hpe" => Some(Vendor::Hp),
        "bull" | "atos" => Some(Vendor::Bull),
        "ibm" | "lenovo" => Some(Vendor::Ibm),
        _ => None,
    }
}

/// Parse a `scenario.v1` document into a runnable [`ScenarioSpec`]. On
/// failure, *every* problem found is returned, each with the JSON path of
/// the offending value. Never panics on any input.
pub fn parse_scenario(json: &str) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    match serde_json::parse(json) {
        Ok(value) => parse_scenario_value(&value),
        Err(e) => Err(vec![ScenarioFileError {
            path: String::new(),
            message: format!("not valid JSON: {e}"),
        }]),
    }
}

/// [`parse_scenario`] on an already-parsed document — what an envelope
/// that embeds a spec (corpus entry, run log) deserializes through.
fn parse_scenario_value(value: &Value) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    let mut ctx = Ctx { errors: Vec::new() };
    let Value::Object(doc) = value else {
        ctx.err("", format!("a scenario file is a JSON object, got {}", value.kind()));
        return Err(ctx.errors);
    };

    // The format tag gates everything else: a file from a future revision
    // gets one clear error, not a shower of unknown-field noise.
    match get(doc, "format") {
        Some(Value::String(s)) if s == SCENARIO_FORMAT => {}
        Some(Value::String(s)) => {
            ctx.err("format", format!("unsupported format {s:?} (this build reads {SCENARIO_FORMAT:?})"));
            return Err(ctx.errors);
        }
        Some(v) => {
            ctx.err("format", format!("must be the string {SCENARIO_FORMAT:?}, got {}", v.kind()));
            return Err(ctx.errors);
        }
        None => {
            ctx.err("format", format!("missing (a scenario file starts with \"format\": {SCENARIO_FORMAT:?})"));
            return Err(ctx.errors);
        }
    }

    let known: Vec<&str> = TOP_LEVEL_KEYS
        .iter()
        .copied()
        .chain(SECTIONS.iter().map(|&(name, _)| name))
        .collect();
    check_keys(&mut ctx, doc, "", &known);
    // `name` and `notes` are annotation: validated as strings, ignored by
    // the lowering (JSON has no comments, so the format carries them).
    str_field(&mut ctx, doc, "", "name", "");
    str_field(&mut ctx, doc, "", "notes", "");

    for (name, structural) in SECTIONS {
        check_section(&mut ctx, doc, name, structural);
    }

    let tick_mins = u64_field(&mut ctx, doc, "", "tick_mins", 15);
    let duration_hours = u64_field(&mut ctx, doc, "", "duration_hours", 96);
    // The horizon bound is a function of the tick, so it is only derived
    // from a tick that is on the menu.
    if check(&mut ctx, "tick_mins".into(), &TICK, tick_mins as f64, tick_mins) {
        let horizon = horizon_hours(tick_mins);
        if !horizon.admits(duration_hours as f64) {
            ctx.err(
                "duration_hours",
                format!(
                    "must be {horizon} at a {tick_mins}-minute tick (campaigns are \
                     differential-tested under the lockstep engine), got {duration_hours}"
                ),
            );
        }
    }

    let scheduling = section(doc, "scheduling");
    let mode = match str_field(&mut ctx, scheduling, "scheduling", "mode", "external") {
        "external" => {
            if get(scheduling, "period_hours").is_some() {
                ctx.err(
                    "scheduling.period_hours",
                    "only meaningful when mode is \"naive-cron\"",
                );
            }
            ModeDim::External
        }
        "naive-cron" => {
            let period_hours = u64_field(&mut ctx, scheduling, "scheduling", "period_hours", 6);
            let path = "scheduling.period_hours".into();
            check(&mut ctx, path, &CRON_PERIOD_HOURS, period_hours as f64, period_hours);
            ModeDim::NaiveCron { period_hours }
        }
        other => {
            ctx.err(
                "scheduling.mode",
                format!("must be \"external\" or \"naive-cron\", got {other:?}"),
            );
            ModeDim::External
        }
    };

    let rollout_obj = section(doc, "rollout");
    let rollout = match str_field(&mut ctx, rollout_obj, "rollout", "pattern", "all-at-start") {
        "all-at-start" | "no-testing" if get(rollout_obj, "phases").is_some() => {
            ctx.err("rollout.phases", "only meaningful when pattern is \"staged\"");
            RolloutDim::AllAtStart
        }
        "all-at-start" => RolloutDim::AllAtStart,
        "no-testing" => RolloutDim::NoTesting,
        "staged" => {
            let phases = u64_field(&mut ctx, rollout_obj, "rollout", "phases", 3);
            check(&mut ctx, "rollout.phases".into(), &ROLLOUT_PHASES, phases as f64, phases);
            RolloutDim::Staged {
                phases: phases as usize,
            }
        }
        other => {
            ctx.err(
                "rollout.pattern",
                format!("must be \"all-at-start\", \"staged\" or \"no-testing\", got {other:?}"),
            );
            RolloutDim::AllAtStart
        }
    };

    let network = section(doc, "network");
    let link_model = match str_field(&mut ctx, network, "network", "link_model", "ideal") {
        "ideal" | "distance-tiered"
            if get(network, "latency_s").is_some() || get(network, "loss_prob").is_some() =>
        {
            ctx.err(
                "network.link_model",
                "latency_s/loss_prob are only meaningful when link_model is \"uniform\"",
            );
            LinkModelSpec::Ideal
        }
        "ideal" => LinkModelSpec::Ideal,
        "distance-tiered" => LinkModelSpec::DistanceTiered,
        "uniform" => {
            let latency_s = f64_field(&mut ctx, network, "network", "latency_s", 0.01);
            check(&mut ctx, "network.latency_s".into(), &LINK_LATENCY_S, latency_s, latency_s);
            let loss_prob = f64_field(&mut ctx, network, "network", "loss_prob", 0.0);
            check(&mut ctx, "network.loss_prob".into(), &LINK_LOSS, loss_prob, loss_prob);
            LinkModelSpec::Uniform {
                latency_s,
                loss_prob,
            }
        }
        other => {
            ctx.err(
                "network.link_model",
                format!("must be \"ideal\", \"uniform\" or \"distance-tiered\", got {other:?}"),
            );
            LinkModelSpec::Ideal
        }
    };

    // The structural axes are in place; every scalar axis is filled from
    // its table row below.
    let mut spec = ScenarioSpec {
        seed: u64_field(&mut ctx, doc, "", "seed", 1),
        clusters: parse_clusters(&mut ctx, doc),
        duration_hours,
        tick_mins,
        fault_mix: parse_arrivals(&mut ctx, section(doc, "faults")),
        mode,
        rollout,
        per_node_hardware: bool_field(&mut ctx, doc, "", "per_node_hardware", false),
        link_model,
        ..ScenarioSpec::default()
    };
    for axis in &SCALAR_AXES {
        let fields = section(doc, axis.section);
        let value = match axis.domain {
            Domain::Float(..) => f64_field(&mut ctx, fields, axis.section, axis.key, axis.default),
            Domain::Integer(..) | Domain::Menu(_) => {
                u64_field(&mut ctx, fields, axis.section, axis.key, axis.default as u64) as f64
            }
        };
        check(&mut ctx, join(axis.section, axis.key), &axis.domain, value, value);
        (axis.set)(&mut spec, value);
    }

    if ctx.errors.is_empty() {
        Ok(spec)
    } else {
        Err(ctx.errors)
    }
}

fn parse_clusters(ctx: &mut Ctx, doc: &[(String, Value)]) -> Vec<ClusterSpec> {
    let entries = match get(doc, "clusters") {
        Some(Value::Array(entries)) => entries.as_slice(),
        Some(v) => {
            ctx.err("clusters", format!("must be an array, got {}", v.kind()));
            return Vec::new();
        }
        None => {
            ctx.err("clusters", "missing (a scenario needs at least one cluster)");
            return Vec::new();
        }
    };
    if entries.is_empty() {
        ctx.err("clusters", "must not be empty (a scenario needs at least one cluster)");
    }
    if entries.len() > MAX_CLUSTERS {
        ctx.err(
            "clusters",
            format!("at most {MAX_CLUSTERS} clusters, got {}", entries.len()),
        );
    }
    let defaults = default_cluster("");
    let mut out = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let path = format!("clusters[{i}]");
        let Value::Object(fields) = entry else {
            ctx.err(path, format!("must be an object, got {}", entry.kind()));
            continue;
        };
        check_keys(
            ctx,
            fields,
            &path,
            &["name", "site", "nodes", "cores_per_node", "vendor", "infiniband", "disk_checkable", "gpu"],
        );
        let name = str_field(ctx, fields, &path, "name", &defaults.name).to_string();
        if name.is_empty() {
            ctx.err(join(&path, "name"), "missing or empty (clusters are named)");
        }
        let site = str_field(ctx, fields, &path, "site", &defaults.site).to_string();
        if site.is_empty() {
            ctx.err(join(&path, "site"), "must not be empty");
        }
        let nodes = u64_field(ctx, fields, &path, "nodes", defaults.nodes as u64);
        check(ctx, join(&path, "nodes"), &CLUSTER_NODES, nodes as f64, nodes);
        let cores = u64_field(ctx, fields, &path, "cores_per_node", defaults.cores_per_node as u64);
        check(ctx, join(&path, "cores_per_node"), &CORES_PER_NODE, cores as f64, cores);
        let vendor = str_field(ctx, fields, &path, "vendor", vendor_name(defaults.vendor));
        let vendor = match parse_vendor(vendor) {
            Some(v) => v,
            None => {
                ctx.err(
                    join(&path, "vendor"),
                    "must be one of: dell, hp, bull, ibm (case-insensitive)",
                );
                defaults.vendor
            }
        };
        let mut cluster = ClusterSpec::new(
            &name,
            &site,
            nodes as u32,
            cores as u32,
            vendor,
            bool_field(ctx, fields, &path, "infiniband", defaults.has_ib),
            bool_field(ctx, fields, &path, "disk_checkable", defaults.disk_checkable),
        );
        if bool_field(ctx, fields, &path, "gpu", defaults.has_gpu) {
            cluster = cluster.with_gpu();
        }
        out.push(cluster);
    }
    let seen: std::collections::BTreeSet<&str> = out.iter().map(|c| c.name.as_str()).collect();
    if seen.len() != out.len() {
        ctx.err("clusters", "cluster names must be unique");
    }
    let total: u64 = out.iter().map(|c| c.nodes as u64).sum();
    if total > MAX_NODES as u64 {
        ctx.err(
            "clusters",
            format!("total node count {total} exceeds the differential-testable ceiling of {MAX_NODES}"),
        );
    }
    out
}

fn parse_arrivals(ctx: &mut Ctx, faults: &[(String, Value)]) -> Vec<(FaultKind, f64)> {
    let entries = match get(faults, "arrivals") {
        Some(Value::Array(entries)) => entries.as_slice(),
        Some(v) => {
            ctx.err("faults.arrivals", format!("must be an array, got {}", v.kind()));
            return Vec::new();
        }
        None => return Vec::new(),
    };
    let mut out: Vec<(FaultKind, f64)> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let path = format!("faults.arrivals[{i}]");
        let Value::Object(fields) = entry else {
            ctx.err(path, format!("must be an object, got {}", entry.kind()));
            continue;
        };
        check_keys(ctx, fields, &path, &["kind", "per_day"]);
        let kind_name = str_field(ctx, fields, &path, "kind", "");
        let Some(kind) = FaultKind::ALL.iter().copied().find(|k| k.name() == kind_name) else {
            let catalogue: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
            ctx.err(
                join(&path, "kind"),
                format!("unknown fault kind {kind_name:?} (catalogue: {})", catalogue.join(", ")),
            );
            continue;
        };
        if out.iter().any(|&(k, _)| k == kind) {
            ctx.err(join(&path, "kind"), format!("duplicate fault kind {kind_name:?}"));
        }
        let per_day = f64_field(ctx, fields, &path, "per_day", 0.5);
        check(ctx, join(&path, "per_day"), &FAULT_RATE, per_day, per_day);
        out.push((kind, per_day));
    }
    out
}

/// Render a spec as a `scenario.v1` document ([`parse_scenario`] of the
/// result returns the spec bit-for-bit — floats print shortest-exact).
pub fn to_scenario_value(spec: &ScenarioSpec) -> Value {
    let clusters: Vec<Value> = spec
        .clusters
        .iter()
        .map(|c| {
            Value::Object(vec![
                ("name".into(), Value::String(c.name.clone())),
                ("site".into(), Value::String(c.site.clone())),
                ("nodes".into(), Value::U64(c.nodes as u64)),
                ("cores_per_node".into(), Value::U64(c.cores_per_node as u64)),
                ("vendor".into(), Value::String(vendor_name(c.vendor).into())),
                ("infiniband".into(), Value::Bool(c.has_ib)),
                ("disk_checkable".into(), Value::Bool(c.disk_checkable)),
                ("gpu".into(), Value::Bool(c.has_gpu)),
            ])
        })
        .collect();
    let mut doc = vec![
        ("format".into(), Value::String(SCENARIO_FORMAT.into())),
        ("seed".into(), Value::U64(spec.seed)),
        ("duration_hours".into(), Value::U64(spec.duration_hours)),
        ("tick_mins".into(), Value::U64(spec.tick_mins)),
        ("clusters".into(), Value::Array(clusters)),
    ];
    // Each section: its structural keys, then its scalar-axis rows.
    for (name, _) in SECTIONS {
        let mut fields: Vec<(String, Value)> = match name {
            "faults" => {
                let arrivals = spec.fault_mix.iter().map(|&(kind, per_day)| {
                    Value::Object(vec![
                        ("kind".into(), Value::String(kind.name().into())),
                        ("per_day".into(), Value::F64(per_day)),
                    ])
                });
                vec![("arrivals".into(), Value::Array(arrivals.collect()))]
            }
            "scheduling" => match spec.mode {
                ModeDim::External => vec![("mode".into(), Value::String("external".into()))],
                ModeDim::NaiveCron { period_hours } => vec![
                    ("mode".into(), Value::String("naive-cron".into())),
                    ("period_hours".into(), Value::U64(period_hours)),
                ],
            },
            "rollout" => match spec.rollout {
                RolloutDim::AllAtStart => {
                    vec![("pattern".into(), Value::String("all-at-start".into()))]
                }
                RolloutDim::NoTesting => {
                    vec![("pattern".into(), Value::String("no-testing".into()))]
                }
                RolloutDim::Staged { phases } => vec![
                    ("pattern".into(), Value::String("staged".into())),
                    ("phases".into(), Value::U64(phases as u64)),
                ],
            },
            "network" => match spec.link_model {
                LinkModelSpec::Ideal => {
                    vec![("link_model".into(), Value::String("ideal".into()))]
                }
                LinkModelSpec::DistanceTiered => {
                    vec![("link_model".into(), Value::String("distance-tiered".into()))]
                }
                LinkModelSpec::Uniform {
                    latency_s,
                    loss_prob,
                } => vec![
                    ("link_model".into(), Value::String("uniform".into())),
                    ("latency_s".into(), Value::F64(latency_s)),
                    ("loss_prob".into(), Value::F64(loss_prob)),
                ],
            },
            _ => Vec::new(),
        };
        for axis in SCALAR_AXES.iter().filter(|a| a.section == name) {
            let value = (axis.get)(spec);
            let value = match axis.domain {
                Domain::Float(..) => Value::F64(value),
                Domain::Integer(..) | Domain::Menu(_) => Value::U64(value as u64),
            };
            fields.push((axis.key.into(), value));
        }
        doc.push((name.into(), Value::Object(fields)));
    }
    doc.push(("per_node_hardware".into(), Value::Bool(spec.per_node_hardware)));
    Value::Object(doc)
}

/// [`to_scenario_value`] pretty-printed, ready to write to disk.
pub fn to_scenario_json(spec: &ScenarioSpec) -> String {
    // detlint: allow(no-unwrap-in-lib) -- rendering a `Value` tree to text cannot fail
    serde_json::to_string_pretty(spec).expect("scenario value serializes")
}

/// [`to_scenario_json`] with a `notes` annotation after the format tag —
/// the shape of a reproducer, whose notes name the violated oracle.
pub(crate) fn to_annotated_json(spec: &ScenarioSpec, notes: &str) -> String {
    let mut doc = to_scenario_value(spec);
    if let Value::Object(fields) = &mut doc {
        fields.insert(1, ("notes".into(), Value::String(notes.into())));
    }
    // detlint: allow(no-unwrap-in-lib) -- rendering a `Value` tree to text cannot fail
    serde_json::to_string_pretty(&doc).expect("scenario value serializes")
}

/// A spec serializes as its `scenario.v1` document, so every envelope
/// that embeds one (corpus entry, run log) carries the one format.
impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        to_scenario_value(self)
    }
}

/// …and deserializes through the validator: an embedded spec is checked
/// exactly like a hand-written file.
impl serde::Deserialize for ScenarioSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        parse_scenario_value(v).map_err(|errors| {
            let all: Vec<String> = errors.iter().map(ToString::to_string).collect();
            serde::Error::new(all.join("; "))
        })
    }
}

/// The format version an envelope declares, if it declares one — probed
/// before the envelope's contents are parsed, so an artifact from another
/// revision reports its version instead of whatever field it fails on.
pub(crate) fn envelope_version(envelope: &Value) -> Option<u32> {
    match get(envelope.as_object()?, "version")? {
        Value::I64(n) => Some(u32::try_from(*n).unwrap_or(u32::MAX)),
        Value::U64(n) => Some(u32::try_from(*n).unwrap_or(u32::MAX)),
        _ => Some(u32::MAX),
    }
}

/// Load and validate a scenario file. I/O failures come back in the same
/// all-errors shape as validation failures, attributed to the file.
pub fn load_scenario_file(path: &std::path::Path) -> Result<ScenarioSpec, Vec<ScenarioFileError>> {
    let json = std::fs::read_to_string(path).map_err(|e| {
        vec![ScenarioFileError {
            path: path.display().to_string(),
            message: format!("cannot read file: {e}"),
        }]
    })?;
    parse_scenario(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(seed: u64) {
        let spec = ScenarioSpec::from_seed(seed);
        let json = to_scenario_json(&spec);
        let back = parse_scenario(&json)
            .unwrap_or_else(|errs| panic!("seed {seed} did not round-trip: {errs:?}"));
        assert_eq!(back, spec, "seed {seed} round-trip is not bit-identical");
    }

    #[test]
    fn every_grammar_spec_roundtrips() {
        for seed in 0..32 {
            roundtrip(seed);
        }
    }

    #[test]
    fn mutated_specs_roundtrip_too() {
        // Mutants reach the dimensions bare seeds never set: buggify,
        // non-ideal link models, staged rollouts at the clamp edges.
        let mut rng = ttt_sim::rng::stream_rng(7, "scenario-file-test");
        let donor = ScenarioSpec::from_seed(99);
        let mut spec = ScenarioSpec::from_seed(3);
        for _ in 0..200 {
            spec = crate::mutate::mutate(&spec, &donor, &mut rng);
            let json = to_scenario_json(&spec);
            let back = parse_scenario(&json)
                .unwrap_or_else(|errs| panic!("mutant did not round-trip: {errs:?}\n{json}"));
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn minimal_file_gets_the_documented_defaults() {
        let json = r#"{
            "format": "scenario.v1",
            "clusters": [
                {"name": "alpha", "site": "east", "nodes": 4}
            ]
        }"#;
        let spec = parse_scenario(json).expect("minimal file is valid");
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.duration_hours, 96);
        assert_eq!(spec.tick_mins, 15);
        assert_eq!(spec.executors, 4);
        assert!(spec.fault_mix.is_empty());
        assert_eq!(spec.mode, ModeDim::External);
        assert_eq!(spec.rollout, RolloutDim::AllAtStart);
        assert_eq!(spec.link_model, LinkModelSpec::Ideal);
        assert_eq!(spec.buggify_rate, 0.0);
        assert_eq!(spec.clusters[0].cores_per_node, 8);
        assert!(spec.clusters[0].disk_checkable);
    }

    #[test]
    fn validator_reports_every_error_with_its_path() {
        let json = r#"{
            "format": "scenario.v1",
            "tick_mins": 13,
            "clusters": [
                {"name": "a", "site": "s", "nodes": 4},
                {"name": "b", "site": "s", "nodes": 99, "vendor": "cray"}
            ],
            "users": {"cluster_affinity": 7.5},
            "scheduling": {"mode": "quantum"},
            "network": {"link_model": "uniform", "loss_prob": 0.9},
            "typo_section": {}
        }"#;
        let errs = parse_scenario(json).unwrap_err();
        let paths: Vec<&str> = errs.iter().map(|e| e.path.as_str()).collect();
        for expected in [
            "tick_mins",
            "clusters[1].nodes",
            "clusters[1].vendor",
            "users.cluster_affinity",
            "scheduling.mode",
            "network.loss_prob",
            "typo_section",
        ] {
            assert!(
                paths.contains(&expected),
                "missing error at {expected}; got {errs:?}"
            );
        }
        // All of them in ONE pass, not one per run.
        assert!(errs.len() >= 7, "expected >= 7 errors, got {errs:?}");
    }

    #[test]
    fn wrong_or_missing_format_is_one_clear_error() {
        let errs = parse_scenario("{\"clusters\": []}").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].path, "format");

        let errs = parse_scenario("{\"format\": \"scenario.v9\"}").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("scenario.v9"));

        let errs = parse_scenario("[1, 2]").unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("object"));
    }

    #[test]
    fn corrupted_inputs_never_panic() {
        for junk in [
            "",
            "not json",
            "{",
            "null",
            "3.14",
            "{\"format\": \"scenario.v1\", \"clusters\": [null, 7, []]}",
            "{\"format\": \"scenario.v1\", \"clusters\": {\"a\": 1}}",
            "{\"format\": \"scenario.v1\", \"clusters\": [], \"faults\": 9}",
            "{\"format\": 1}",
            // An off-menu tick must not reach the horizon arithmetic
            // (`MAX_TICKS * tick_mins` used to overflow here).
            "{\"format\":\"scenario.v1\",\"tick_mins\":18446744073709551615,\
             \"clusters\":[{\"name\":\"a\",\"site\":\"s\",\"nodes\":2}]}",
        ] {
            let result = parse_scenario(junk);
            assert!(result.is_err(), "junk accepted: {junk}");
        }
    }

    #[test]
    fn scheduling_and_network_misuse_is_flagged() {
        let json = r#"{
            "format": "scenario.v1",
            "clusters": [{"name": "a", "site": "s", "nodes": 2}],
            "scheduling": {"mode": "external", "period_hours": 4},
            "rollout": {"pattern": "all-at-start", "phases": 2},
            "network": {"link_model": "ideal", "latency_s": 1.0}
        }"#;
        let errs = parse_scenario(json).unwrap_err();
        let paths: Vec<&str> = errs.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"scheduling.period_hours"));
        assert!(paths.contains(&"rollout.phases"));
        assert!(paths.contains(&"network.link_model"));
    }

    #[test]
    fn display_is_path_qualified() {
        let e = ScenarioFileError {
            path: "clusters[2].nodes".into(),
            message: "must be between 1 and 8, got 99".into(),
        };
        assert_eq!(e.to_string(), "clusters[2].nodes: must be between 1 and 8, got 99");
    }
}
