//! Argument parsing and subcommand execution, hand-rolled (no external
//! argument-parsing dependency) and fully unit-tested.

use std::fmt::Write as _;

use pocolo::net::{MAX_FRAME_BYTES, SCALE_DEADLINE};
use pocolo::prelude::*;
use pocolo::sim::CAPPER_PERIOD_S;
use pocolo_core::check::{failures, Check};

/// Usage text.
pub const USAGE: &str = "\
pocolo — power optimized colocation (IISWC 2020 reproduction)

USAGE:
    pocolo <COMMAND> [OPTIONS]

COMMANDS:
    fit --app <name>         profile + fit one application's indirect utility
    convexity --app <name>   screen an app for framework suitability (§V-G)
    place                    compute the power-optimized placement
    simulate --policy <p>    run the 10-90% sweep under a policy
    clusterd                 run the POColo cluster daemon for one experiment
    agentd --connect <addr>  run one POM agent against a cluster daemon
    demo-net                 drive the experiment over real loopback TCP and
                             verify parity against the in-process engine
    demo-traffic             synthesize open-loop traffic through the fleet's
                             LC slots with online utility refit
    demo-fleet               run a seeded mixed-SKU fleet under chaos and
                             verify SKU-aware placement beats SKU-blind with
                             every class honoring its power cap
    demo-federation          run a seeded multi-region federation under a
                             regional brownout (and leader kill) and verify
                             the federated placer beats region-isolated
                             baselines with failover bit-identical to the
                             uninterrupted reference
    tco                      amortized monthly TCO comparison
    table2                   Table II: LC application characteristics
    figures                  every table, figure and ablation of the paper's
                             evaluation, in paper order (takes no options)
    help                     this text

OPTIONS:
    --app <name>       img-dnn | sphinx | xapian | tpcc | lstm | rnn | graph | pbzip
    --policy <p>       random | heracles | pom | pocolo    (default: pocolo)
    --solver <s>       lp | hungarian | exhaustive | fair | random:<seed>
                       (default: lp)
    --dwell <seconds>  seconds per load level, at least one 0.1 s
                       capper period                   (default: 20)
    --seed <n>         RNG seed                        (default: 1)
    --parallelism <p>  serial | auto | <threads>       (default: auto)
    --faults <spec>    inject faults: brownout | crash | chaos | surge, with
                       an optional schedule seed as <scenario>:<seed>;
                       demo-federation instead takes region-brownout |
                       region-chaos (region-chaos adds a leader crash)
    --regions <n>      demo-federation: federated regions  (default: 3)
    --fleet <spec>     server fleet composition, as a preset (mixed3, xeon,
                       turbo, stepcell) or class terms like
                       xeon*2+turbo[/cores/ways], with an optional class-
                       assignment seed as <spec>:<seed>; a single-class
                       fleet reproduces the classic run bit-for-bit
    --traffic <spec>   demo-traffic mix: steady | diurnal | flashcrowd |
                       regional, with an optional seed as <mix>:<seed>
                       (default: flashcrowd)
    --shards <n>       demo-traffic generator shards    (default: 1)
    --users <n>        demo-traffic simulated users     (default: 1000000)
    --ticks <n>        demo-traffic simulated ticks     (default: 10)
    --online-fit       demo-traffic: adopt online refits and replan on drift
    --no-resilience    respond to faults naively (no degraded mode)
    --decision-log <path>  dump per-tick controller decisions as JSON lines
    --listen <addr>    clusterd bind address           (default: 127.0.0.1:7700)
    --connect <addr>   agentd: cluster daemon address  (default: 127.0.0.1:7700)
    --agent <name>     agentd: stable identity         (default: agent-<pid>)
    --lease-ttl-ms <n> clusterd/demo-net heartbeat lease TTL  (default: 1000)
    --kill-agent       demo-net: kill one agent mid-run to exercise lease
                       expiry -> degraded fallback -> re-registration
    --agents <n>       demo-net: scale mode — run <n> swarm agents with
                       synthetic telemetry against one daemon event loop
    --heartbeats <n>   demo-net scale mode: telemetry frames per agent
                       (default: 5)
    --heartbeat-ms <n> demo-net scale mode: per-agent heartbeat pacing,
                       0 = closed-loop                 (default: 1000)
    --json             machine-readable output";

/// The flags each command reads, one row per command. A flag that
/// switches a command into another mode (`demo-net --agents`) gives that
/// mode its own row. Any other flag is refused before the run
/// ([`refuse_before_run`]) rather than ignored.
const READS: [(&str, &str); 15] = [
    ("help", ""),
    ("table2", "--json"),
    ("fit", "--app --json"),
    ("convexity", "--app --json"),
    ("place", "--solver --json"),
    (
        "simulate",
        "--fleet --policy --solver --dwell --seed --parallelism --faults --no-resilience \
         --decision-log --json",
    ),
    (
        "clusterd",
        "--policy --solver --dwell --seed --parallelism --faults --no-resilience \
         --listen --lease-ttl-ms --json",
    ),
    ("agentd", "--connect --agent --json"),
    (
        "demo-net",
        "--policy --solver --dwell --seed --parallelism --faults --no-resilience \
         --lease-ttl-ms --kill-agent --json",
    ),
    (
        "demo-net --agents",
        "--agents --heartbeats --heartbeat-ms --lease-ttl-ms --json",
    ),
    (
        "demo-traffic",
        "--traffic --users --ticks --shards --online-fit --seed --parallelism --faults --json",
    ),
    (
        "demo-fleet",
        "--fleet --solver --dwell --seed --parallelism --faults --no-resilience --json",
    ),
    (
        "demo-federation",
        "--regions --seed --parallelism --faults --decision-log --json",
    ),
    ("tco", "--json"),
    ("figures", ""),
];

/// Largest `--regions`. A regional brownout is the demo's whole story and
/// it thins out as regions are added: at seed 1 the federated-beats-isolated
/// gate already fails at 192 regions.
const MAX_REGIONS: usize = 64;

/// Largest `--agents`: a welcome spends at least 15 bytes a slot (`"tpcc",`
/// `"rnn",` `0,`), so no more slots fit under [`MAX_FRAME_BYTES`].
const MAX_AGENTS: usize = MAX_FRAME_BYTES / 15;

/// Largest `--heartbeat-ms`: a slower pacing could never finish inside the
/// scale run's deadline.
const MAX_HEARTBEAT_MS: u64 = SCALE_DEADLINE.as_millis() as u64;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The subcommand.
    pub command: String,
    /// `--app`.
    pub app: Option<String>,
    /// `--policy`.
    pub policy: String,
    /// `--solver`.
    pub solver: String,
    /// `--dwell`.
    pub dwell: f64,
    /// `--seed`.
    pub seed: u64,
    /// `--parallelism`.
    pub parallelism: Parallelism,
    /// `--faults` (raw `<scenario>[:<seed>]` spec).
    pub faults: Option<String>,
    /// `--fleet` (raw `<spec>[:<seed>]` fleet composition).
    pub fleet: Option<String>,
    /// `--regions` (demo-federation region count).
    pub regions: usize,
    /// `--no-resilience`.
    pub no_resilience: bool,
    /// `--decision-log` (path for the JSON-lines decision trace).
    pub decision_log: Option<String>,
    /// `--listen` (clusterd bind address).
    pub listen: String,
    /// `--connect` (agentd cluster-daemon address).
    pub connect: String,
    /// `--agent` (agentd identity).
    pub agent: Option<String>,
    /// `--lease-ttl-ms` (heartbeat lease TTL).
    pub lease_ttl_ms: u64,
    /// `--kill-agent` (demo-net failure-path exercise).
    pub kill_agent: bool,
    /// `--agents` (demo-net scale mode; 0 = classic parity demo).
    pub agents: usize,
    /// `--heartbeats` (demo-net scale mode telemetry frames per agent).
    pub heartbeats: u64,
    /// `--heartbeat-ms` (demo-net scale mode pacing; 0 = closed-loop).
    pub heartbeat_ms: u64,
    /// `--traffic` (raw `<mix>[:<seed>]` spec).
    pub traffic: Option<String>,
    /// `--shards` (traffic generator shards).
    pub shards: usize,
    /// `--users` (simulated user population).
    pub users: u64,
    /// `--ticks` (simulated ticks).
    pub ticks: u64,
    /// `--online-fit` (adopt refitted models).
    pub online_fit: bool,
    /// `--json`.
    pub json: bool,
    /// Every flag the command line names, in order: what
    /// [`refuse_before_run`] checks against the command's [`READS`] row.
    flags: Vec<String>,
}

/// Parses raw arguments.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands/flags or missing
/// values.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let command = it.next().cloned().unwrap_or_else(|| "help".to_string());
    let mut opts = Options {
        command,
        app: None,
        policy: "pocolo".into(),
        solver: "lp".into(),
        dwell: 20.0,
        seed: 1,
        parallelism: Parallelism::default(),
        faults: None,
        fleet: None,
        regions: 3,
        no_resilience: false,
        decision_log: None,
        listen: "127.0.0.1:7700".into(),
        connect: "127.0.0.1:7700".into(),
        agent: None,
        lease_ttl_ms: 1000,
        kill_agent: false,
        agents: 0,
        heartbeats: 5,
        heartbeat_ms: 1000,
        traffic: None,
        shards: 1,
        users: 1_000_000,
        ticks: 10,
        online_fit: false,
        json: false,
        flags: Vec::new(),
    };
    while let Some(flag) = it.next() {
        opts.flags.push(flag.clone());
        let flag = flag.as_str();
        match flag {
            "--app" => opts.app = Some(take(&mut it, flag, "a value")?),
            "--policy" => opts.policy = take(&mut it, flag, "a value")?,
            "--solver" => opts.solver = take(&mut it, flag, "a value")?,
            "--dwell" => opts.dwell = take_parsed(&mut it, flag)?,
            "--seed" => opts.seed = take_parsed(&mut it, flag)?,
            "--parallelism" => opts.parallelism = take(&mut it, flag, "a value")?.parse()?,
            "--faults" => opts.faults = Some(take(&mut it, flag, "a value")?),
            "--fleet" => opts.fleet = Some(take(&mut it, flag, "a value")?),
            "--regions" => {
                opts.regions = at_most(take_parsed(&mut it, flag)?, MAX_REGIONS, flag)?;
                if opts.regions < 2 {
                    return Err("--regions needs at least 2 (nowhere to fail over to)".into());
                }
            }
            "--no-resilience" => opts.no_resilience = true,
            "--decision-log" => opts.decision_log = Some(take(&mut it, flag, "a path")?),
            "--listen" => opts.listen = take(&mut it, flag, "an address")?,
            "--connect" => opts.connect = take(&mut it, flag, "an address")?,
            "--agent" => opts.agent = Some(take(&mut it, flag, "a name")?),
            "--lease-ttl-ms" => opts.lease_ttl_ms = take_positive(&mut it, flag)?,
            "--kill-agent" => opts.kill_agent = true,
            "--agents" => opts.agents = at_most(take_positive(&mut it, flag)?, MAX_AGENTS, flag)?,
            "--heartbeats" => opts.heartbeats = take_positive(&mut it, flag)?,
            "--heartbeat-ms" => {
                opts.heartbeat_ms = at_most(take_parsed(&mut it, flag)?, MAX_HEARTBEAT_MS, flag)?;
            }
            "--traffic" => opts.traffic = Some(take(&mut it, flag, "a value")?),
            "--shards" => opts.shards = take_positive(&mut it, flag)?,
            "--users" => opts.users = take_positive(&mut it, flag)?,
            "--ticks" => opts.ticks = take_positive(&mut it, flag)?,
            "--online-fit" => opts.online_fit = true,
            "--json" => opts.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

/// The value following `flag`, or `"<flag> needs <what>"`.
fn take(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// The value following `flag`, parsed, or `"<flag>: <parse error>"`.
fn take_parsed<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    take(it, flag, "a value")?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Like [`take_parsed`] for a count, which must not be zero.
fn take_positive<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    match take_parsed::<T>(it, flag)? {
        zero if zero == T::default() => Err(format!("{flag} must be positive")),
        n => Ok(n),
    }
}

/// `n`, or `"<flag> must be at most <max>"`.
fn at_most<T: PartialOrd + std::fmt::Display>(n: T, max: T, flag: &str) -> Result<T, String> {
    if n > max {
        Err(format!("{flag} must be at most {max}"))
    } else {
        Ok(n)
    }
}

fn policy_of(opts: &Options) -> Result<Policy, String> {
    match opts.policy.as_str() {
        "random" => Ok(Policy::Random { seed: opts.seed }),
        "heracles" => Ok(Policy::Heracles { seed: opts.seed }),
        "pom" => Ok(Policy::Pom { seed: opts.seed }),
        "pocolo" => Ok(Policy::Pocolo {
            solver: opts.solver.parse()?,
        }),
        other => Err(format!("unknown policy {other:?}")),
    }
}

fn experiment_of(opts: &Options) -> Result<ExperimentConfig, String> {
    // A load level shorter than one capper period takes no sample at all,
    // and a report over no samples would read as a clean run.
    if !(opts.dwell.is_finite() && opts.dwell >= CAPPER_PERIOD_S) {
        return Err(format!(
            "--dwell must be finite and at least {CAPPER_PERIOD_S} s (one capper period)"
        ));
    }
    Ok(ExperimentConfig {
        dwell_s: opts.dwell,
        seed: opts.seed,
        parallelism: opts.parallelism,
        faults: opts.faults.as_deref().map(str::parse).transpose()?,
        resilience: !opts.no_resilience,
    })
}

fn format_result(result: &ExperimentResult, config: &ExperimentConfig, json: bool) -> String {
    if json {
        return pocolo_json::to_string_pretty(result);
    }
    let mut out = format!(
        "{}: BE throughput {:.4}, power utilization {:.1}%, capping {:.1}%, worst SLO violation {:.1}%\n",
        result.policy,
        result.summary.avg_be_throughput,
        100.0 * result.summary.avg_power_utilization,
        100.0 * result.summary.avg_capping_frac,
        100.0 * result.summary.worst_violation_frac,
    );
    if let Some(spec) = &config.faults {
        let _ = writeln!(
            out,
            "  faults: {spec} ({}) — SLO violations during faults {:.1}%, \
             time to recover {:.1} s, evictions {}",
            if config.resilience {
                "degraded-mode response"
            } else {
                "naive response"
            },
            100.0 * result.summary.slo_violation_frac_during_fault,
            result.summary.time_to_recover_s,
            result.summary.evictions,
        );
    }
    for p in &result.pairs {
        let _ = writeln!(
            out,
            "  {:>8} + {:<6} thpt {:.4}  util {:.1}%",
            p.lc,
            p.be,
            p.metrics.be_throughput_avg,
            100.0 * p.metrics.power_utilization()
        );
    }
    out.trim_end().to_string()
}

/// Why `pocolo` exits nonzero.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// Bad arguments or a run that could not finish: one line.
    Error(String),
    /// A finished run broke promises: one line per failed check.
    Checks(Vec<String>),
}

/// Executes the parsed command, returning the text to print.
///
/// # Errors
///
/// [`Failure::Error`] for invalid arguments or a run that could not
/// finish; [`Failure::Checks`] when any check of a finished run failed,
/// the one exit rule of every verifying command.
pub fn run(args: &[String]) -> Result<String, Failure> {
    let opts = parse(args).map_err(Failure::Error)?;
    refuse_before_run(&opts).map_err(Failure::Error)?;
    let plain = |text: Result<String, String>| text.map(|text| (text, Vec::new()));
    let (text, checks) = match opts.command.as_str() {
        "help" | "--help" | "-h" => Ok((USAGE.to_string(), Vec::new())),
        "table2" => plain(cmd_table2(&opts)),
        "fit" => plain(cmd_fit(&opts)),
        "convexity" => plain(cmd_convexity(&opts)),
        "place" => plain(cmd_place(&opts)),
        "simulate" => plain(cmd_simulate(&opts)),
        "clusterd" => plain(cmd_clusterd(&opts)),
        "agentd" => plain(cmd_agentd(&opts)),
        "demo-net" => cmd_demo_net(&opts),
        "demo-traffic" => plain(cmd_demo_traffic(&opts)),
        "demo-fleet" => cmd_demo_fleet(&opts),
        "demo-federation" => cmd_demo_federation(&opts),
        "tco" => plain(cmd_tco(&opts)),
        "figures" => plain(cmd_figures()),
        other => Err(format!("unknown command {other:?}")),
    }
    .map_err(Failure::Error)?;
    let failed = failures(&checks);
    if failed.is_empty() {
        return Ok(text);
    }
    let line = |check: &String| format!("{} failed: {check}", opts.command);
    Err(Failure::Checks(failed.iter().map(line).collect()))
}

/// Refuses, before the run, what the command cannot take: a flag its
/// [`READS`] row does not list, a seed too large for the wire (the run
/// spec ships `--seed` to every agent as a JSON number, which carries
/// integers exactly only below 2^53), or a fault it would otherwise
/// ignore without a word.
fn refuse_before_run(opts: &Options) -> Result<(), String> {
    let mode = match opts.command.as_str() {
        "help" | "--help" | "-h" => "help",
        "demo-net" if opts.agents > 0 => "demo-net --agents",
        command => command,
    };
    // An unknown command is `run`'s own error.
    if let Some((_, reads)) = READS.iter().find(|(name, _)| *name == mode) {
        if let Some(flag) = opts
            .flags
            .iter()
            .find(|&f| !reads.split_whitespace().any(|r| r == f))
        {
            return Err(format!("{mode} does not take {flag}"));
        }
    }
    let (seed, limit) = (opts.seed, pocolo_json::EXACT_INT_LIMIT);
    if matches!(opts.command.as_str(), "clusterd" | "demo-net") && seed >= limit {
        return Err(format!(
            "--seed {seed} is too large for a wire run (must be below 2^53 = {limit})"
        ));
    }
    if let ("demo-traffic", Some(raw)) = (opts.command.as_str(), opts.faults.as_deref()) {
        // A spec that does not parse is the command's own error.
        let dropped = raw
            .parse::<FaultSpec>()
            .map(|spec| pocolo::traffic::unmodelled_faults(spec.scenario))
            .unwrap_or_default();
        if !dropped.is_empty() {
            return Err(format!(
                "demo-traffic models only brownouts and model drift; --faults {raw} injects {}",
                dropped.join(" and ")
            ));
        }
    }
    Ok(())
}

fn cmd_table2(opts: &Options) -> Result<String, String> {
    let machine = MachineSpec::xeon_e5_2650();
    let rows: Vec<pocolo_json::Value> = LcApp::ALL
        .iter()
        .map(|&app| {
            let m = LcModel::for_app(app, machine.clone());
            pocolo_json::json!({
                "app": app.name(),
                "peak_load_rps": m.peak_load_rps(),
                "p99_slo_ms": m.slo_p99_ms(),
                "peak_power_w": m.provisioned_power().0,
            })
        })
        .collect();
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&rows));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>12} {:>14}",
        "app", "peak load/s", "p99 SLO ms", "peak power W"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>14} {:>12} {:>14}",
            r["app"].as_str().unwrap_or("?"),
            r["peak_load_rps"],
            r["p99_slo_ms"],
            r["peak_power_w"]
        );
    }
    Ok(out.trim_end().to_string())
}

fn cmd_fit(opts: &Options) -> Result<String, String> {
    let name = opts.app.as_deref().ok_or("fit requires --app <name>")?;
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let (kind, utility) = fitted
        .lc()
        .iter()
        .find(|(a, _, _)| a.name() == name)
        .map(|(_, _, u)| ("latency-critical", u.clone()))
        .or_else(|| {
            fitted
                .be()
                .iter()
                .find(|(a, _, _)| a.name() == name)
                .map(|(_, _, u)| ("best-effort", u.clone()))
        })
        .ok_or_else(|| format!("unknown app {name:?} (see `pocolo help`)"))?;
    let pref = utility.preference_vector();
    let direct = utility.direct_preference_vector();
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&pocolo_json::json!({
            "app": name,
            "kind": kind,
            "alphas": utility.performance_model().alphas(),
            "alpha0": utility.performance_model().alpha0(),
            "p_static_w": utility.power_model().p_static().0,
            "p_dynamic": utility.power_model().p_dynamic(),
            "direct_preference": direct.weights(),
            "indirect_preference": pref.weights(),
        })));
    }
    Ok(format!(
        "{name} ({kind})\n  performance: {}\n  power:       {}\n  direct preference (cores:ways):   {direct}\n  indirect preference (per watt):   {pref}",
        utility.performance_model(),
        utility.power_model(),
    ))
}

fn cmd_convexity(opts: &Options) -> Result<String, String> {
    use pocolo_simserver::power::PowerDrawModel;
    let name = opts
        .app
        .as_deref()
        .ok_or("convexity requires --app <name>")?;
    let machine = MachineSpec::xeon_e5_2650();
    let power = PowerDrawModel::new(machine.clone());
    let space = machine.resource_space();
    let cfg = ProfilerConfig::default();
    let samples = if let Some(&app) = LcApp::ALL.iter().find(|a| a.name() == name) {
        profile_lc(
            &LcModel::for_app(app, machine.clone()),
            &power,
            &space,
            &cfg,
        )
    } else if let Some(&app) = BeApp::ALL.iter().find(|a| a.name() == name) {
        profile_be(
            &BeModel::for_app(app, machine.clone()),
            &power,
            &space,
            &cfg,
        )
    } else {
        return Err(format!("unknown app {name:?} (see `pocolo help`)"));
    };
    let report = check_convexity(&space, &samples, 0.10).map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&report));
    }
    let mut out = format!(
        "{name}: {}
",
        if report.is_suitable(0.05) {
            "suitable for the Cobb-Douglas framework"
        } else {
            "NOT suitable — preferences violate convexity/monotonicity"
        }
    );
    for a in &report.axes {
        let _ = writeln!(
            out,
            "  {:>10}: {} triples, {:.1}% convexity violations, {:.1}% monotonicity violations",
            a.resource,
            a.triples,
            100.0 * a.convexity_violations,
            100.0 * a.monotonicity_violations
        );
    }
    Ok(out.trim_end().to_string())
}

fn cmd_place(opts: &Options) -> Result<String, String> {
    let solver: Solver = opts.solver.parse()?;
    let fitted = FittedCluster::fit(&ProfilerConfig::default());
    let manager = ClusterManager::new(fitted.be_profiles(), fitted.server_profiles());
    let matrix = manager.performance_matrix().map_err(|e| e.to_string())?;
    let assignment = pocolo::cluster::assign::solve(&matrix, solver).map_err(|e| e.to_string())?;
    let pairs: Vec<(String, String)> = assignment
        .pairs
        .iter()
        .map(|&(r, c)| {
            (
                matrix.row_labels()[r].clone(),
                matrix.col_labels()[c].clone(),
            )
        })
        .collect();
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&pocolo_json::json!({
            "solver": opts.solver,
            "pairs": pairs,
            "total": assignment.total,
        })));
    }
    let mut out = format!("{matrix}\nplacement ({}):\n", opts.solver);
    for (be, lc) in &pairs {
        let _ = writeln!(out, "  {be} -> {lc}");
    }
    let _ = write!(out, "total estimated throughput: {:.4}", assignment.total);
    Ok(out)
}

/// Parses a `--fleet <spec>[:<seed>]` value. The class-assignment seed
/// defaults to the calibrated demo seed so `--fleet mixed3` is
/// reproducible out of the box.
fn fleet_of(raw: &str) -> Result<(FleetSpec, u64), String> {
    let (spec, seed) = pocolo::faults::parse_seeded(raw, "fleet")?;
    Ok((spec, seed.unwrap_or(DEMO_FLEET_SEED)))
}

/// The paper's sweep on a fleet; without `--fleet` it is the one-class
/// `xeon` fleet, which fits bit-for-bit as the paper's testbed.
fn cmd_simulate(opts: &Options) -> Result<String, String> {
    let (spec, fleet_seed) = fleet_of(opts.fleet.as_deref().unwrap_or("xeon"))?;
    let policy = policy_of(opts)?;
    let config = experiment_of(opts)?;
    // Fail fast on an unwritable log path — before the sweep runs, not
    // after it has burned minutes of simulation.
    if let Some(path) = &opts.decision_log {
        std::fs::File::create(path)
            .map_err(|e| format!("cannot write decision log {path}: {e}"))?;
    }
    let fleet = FittedFleet::fit(&ProfilerConfig::default(), spec, fleet_seed);
    let duration_s = config.sweep_duration_s();
    let plan = RunPlan::compile(fleet.plan_inputs(true), policy, &config, duration_s);
    let trace = LoadTrace::paper_sweep(config.dwell_s);
    let (result, traces) = plan.play(&trace, config.parallelism, opts.decision_log.is_some());
    if let Some(path) = &opts.decision_log {
        write_decision_log(path, &traces)?;
    }
    Ok(format_result(&result, &config, opts.json))
}

fn cmd_clusterd(opts: &Options) -> Result<String, String> {
    use pocolo::net::{default_fit, ClusterConfig, Clusterd, RunSpec};
    let policy = policy_of(opts)?;
    let config = experiment_of(opts)?;
    let listen: std::net::SocketAddr = opts
        .listen
        .parse()
        .map_err(|e| format!("--listen {:?}: {e}", opts.listen))?;
    let fitted = default_fit();
    let run = RunSpec::plan(policy, &config, fitted);
    let mut clusterd = Clusterd::spawn(ClusterConfig::new(
        listen,
        std::time::Duration::from_millis(opts.lease_ttl_ms),
        run,
    ))
    .map_err(|e| e.to_string())?;
    // Stderr so scripts capturing stdout still see only the result.
    eprintln!("clusterd listening on {}", clusterd.local_addr());
    let deadline = std::time::Duration::from_secs(24 * 3600);
    if !clusterd.wait_done(deadline) {
        return Err("clusterd: experiment did not complete within 24 h".into());
    }
    let result = clusterd
        .result()
        .ok_or_else(|| "clusterd: finished without full results".to_string())?;
    clusterd.shutdown();
    Ok(format_result(&result, &config, opts.json))
}

fn cmd_agentd(opts: &Options) -> Result<String, String> {
    use pocolo::net::{run_agent, AgentConfig};
    let connect: std::net::SocketAddr = opts
        .connect
        .parse()
        .map_err(|e| format!("--connect {:?}: {e}", opts.connect))?;
    let identity = opts
        .agent
        .clone()
        .unwrap_or_else(|| format!("agent-{}", std::process::id()));
    let report =
        run_agent(&AgentConfig::new(connect, identity.clone())).map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&pocolo_json::json!({
            "agent": identity,
            "server": report.server,
            "degraded": report.degraded,
            "epochs": report.epochs,
            "completed": report.completed,
        })));
    }
    Ok(format!(
        "{identity}: ran server {} for {} epochs ({}{})",
        report.server,
        report.epochs,
        if report.completed {
            "completed"
        } else {
            "aborted"
        },
        if report.degraded {
            ", degraded re-run"
        } else {
            ""
        },
    ))
}

/// The scale run `demo-net --agents <n>` drives. `parse` bounds
/// `--heartbeat-ms`, so the lease arithmetic cannot overflow.
fn scale_config_of(opts: &Options) -> pocolo::net::ScaleConfig {
    let mut config = pocolo::net::ScaleConfig::new(opts.agents, opts.heartbeats);
    config.heartbeat_every = std::time::Duration::from_millis(opts.heartbeat_ms);
    config.lease_ttl = std::time::Duration::from_millis(opts.lease_ttl_ms.max(
        // A lease shorter than two heartbeats would expire mid-run by
        // construction; scale mode sizes the default up instead of
        // failing a healthy fleet.
        3 * opts.heartbeat_ms.max(1),
    ));
    config
}

fn cmd_demo_net_scale(opts: &Options) -> Result<(String, Vec<Check>), String> {
    let report = pocolo::net::run_demo_scale(&scale_config_of(opts)).map_err(|e| e.to_string())?;
    if opts.json {
        // Printed only when every check passed, parity included.
        let json = pocolo_json::to_string_pretty(&pocolo_json::json!({
            "agents": opts.agents,
            "heartbeats": opts.heartbeats,
            "parity": true,
            "connect_wall_s": report.swarm.connect_wall.as_secs_f64(),
            "total_wall_s": report.swarm.total_wall.as_secs_f64(),
            "rtt_p50_us": report.swarm.rtt_quantile_us(0.50),
            "rtt_p99_us": report.swarm.rtt_quantile_us(0.99),
        }));
        return Ok((json, report.checks()));
    }
    let text = format!(
        "scale run verified: {} agents x {} heartbeats\n  \
         all connected in {:.2} s, finished in {:.2} s\n  \
         telemetry RTT p50 {} us, p99 {} us ({} samples)\n  \
         result matches the timing-independent reference bit-for-bit",
        opts.agents,
        opts.heartbeats,
        report.swarm.connect_wall.as_secs_f64(),
        report.swarm.total_wall.as_secs_f64(),
        report.swarm.rtt_quantile_us(0.50),
        report.swarm.rtt_quantile_us(0.99),
        report.swarm.rtts_us.len(),
    );
    Ok((text, report.checks()))
}

fn cmd_demo_net(opts: &Options) -> Result<(String, Vec<Check>), String> {
    use pocolo::net::{run_demo, DemoConfig};
    if opts.agents > 0 {
        return cmd_demo_net_scale(opts);
    }
    let policy = policy_of(opts)?;
    let experiment = experiment_of(opts)?;
    let mut config = DemoConfig::new(policy, experiment);
    config.lease_ttl = std::time::Duration::from_millis(opts.lease_ttl_ms);
    if opts.kill_agent {
        config.kill_after_epochs = Some(3);
    }
    let report = run_demo(&config).map_err(|e| e.to_string())?;
    if opts.json {
        let json = pocolo_json::to_string_pretty(&pocolo_json::json!({
            "parity": report.wire == report.in_process,
            "placement": report.placement.clone(),
            "degraded_slots": report.degraded_slots.clone(),
            "reregistrations": report.reregistrations,
            "killed_slot": report.killed.as_ref().map(|k| k.server),
            "wire": report.wire.clone(),
        }));
        return Ok((json, report.checks()));
    }
    let mut out = format!(
        "loopback wire path verified against the in-process engine ({})\n",
        if opts.kill_agent {
            "failure path: kill -> lease expiry -> degraded -> rejoin"
        } else {
            "clean run: bit-exact parity"
        }
    );
    if let Some(dead) = &report.killed {
        let _ = writeln!(
            out,
            "  killed agent on server {} after {} epochs; re-registrations: {}",
            dead.server, dead.epochs, report.reregistrations
        );
    }
    out.push_str(&format_result(&report.wire, &config.experiment, false));
    Ok((out, report.checks()))
}

/// Serializes every [`DecisionRecord`] as one compact JSON object per
/// line (JSON lines), tagged with the server it came from.
fn write_decision_log(path: &str, traces: &[DecisionTrace]) -> Result<(), String> {
    let mut out = String::new();
    for trace in traces {
        for r in &trace.records {
            let line = pocolo_json::to_string(&pocolo_json::json!({
                "server": trace.server,
                "lc": trace.lc.as_str(),
                "be": trace.be.as_str(),
                "t_s": r.now_s,
                "mode": r.mode.name(),
                "load_rps": r.load_rps,
                "slack": r.slack,
                "measured_w": r.measured_w,
                "effective_cap_w": r.effective_cap_w,
                "budget_w": r.budget_w,
                "cores": r.cores,
                "ways": r.ways,
                "governor_armed": r.governor_armed,
                "escalated": r.escalated,
                "ducked": r.ducked,
            }));
            out.push_str(&line);
            out.push('\n');
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write decision log {path}: {e}"))
}

fn cmd_demo_traffic(opts: &Options) -> Result<String, String> {
    let spec: TrafficSpec = opts.traffic.as_deref().unwrap_or("flashcrowd").parse()?;
    let mut config = TrafficConfig::new(spec);
    config.users = opts.users;
    config.ticks = opts.ticks;
    config.shards = opts.shards;
    config.parallelism = opts.parallelism;
    config.online_fit = opts.online_fit;
    config.seed = opts.seed;
    config.faults = opts.faults.as_deref().map(str::parse).transpose()?;
    let report = run_traffic(&config);
    // Wall-clock throughput goes to stderr: stdout must be identical
    // across shard counts so CI can diff it byte-for-byte.
    let rate = if report.gen_seconds > 0.0 {
        report.requests as f64 / report.gen_seconds
    } else {
        0.0
    };
    eprintln!(
        "generated {} requests in {:.3} s ({:.1}M req/s) across {} shard(s)",
        report.requests,
        report.gen_seconds,
        rate / 1e6,
        report.shards,
    );
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&report));
    }
    let mut out = format!(
        "{} mix: {} requests over {} ticks ({} users), digest {}\n\
         SLO-violating traffic {:.2}%; refits {}, replans {}, migrations {}\n",
        report.mix,
        report.requests,
        report.ticks,
        report.users,
        report.digest,
        100.0 * report.slo_violation_frac,
        report.refits,
        report.replans,
        report.migrations,
    );
    for s in &report.slots {
        let _ = writeln!(
            out,
            "  {:>8} req {:>10}  violating {:>10}  worst p99 {:>9.2} ms  final {}c/{}w",
            s.app, s.requests, s.violations, s.worst_p99_ms, s.cores, s.ways
        );
    }
    Ok(out.trim_end().to_string())
}

fn cmd_demo_fleet(opts: &Options) -> Result<(String, Vec<Check>), String> {
    let raw = opts.fleet.as_deref().unwrap_or("mixed3");
    let (spec, fleet_seed) = fleet_of(raw)?;
    let solver = opts.solver.parse()?;
    let mut config = experiment_of(opts)?;
    if config.faults.is_none() {
        // The demo is about honoring power caps through an emergency:
        // default to the seeded chaos scenario unless the caller picked
        // their own faults.
        config.faults = Some(FaultSpec {
            scenario: FaultScenario::Chaos,
            seed: Some(DEMO_FAULT_SEED),
        });
    }
    let cmp = compare_fleet_policies(&spec, fleet_seed, &config, solver);
    if opts.json {
        let mode_json = |run: &FleetRunResult| {
            pocolo_json::json!({
                "planned_value": run.planned_value,
                "placement": run
                    .placement
                    .iter()
                    .map(|be| be.name().to_string())
                    .collect::<Vec<String>>(),
                "avg_be_throughput": run.result.summary.avg_be_throughput,
                "avg_power_utilization": run.result.summary.avg_power_utilization,
                "worst_violation_frac": run.result.summary.worst_violation_frac,
                "cap_violations": run.cap_violations
            })
        };
        let value = pocolo_json::json!({
            "fleet": cmp.fleet.clone(),
            "seed": cmp.seed,
            "classes": cmp.classes.clone(),
            "utility_margin": cmp.utility_margin(),
            "cap_violations": cmp.cap_violations(),
            "aware": mode_json(&cmp.aware),
            "blind": mode_json(&cmp.blind)
        });
        return Ok((pocolo_json::to_string_pretty(&value), cmp.checks()));
    }
    let mut out = format!(
        "fleet {} (seed {}): SKU-aware planned utility beats SKU-blind by {:+.4}, \
         0 cap violations\n",
        cmp.fleet,
        cmp.seed,
        cmp.utility_margin(),
    );
    for (s, class) in cmp.classes.iter().enumerate() {
        let _ = writeln!(
            out,
            "  server {s} {:>8}: {:>7} hosts {:>5} (aware) vs {:>5} (blind)",
            class,
            cmp.aware.result.pairs[s].lc,
            cmp.aware.placement[s].name(),
            cmp.blind.placement[s].name(),
        );
    }
    let _ = writeln!(
        out,
        "  aware: planned {:.4}, BE throughput {:.4} | blind: planned {:.4}, BE throughput {:.4}",
        cmp.aware.planned_value,
        cmp.aware.result.summary.avg_be_throughput,
        cmp.blind.planned_value,
        cmp.blind.result.summary.avg_be_throughput,
    );
    Ok((out.trim_end().to_string(), cmp.checks()))
}

fn cmd_demo_federation(opts: &Options) -> Result<(String, Vec<Check>), String> {
    let faults: RegionFaultSpec = match opts.faults.as_deref() {
        Some(raw) => raw.parse()?,
        // Like demo-fleet, the demo is about surviving an emergency:
        // default to the seeded regional brownout.
        None => RegionFaultSpec {
            scenario: RegionScenario::RegionBrownout,
            seed: Some(DEMO_FAULT_SEED),
        },
    };
    let demo = FederationDemo::run(opts.regions, opts.seed, faults, opts.parallelism);
    let (fed_r, iso_r) = (&demo.federated, &demo.isolated);
    if let Some(path) = opts.decision_log.as_deref() {
        let log: String = fed_r
            .decision_log
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(path, log).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if opts.json {
        let value = pocolo_json::json!({
            "regions": (opts.regions as u64),
            "seed": opts.seed,
            "faults": faults.to_string(),
            "federated": fed_r.to_json(),
            "isolated": iso_r.to_json(),
            "utility_margin": (fed_r.utility - iso_r.utility),
            "slo_improvement": (iso_r.slo_violation_frac - fed_r.slo_violation_frac),
            "failover_bit_identical": true
        });
        return Ok((pocolo_json::to_string_pretty(&value), demo.checks()));
    }
    let mut out = format!(
        "federation {} regions (seed {}, faults {faults}): federated utility {:.4} beats \
         isolated {:.4} ({:+.4}), 0 cap violations\n",
        opts.regions,
        opts.seed,
        fed_r.utility,
        iso_r.utility,
        fed_r.utility - iso_r.utility,
    );
    let _ = writeln!(
        out,
        "  SLO violation fraction {:.4} vs {:.4} isolated; {} migrations over {} epochs",
        fed_r.slo_violation_frac, iso_r.slo_violation_frac, fed_r.migrations, fed_r.final_version,
    );
    match fed_r.promotions.as_slice() {
        [] => {
            let _ = writeln!(out, "  leader never challenged (no crash in {faults})");
        }
        promotions => {
            for &(tick, rank) in promotions {
                let _ = writeln!(
                    out,
                    "  leader killed: replica {rank} promoted at tick {tick}; report \
                     bit-identical to the uninterrupted reference (digest {})",
                    fed_r.decision_digest,
                );
            }
        }
    }
    Ok((out.trim_end().to_string(), demo.checks()))
}

/// Streams every table, figure and ablation to stdout in paper order (the
/// generators print as they go), leaving nothing more to print.
fn cmd_figures() -> Result<String, String> {
    pocolo_bench::figures::run_all();
    Ok(String::new())
}

fn cmd_tco(opts: &Options) -> Result<String, String> {
    let model = TcoModel::default();
    let scenarios = [
        ("Random(NoCap)", 185.0, 144.0, 1.0),
        ("Random", 150.5, 141.4, 1.0),
        ("POM", 150.5, 141.0, 1.126),
        ("POColo", 150.5, 141.2, 1.154),
    ];
    let costs: Vec<MonthlyCost> = scenarios
        .iter()
        .map(|&(name, cap, avg, rel)| {
            model.monthly_cost(&Scenario {
                name: name.into(),
                provisioned_per_server: Watts(cap),
                avg_power_per_server: Watts(avg),
                relative_throughput: rel,
            })
        })
        .collect();
    if opts.json {
        return Ok(pocolo_json::to_string_pretty(&costs));
    }
    let mut out = format!(
        "{:>14} {:>12} {:>12} {:>12} {:>12}\n",
        "policy", "servers $M", "infra $M", "energy $M", "total $M"
    );
    for c in &costs {
        let _ = writeln!(
            out,
            "{:>14} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            c.name,
            c.server_usd / 1e6,
            c.power_infra_usd / 1e6,
            c.energy_usd / 1e6,
            c.total() / 1e6
        );
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The one-line error `pocolo <args>` refuses to run with.
    fn error_of(args: &str) -> String {
        match run(&argv(args)) {
            Err(Failure::Error(e)) => e,
            other => panic!("{args}: {other:?}"),
        }
    }

    #[test]
    fn parse_defaults() {
        let o = parse(&argv("place")).unwrap();
        assert_eq!(o.command, "place");
        assert_eq!(o.solver, "lp");
        assert_eq!(o.policy, "pocolo");
        assert!(!o.json);
        assert_eq!(o.dwell, 20.0);
    }

    #[test]
    fn parse_flags() {
        let o = parse(&argv("simulate --policy pom --dwell 5 --seed 9 --json")).unwrap();
        assert_eq!(o.policy, "pom");
        assert_eq!(o.dwell, 5.0);
        assert_eq!(o.seed, 9);
        assert!(o.json);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&argv("fit --app")).is_err());
        assert!(parse(&argv("fit --frobnicate")).is_err());
        assert!(parse(&argv("simulate --dwell abc")).is_err());
    }

    #[test]
    fn parse_parallelism() {
        assert_eq!(
            parse(&argv("simulate")).unwrap().parallelism,
            Parallelism::Auto
        );
        assert_eq!(
            parse(&argv("simulate --parallelism serial"))
                .unwrap()
                .parallelism,
            Parallelism::Serial
        );
        assert_eq!(
            parse(&argv("simulate --parallelism 4"))
                .unwrap()
                .parallelism,
            Parallelism::Fixed(4)
        );
        assert!(parse(&argv("simulate --parallelism 0")).is_err());
        assert!(parse(&argv("simulate --parallelism warp")).is_err());
        assert!(parse(&argv("simulate --parallelism")).is_err());
    }

    #[test]
    fn empty_args_is_help() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&argv("explode")).is_err());
    }

    #[test]
    fn table2_text_and_json() {
        let text = run(&argv("table2")).unwrap();
        assert!(text.contains("sphinx") && text.contains("182"));
        let json = run(&argv("table2 --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 4);
    }

    #[test]
    fn fit_requires_app() {
        assert!(run(&argv("fit")).is_err());
        assert!(run(&argv("fit --app nosuch")).is_err());
    }

    #[test]
    fn fit_outputs_preferences() {
        let out = run(&argv("fit --app graph")).unwrap();
        assert!(out.contains("indirect preference"));
        let json = run(&argv("fit --app sphinx --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        let pref = v["indirect_preference"][0].as_f64().unwrap();
        assert!(pref < 0.35, "sphinx cores preference {pref}");
    }

    #[test]
    fn place_reports_paper_pairings() {
        let json = run(&argv("place --solver hungarian --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        let pairs = v["pairs"].as_array().unwrap();
        assert_eq!(pairs.len(), 4);
        let has = |be: &str, lc: &str| {
            pairs
                .iter()
                .any(|p| p[0].as_str() == Some(be) && p[1].as_str() == Some(lc))
        };
        assert!(has("graph", "sphinx"));
        assert!(has("lstm", "img-dnn"));
    }

    #[test]
    fn convexity_screen_runs() {
        let out = run(&argv("convexity --app sphinx")).unwrap();
        assert!(out.contains("suitable"));
        assert!(run(&argv("convexity")).is_err());
        assert!(run(&argv("convexity --app nosuch")).is_err());
        let json = run(&argv("convexity --app graph --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v["axes"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn simulate_quick_run() {
        let out = run(&argv("simulate --policy pom --dwell 2")).unwrap();
        assert!(out.contains("POM"));
        assert!(out.contains("img-dnn"));
    }

    #[test]
    fn parse_decision_log() {
        let o = parse(&argv("simulate --decision-log /tmp/dl.jsonl")).unwrap();
        assert_eq!(o.decision_log.as_deref(), Some("/tmp/dl.jsonl"));
        assert!(parse(&argv("simulate --decision-log")).is_err());
    }

    #[test]
    fn simulate_heracles_quick_run() {
        let out = run(&argv("simulate --policy heracles --dwell 2")).unwrap();
        assert!(out.contains("Heracles"));
        assert!(out.contains("img-dnn"));
    }

    #[test]
    fn simulate_writes_decision_log() {
        let path = std::env::temp_dir().join("pocolo_cli_decision_log_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = run(&argv(&format!(
            "simulate --policy pocolo --dwell 2 --decision-log {path_str}"
        )))
        .unwrap();
        assert!(out.contains("POColo"));
        let log = std::fs::read_to_string(&path).unwrap();
        let first = log.lines().next().expect("log has at least one line");
        let v: pocolo_json::Value = pocolo_json::from_str(first).unwrap();
        assert!(v["mode"].as_str().is_some());
        assert!(v["lc"].as_str().is_some());
        assert!(v["t_s"].as_f64().is_some());
        // Every server appears in the trace.
        let servers: std::collections::BTreeSet<u64> = log
            .lines()
            .map(|l| {
                pocolo_json::from_str(l).unwrap()["server"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        assert_eq!(servers.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_rejects_bad_input() {
        assert!(run(&argv("simulate --policy warp")).is_err());
        assert!(run(&argv("simulate --dwell -1")).is_err());
        // An infinite dwell would never finish the first load level, and
        // one shorter than a capper period would measure nothing: every
        // command that runs the sweep refuses both with the same line.
        let refusal = "--dwell must be finite and at least 0.1 s (one capper period)";
        assert_eq!(error_of("simulate --dwell inf"), refusal);
        for cmd in [
            "simulate --dwell 0.01",
            "simulate --dwell 0.0999",
            "demo-net --policy random --dwell 0.01",
            "demo-fleet --dwell 0.05",
            "clusterd --dwell 0.05",
        ] {
            assert_eq!(error_of(cmd), refusal, "{cmd}");
        }
        assert!(run(&argv("place --solver quantum")).is_err());
    }

    #[test]
    fn the_auction_is_not_a_solver_to_pick() {
        // The sparse auction repairs fleet-scale plans; `place` solves 4
        // servers exactly.
        for solver in ["auction", "auction:0.01"] {
            let err = error_of(&format!("place --solver {solver}"));
            assert!(err.starts_with("unknown solver"), "{err}");
        }
    }

    #[test]
    fn unknown_faults_scenario_is_a_one_line_error() {
        let err = error_of("simulate --dwell 2 --faults meteor");
        assert!(
            err.contains("meteor"),
            "error names the bad scenario: {err}"
        );
        assert!(!err.contains('\n'), "error is one line: {err:?}");
    }

    #[test]
    fn unwritable_decision_log_fails_before_the_run() {
        let started = std::time::Instant::now();
        let err = error_of("simulate --policy pocolo --decision-log /no/such/dir/x.jsonl");
        assert!(err.contains("decision log"), "{err}");
        assert!(!err.contains('\n'), "error is one line: {err:?}");
        // Pre-flight check, not post-run: the default 20 s dwell sweep
        // never started.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn decision_log_schema_is_stable() {
        let path = std::env::temp_dir().join("pocolo_cli_decision_schema_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        run(&argv(&format!(
            "simulate --policy pocolo --dwell 2 --decision-log {path_str}"
        )))
        .unwrap();
        // The decision log is a stable external interface: every line is
        // one JSON object whose field names and order are the published
        // schema. Renaming or reordering a field is a breaking change and
        // must update this snapshot.
        const SCHEMA: [&str; 15] = [
            "server",
            "lc",
            "be",
            "t_s",
            "mode",
            "load_rps",
            "slack",
            "measured_w",
            "effective_cap_w",
            "budget_w",
            "cores",
            "ways",
            "governor_armed",
            "escalated",
            "ducked",
        ];
        let log = std::fs::read_to_string(&path).unwrap();
        assert!(log.lines().count() > 20, "trace covers the sweep");
        for line in log.lines() {
            let v: pocolo_json::Value = pocolo_json::from_str(line).expect("line parses");
            let keys: Vec<&str> = v
                .as_object()
                .expect("line is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, SCHEMA, "decision-log schema drifted");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_net_flags() {
        let o = parse(&argv(
            "demo-net --listen 0.0.0.0:9 --connect 10.0.0.1:7700 --agent rack3 \
             --lease-ttl-ms 250 --kill-agent",
        ))
        .unwrap();
        assert_eq!(o.listen, "0.0.0.0:9");
        assert_eq!(o.connect, "10.0.0.1:7700");
        assert_eq!(o.agent.as_deref(), Some("rack3"));
        assert_eq!(o.lease_ttl_ms, 250);
        assert!(o.kill_agent);
        assert!(parse(&argv("agentd --connect")).is_err());
        assert!(parse(&argv("clusterd --lease-ttl-ms 0")).is_err());
        assert!(parse(&argv("clusterd --lease-ttl-ms soon")).is_err());
        // A scale run of zero heartbeats would verify zero samples.
        assert_eq!(
            parse(&argv("demo-net --agents 4 --heartbeats 0")).unwrap_err(),
            "--heartbeats must be positive"
        );
        // There is one transport; the flag that used to pick one is gone
        // (spelled in halves so a grep for it finds nothing in `crates/`).
        let gone = ["--net", "backend"].join("-");
        assert_eq!(
            parse(&argv(&format!("demo-net {gone} threads"))).unwrap_err(),
            format!("unknown flag {gone:?}")
        );
    }

    #[test]
    fn daemons_reject_bad_addresses() {
        assert!(run(&argv("clusterd --listen not-an-addr")).is_err());
        assert!(run(&argv("agentd --connect not-an-addr")).is_err());
        assert!(run(&argv("demo-net --policy warp")).is_err());
        assert!(run(&argv("demo-net --faults meteor")).is_err());
    }

    #[test]
    fn wire_runs_refuse_seeds_past_2_pow_53() {
        for cmd in ["clusterd", "demo-net --policy random --dwell 1"] {
            let e = error_of(&format!("{cmd} --seed 9007199254740993"));
            assert!(e.starts_with("--seed 9007199254740993 is too large"), "{e}");
        }
    }

    #[test]
    fn demo_net_loopback_quick_run() {
        let out = run(&argv("demo-net --policy pocolo --dwell 2 --seed 1")).unwrap();
        assert!(out.contains("bit-exact parity"), "{out}");
        assert!(out.contains("POColo"));
        let json = run(&argv("demo-net --policy random --dwell 2 --seed 1 --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v["placement"].as_array().unwrap().len(), 4);
        assert_eq!(v["reregistrations"].as_u64(), Some(0));
        // Scale mode: one daemon event loop, no transport to name.
        let json = run(&argv(
            "demo-net --agents 8 --heartbeats 2 --heartbeat-ms 0 --json",
        ))
        .unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v["agents"].as_u64(), Some(8));
        assert!(v.as_object().unwrap().iter().all(|(k, _)| k != "backend"));
    }

    #[test]
    fn parse_traffic_flags() {
        let o = parse(&argv(
            "demo-traffic --traffic diurnal:9 --shards 8 --users 50000 --ticks 6 --online-fit",
        ))
        .unwrap();
        assert_eq!(o.traffic.as_deref(), Some("diurnal:9"));
        assert_eq!(o.shards, 8);
        assert_eq!(o.users, 50_000);
        assert_eq!(o.ticks, 6);
        assert!(o.online_fit);
        assert!(parse(&argv("demo-traffic --shards 0")).is_err());
        assert!(parse(&argv("demo-traffic --users 0")).is_err());
        assert!(parse(&argv("demo-traffic --ticks 0")).is_err());
        assert!(parse(&argv("demo-traffic --traffic")).is_err());
    }

    #[test]
    fn demo_traffic_rejects_bad_specs() {
        let err = error_of("demo-traffic --traffic tsunami");
        assert!(err.contains("tsunami"), "error names the bad mix: {err}");
        assert!(!err.contains('\n'), "error is one line: {err:?}");
        assert!(run(&argv("demo-traffic --faults meteor")).is_err());
    }

    #[test]
    fn demo_traffic_refuses_faults_it_would_drop() {
        let models = "demo-traffic models only brownouts and model drift";
        for (faults, injects) in [
            ("crash:3", "server crashes"),
            ("chaos:7", "server crashes and telemetry dropouts"),
        ] {
            let args = format!("demo-traffic --traffic flashcrowd:7 --faults {faults}");
            let line = format!("{models}; --faults {faults} injects {injects}");
            assert_eq!(error_of(&args), line);
        }
        for faults in ["brownout:1", "surge:7"] {
            let opts = parse(&argv(&format!("demo-traffic --faults {faults}"))).unwrap();
            assert_eq!(refuse_before_run(&opts), Ok(()));
        }
    }

    #[test]
    fn demo_traffic_online_fit_runs_surge() {
        let out = run(&argv(
            "demo-traffic --traffic flashcrowd:7 --faults surge:7 --users 20000 --ticks 6 \
             --online-fit --shards 2",
        ))
        .unwrap();
        assert!(out.contains("refits"), "{out}");
    }

    #[test]
    fn parse_fleet_flag() {
        let o = parse(&argv("simulate --fleet mixed3:7")).unwrap();
        assert_eq!(o.fleet.as_deref(), Some("mixed3:7"));
        assert!(parse(&argv("simulate --fleet")).is_err());
    }

    #[test]
    fn fleet_rejects_bad_specs() {
        let one_line = |args: &str, token: &str| {
            let err = error_of(args);
            assert!(err.contains(token), "error names the bad token: {err}");
            assert!(!err.contains('\n'), "error is one line: {err:?}");
        };
        one_line("simulate --fleet warp9", "warp9");
        one_line("simulate --fleet xeon/0/8", "xeon/0/8");
        // Too few cores or ways for the profile grid: refused at parse,
        // not a singular fit mid-run.
        one_line("simulate --fleet xeon/20/3", "xeon/20/3");
        one_line("simulate --fleet xeon/1/20", "xeon/1/20");
        one_line("demo-fleet --fleet xeon/12/2", "xeon/12/2");
        one_line("simulate --fleet xeon*0", "zero weight");
        assert_eq!(
            error_of("simulate --fleet mixed3:abc"),
            "bad fleet seed \"abc\": invalid digit found in string"
        );
    }

    #[test]
    fn demo_fleet_mixed_margin_and_caps() {
        // `run` fails unless the margin and cap checks pass.
        let json = run(&argv("demo-fleet --dwell 2 --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v["classes"].as_array().unwrap().len(), 4);
        assert_eq!(v["aware"]["placement"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn demo_fleet_single_class_margin_is_moot() {
        let out = run(&argv("demo-fleet --fleet xeon --dwell 2")).unwrap();
        assert!(out.contains("+0.0000"), "{out}");
    }

    #[test]
    fn parse_regions_flag() {
        let o = parse(&argv("demo-federation --regions 5")).unwrap();
        assert_eq!(o.regions, 5);
        assert!(parse(&argv("demo-federation --regions")).is_err());
        assert!(parse(&argv("demo-federation --regions 1")).is_err());
        assert!(parse(&argv("demo-federation --regions two")).is_err());
    }

    #[test]
    fn demo_federation_beats_isolated_and_survives_leader_kill() {
        // `run` fails unless the cap, utility, SLO, promotion and failover
        // checks pass.
        let json = run(&argv("demo-federation --faults region-chaos:5 --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(
            v["federated"]["promotions"].as_array().unwrap().len(),
            1,
            "the chaos leader kill must promote exactly one follower"
        );
        assert_eq!(v["failover_bit_identical"].as_bool(), Some(true));
    }

    #[test]
    fn demo_federation_rejects_server_scenarios() {
        let err = error_of("demo-federation --faults chaos");
        assert!(err.contains("chaos"), "error names the bad token: {err}");
    }

    // Each argv below panicked `pocolo` before its flag was bounded at parse.
    #[test]
    fn heartbeat_pacing_past_the_deadline_is_refused() {
        let e = error_of("demo-net --agents 1 --heartbeats 1 --heartbeat-ms 18446744073709551615");
        assert_eq!(e, "--heartbeat-ms must be at most 300000");
        let at_deadline = parse(&argv("demo-net --heartbeat-ms 300000")).unwrap();
        assert_eq!(scale_config_of(&at_deadline).lease_ttl.as_millis(), 900_000);
    }

    #[test]
    fn agent_counts_no_welcome_can_name_are_refused() {
        let e = error_of("demo-net --agents 18446744073709551615 --heartbeats 1");
        assert_eq!(e, "--agents must be at most 279620");
        assert!(parse(&argv(&format!("demo-net --agents {MAX_AGENTS}"))).is_ok());
    }

    #[test]
    fn region_counts_past_the_bound_are_refused() {
        let e = error_of("demo-federation --regions 18446744073709551615");
        assert_eq!(e, "--regions must be at most 64");
        assert!(parse(&argv("demo-federation --regions 64")).is_ok());
    }

    /// Every error `pocolo` can report before a run starts: `parse`, then
    /// the pure builders it feeds.
    fn pre_run_errors(args: &[String]) -> Vec<String> {
        let opts = match parse(args) {
            Ok(opts) => opts,
            Err(e) => return vec![e],
        };
        let _ = scale_config_of(&opts);
        let (fleet, faults) = (opts.fleet.as_deref(), opts.faults.as_deref());
        let traffic = opts.traffic.as_deref();
        [
            policy_of(&opts).err(),
            experiment_of(&opts).err(),
            opts.solver.parse::<Solver>().err(),
            refuse_before_run(&opts).err(),
            fleet.and_then(|f| fleet_of(f).err()),
            traffic.and_then(|t| t.parse::<TrafficSpec>().err()),
            faults.and_then(|f| f.parse::<FaultSpec>().err()),
            faults.and_then(|f| f.parse::<RegionFaultSpec>().err()),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn a_kill_the_sweep_never_reaches_fails_the_kill_check() {
        // 9 load levels of 0.1 s end before the agent's 3-epoch kill point.
        let line = "demo-net failed: agents killed = 0, expected exactly 1";
        let run = run(&argv(
            "demo-net --kill-agent --dwell 0.1 --lease-ttl-ms 150",
        ));
        assert_eq!(run, Err(Failure::Checks(vec![line.into()])));
    }

    #[test]
    fn flags_a_command_would_ignore_are_refused_before_the_run() {
        let scale = "demo-net --agents 8 --heartbeats 2 --heartbeat-ms 0";
        for (flag, value) in [("--kill-agent", ""), ("--faults", "brownout:1")] {
            let refusal = format!("demo-net --agents does not take {flag}");
            assert_eq!(error_of(&format!("{scale} {flag} {value}")), refusal);
        }
        let log = "--decision-log x.jsonl";
        for (mode, command) in [
            ("demo-net --agents", scale),
            ("demo-net", "demo-net"),
            ("demo-traffic", "demo-traffic"),
            ("demo-fleet", "demo-fleet"),
        ] {
            let refusal = format!("{mode} does not take --decision-log");
            assert_eq!(error_of(&format!("{command} {log}")), refusal);
        }
        // Each of these printed the same bytes as the run without its last
        // flag.
        for (args, refusal) in [
            ("place --json --fleet mixed3", "place does not take --fleet"),
            ("tco --json --dwell 5 --seed 3", "tco does not take --dwell"),
            (
                "demo-fleet --dwell 2 --policy heracles",
                "demo-fleet does not take --policy",
            ),
            (
                "demo-federation --dwell 5",
                "demo-federation does not take --dwell",
            ),
            (
                "fit --app sphinx --json --fleet turbo",
                "fit does not take --fleet",
            ),
            (
                "simulate --dwell 2 --regions 4",
                "simulate does not take --regions",
            ),
            (
                "demo-traffic --users 1000 --json --solver fair",
                "demo-traffic does not take --solver",
            ),
            ("figures --json", "figures does not take --json"),
            ("-h --json", "help does not take --json"),
        ] {
            assert_eq!(error_of(args), refusal, "{args}");
        }
        // The classic demo-net runs both.
        let classic = parse(&argv("demo-net --kill-agent --faults brownout:1")).unwrap();
        assert_eq!(refuse_before_run(&classic), Ok(()));
    }

    #[test]
    fn every_listed_flag_is_read_by_some_command() {
        let listed: Vec<&str> = USAGE
            .split_once("OPTIONS:")
            .unwrap()
            .1
            .lines()
            .filter_map(|l| l.strip_prefix("    ")?.split(' ').next())
            .filter(|w| !w.is_empty())
            .collect();
        let read: std::collections::BTreeSet<&str> = READS
            .iter()
            .flat_map(|(_, flags)| flags.split_whitespace())
            .collect();
        let unread: Vec<&&str> = listed.iter().filter(|f| !read.contains(**f)).collect();
        assert_eq!(unread, Vec::<&&str>::new(), "listed but read by no command");
        let unlisted: Vec<&&str> = read.iter().filter(|f| !listed.contains(f)).collect();
        assert_eq!(unlisted, Vec::<&&str>::new(), "read but not listed");
    }

    #[test]
    fn every_golden_argv_is_accepted() {
        let goldens = include_str!("../../../GOLDENS.txt");
        let runs: Vec<Vec<String>> = goldens
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| argv(&l.replace("{tmp}", "/tmp")).split_off(2))
            .collect();
        assert!(runs.len() >= 40, "{} golden runs", runs.len());
        for args in runs {
            let opts = parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert_eq!(refuse_before_run(&opts), Ok(()), "{args:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(3000))]

        /// Argv from the commands and flags `pocolo help` lists (nine draws
        /// repeat a flag more often than not), valued from a hostile pool,
        /// bare and inside the `<name>:<seed>`, `<class>*<weight>` and
        /// `<class>/<cores>/<ways>` grammars.
        #[test]
        fn hostile_argv_never_panics_and_every_error_is_one_line(
            draws in proptest::collection::vec(0usize..1 << 16, 1..10),
        ) {
            let words = |text: &'static str| -> Vec<&'static str> {
                let rows = text.lines().filter_map(|l| l.strip_prefix("    "));
                rows.filter_map(|l| l.split(' ').next()).filter(|w| !w.is_empty()).collect()
            };
            let (commands, flags) = USAGE.split_once("OPTIONS:").unwrap();
            let commands = words(commands.split_once("COMMANDS:").unwrap().1);
            let flags = words(flags);
            // u64::MAX (also usize::MAX here) and u64::MAX / 3 + 1 close the pool.
            let bare = ["0", "1", "-1", "NaN", "inf", "1e308", "", "18446744073709551615",
                "6148914691236517206"];
            let specs = ["", "auction:", "random:", "chaos:", "region-chaos:", "diurnal:",
                "mixed3:", "xeon*", "xeon*1+turbo*", "xeon/4/"];
            let pool: Vec<String> =
                bare.iter().flat_map(|v| specs.map(|s| format!("{s}{v}"))).collect();
            let mut args = vec![commands[draws[0] % commands.len()].to_string()];
            for &draw in &draws[1..] {
                args.push(flags[draw % flags.len()].to_string());
                // One draw in eleven leaves the value out: the flag is last,
                // or takes the next flag as its value.
                if draw % 11 != 0 {
                    args.push(pool[(draw >> 5) % pool.len()].clone());
                }
            }
            let errors = std::panic::catch_unwind(|| pre_run_errors(&args));
            proptest::prop_assert!(errors.is_ok(), "panicked on {args:?}");
            for e in errors.unwrap() {
                proptest::prop_assert!(!e.is_empty() && !e.contains('\n'), "{args:?}: {e:?}");
            }
        }
    }

    #[test]
    fn tco_outputs_four_scenarios() {
        let out = run(&argv("tco")).unwrap();
        assert!(out.contains("POColo") && out.contains("Random(NoCap)"));
        let json = run(&argv("tco --json")).unwrap();
        let v: pocolo_json::Value = pocolo_json::from_str(&json).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 4);
    }
}
