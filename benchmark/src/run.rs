//! The measurement procedure every workload goes through: set up (several
//! times, for a steady `setup_s`), replay fixed rounds until the clock
//! runs out — untraced, then traced when asked — and check the outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::proc::{cpu_seconds, peak_rss_mb};
use crate::record::Recorder;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One workload. Work is fixed by op count: a round is the same op
/// sequence replayed from the set-up state, so counts and digests repeat
/// exactly and the clock only decides how many rounds add timing samples.
pub trait Workload: Sized {
    /// Fixed name.
    const NAME: &'static str;
    /// Series (milliseconds) of the primary op behind `op_ms_*` and
    /// `ops_per_s`.
    const OP: &'static str;

    /// Everything before the first timed op: fits, fleet build, cold plan,
    /// daemon spawn, registration, one untimed warm-up op. `smoke` picks
    /// the seconds-long scale that runs the same checks.
    fn setup(seed: u64, smoke: bool, notes: &mut SetupNotes) -> Self;

    /// Replays one round from the set-up state.
    fn round(&mut self, rec: &mut Recorder);

    /// Decomposition probes on cloned state; traced run only.
    fn probes(&mut self, _rec: &mut Recorder) {}

    /// Checks after the timed section (determinism across shard counts
    /// and parallelism, assembled wire results).
    fn verify(&mut self, rec: &mut Recorder);

    /// Names this workload's metrics out of what was measured.
    fn report(&self, m: &Measured, out: &mut Sink);
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of rounds to measure; 0 runs exactly one round.
    pub seconds: f64,
    /// Also run a traced phase and report per-layer metrics.
    pub trace: bool,
    /// Seconds-long scale with the same checks.
    pub smoke: bool,
}

/// Values a set-up observes about itself, one per repetition.
#[derive(Debug, Default)]
pub struct SetupNotes(BTreeMap<&'static str, Vec<f64>>);

impl SetupNotes {
    /// Records one observation of this set-up repetition.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median over the repetitions and their number.
    pub fn median(&self, name: &str) -> (f64, usize) {
        let values = self.0.get(name).map_or(&[][..], Vec::as_slice);
        (median(values), values.len())
    }
}

/// Everything a run measured, handed to [`Workload::report`].
#[derive(Debug)]
pub struct Measured {
    /// The untraced phase: the source of every end-to-end number.
    pub untraced: Recorder,
    /// The traced phase and probes, when asked for.
    pub traced: Option<Recorder>,
    /// Set-up observations.
    pub setup: SetupNotes,
}

impl Measured {
    /// The samples of a series: the untraced phase's when it has any,
    /// the traced phase's (spans, probes) otherwise.
    fn samples(&self, series: &str) -> &[f64] {
        match (&self.traced, self.untraced.samples(series)) {
            (Some(traced), []) => traced.samples(series),
            (_, untraced) => untraced,
        }
    }

    /// Quantile of a series and its sample count.
    pub fn q(&self, series: &str, q: f64) -> (f64, usize) {
        let samples = self.samples(series);
        (quantile(samples, q), samples.len())
    }

    /// Sum of a series.
    pub fn sum(&self, series: &str) -> f64 {
        self.samples(series).iter().sum()
    }

    /// An exact round-0 count.
    pub fn counted(&self, name: &str) -> f64 {
        self.untraced.counted(name)
    }

    /// Ops per second of a series over the untraced rounds' wall time.
    pub fn rate(&self, series: &str) -> (f64, usize) {
        let n = self.untraced.samples(series).len();
        (n as f64 / self.untraced.round_wall_s.max(1e-9), n)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registry name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it (1 for counts and ratios).
    pub samples: usize,
}

/// Collects a workload's metrics.
#[derive(Debug, Default)]
pub struct Sink(pub Vec<Metric>);

impl Sink {
    /// A single value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_q(name, (value, 1));
    }

    /// A quantile with its sample count.
    pub fn put_q(&mut self, name: &'static str, (value, samples): (f64, usize)) {
        self.0.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// A quantile taken in milliseconds, reported in microseconds.
    pub fn put_us(&mut self, name: &'static str, (ms, samples): (f64, usize)) {
        self.put_q(name, (ms * 1e3, samples));
    }
}

/// The result of running one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// First few failed checks.
    pub failures: Vec<String>,
    /// Digest of round 0's outputs.
    pub digest: u64,
    /// The gated metrics, from the untraced phase.
    pub end_to_end: Vec<Metric>,
    /// The ungated metrics; empty without a traced phase.
    pub per_layer: Vec<Metric>,
    /// The traced phase's spans.
    pub tracer: Option<Tracer>,
}

/// Replays rounds until `seconds` of round time have passed (at least
/// one round), then keeps the faster half of them.
fn phase<W: Workload>(w: &mut W, seconds: f64, tracing: bool) -> Recorder {
    let mut rec = Recorder::new(tracing);
    loop {
        let (start, cpu_start) = (Instant::now(), cpu_seconds());
        w.round(&mut rec);
        rec.end_round(start.elapsed().as_secs_f64(), cpu_seconds() - cpu_start);
        if rec.round_wall_s >= seconds {
            rec.settle();
            return rec;
        }
    }
}

/// Runs workload `W` under `opts`.
pub fn run<W: Workload>(opts: &Options) -> Outcome {
    let mut setup = SetupNotes::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // The previous fleet, daemon and sockets go before the next set-up.
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(opts.seed, opts.smoke, &mut setup));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up ran");

    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = phase(&mut w, untraced_s, false);
    let (cpu_s, wall_s) = (untraced.round_cpu_s, untraced.round_wall_s);

    let traced = opts.trace.then(|| {
        let mut rec = phase(&mut w, opts.seconds - untraced_s, true);
        w.probes(&mut rec);
        rec.absorb_spans();
        rec
    });

    let mut checks = Recorder::new(false);
    w.verify(&mut checks);
    let digest = untraced.round_digests[0];
    let replayed = untraced
        .round_digests
        .iter()
        .chain(traced.iter().flat_map(|t| &t.round_digests))
        .all(|&d| d == digest);
    checks.check(replayed, || {
        "a round's result digest differs from round 0's".to_string()
    });

    let ops = untraced.samples(W::OP).len();
    let m = Measured {
        untraced,
        traced,
        setup,
    };
    let mut e2e = Sink::default();
    e2e.put_q("setup_s", (median(&setup_s), setup_s.len()));
    e2e.put("peak_rss_mb", peak_rss_mb());
    e2e.put_q("op_ms_p50", m.untraced.q(W::OP, 0.5));
    e2e.put_q("op_ms_p90", m.untraced.q(W::OP, 0.9));
    e2e.put_q("ops_per_s", m.rate(W::OP));
    e2e.put_q("cpu_ms_per_op", (cpu_s * 1e3 / ops.max(1) as f64, ops));

    let mut layer = Sink::default();
    if let Some(traced) = &m.traced {
        w.report(&m, &mut layer);
        layer.put("ops_per_round", (ops / m.untraced.kept_rounds()) as f64);
        layer.put("proc.cpu_s", cpu_s);
        layer.put("proc.cpu_util", cpu_s / wall_s.max(1e-9));
        let (plain, _) = m.untraced.q(W::OP, 0.5);
        let (spanned, n) = traced.q(W::OP, 0.5);
        layer.put_q("trace.overhead_frac", (spanned / plain.max(1e-12) - 1.0, n));
    }

    let recorders = [Some(&m.untraced), m.traced.as_ref(), Some(&checks)];
    let attempted = recorders.iter().flatten().map(|r| r.attempted).sum();
    let failed = recorders.iter().flatten().map(|r| r.failed).sum();
    let failures = recorders
        .iter()
        .flatten()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    Outcome {
        workload: W::NAME,
        attempted,
        failed,
        failures,
        digest,
        end_to_end: e2e.0,
        per_layer: layer.0,
        tracer: m.traced.map(|t| t.tr),
    }
}
