//! What one measurement phase collects: timing samples, exact counts,
//! checks, spans and a result digest per round.
//!
//! Rounds do identical work, and on a shared box interference only ever
//! adds time. So when a phase ends ([`Recorder::settle`]) the faster half
//! of its rounds is kept and every timing is computed from those rounds
//! alone: a burst of noise from a neighbour costs the run a round, not
//! its result. (Between identical runs on the 2-vCPU box this cut the
//! spread of the pinned heartbeat's median from 21 % to a few percent.)

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{quantile, Fnv};
use crate::trace::Tracer;

/// Checks that failed are described up to this many times.
const MAX_FAILURE_NOTES: usize = 8;

/// The end of one round: its cost, and how far every series and the span
/// list had grown.
#[derive(Debug)]
struct RoundMark {
    wall_s: f64,
    cpu_s: f64,
    series_len: BTreeMap<&'static str, usize>,
    spans: usize,
}

/// Collector handed to a workload's rounds.
///
/// Timing samples accumulate over every round. Exact counts and values
/// are taken from round 0 only — every round replays the same ops from
/// the same state, so they repeat exactly however long the phase runs.
#[derive(Debug)]
pub struct Recorder {
    /// Span recorder (a no-op in the untraced phase).
    pub tr: Tracer,
    series: BTreeMap<&'static str, Vec<f64>>,
    /// Span self times (duration minus child spans), by span name.
    self_series: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    digest: Fnv,
    /// One digest per completed round.
    pub round_digests: Vec<u64>,
    /// Where each completed round ended.
    marks: Vec<RoundMark>,
    /// Rounds [`Recorder::settle`] kept, ascending; empty until then.
    kept: Vec<usize>,
    /// Wall seconds inside the kept rounds (every round until settled).
    pub round_wall_s: f64,
    /// Process CPU seconds inside the kept rounds (likewise).
    pub round_cpu_s: f64,
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// First few failed checks, for the operator.
    pub failures: Vec<String>,
}

impl Recorder {
    /// An empty recorder; spans are kept only when `tracing`.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tr: Tracer::new(tracing),
            series: BTreeMap::new(),
            self_series: BTreeMap::new(),
            counts: BTreeMap::new(),
            digest: Fnv::default(),
            round_digests: Vec::new(),
            marks: Vec::new(),
            kept: Vec::new(),
            round_wall_s: 0.0,
            round_cpu_s: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Adds a timing sample (milliseconds unless the series says otherwise).
    pub fn sample(&mut self, series: &'static str, value: f64) {
        self.series.entry(series).or_default().push(value);
    }

    /// Starts one always-timed op of `series`: a clock read, and a span
    /// when tracing. Pair with [`Recorder::stop`].
    pub fn start(&mut self, series: &'static str, op: u64) -> Instant {
        self.tr.begin(series, op);
        Instant::now()
    }

    /// Ends the op [`Recorder::start`] opened; returns its milliseconds.
    pub fn stop(&mut self, series: &'static str, started: Instant) -> f64 {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tr.end();
        self.sample(series, ms);
        ms
    }

    /// Adds to an exact count; rounds after the first are ignored.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.round_digests.is_empty() {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// One correctness check: an op is attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_NOTES {
                self.failures.push(what());
            }
        }
    }

    /// Folds an output word into the current round's digest.
    pub fn fold(&mut self, x: u64) {
        self.digest.u64(x);
    }

    /// Folds an output float's bit pattern into the round's digest.
    pub fn fold_f64(&mut self, x: f64) {
        self.digest.f64(x);
    }

    /// Closes a round that took `wall_s` wall and `cpu_s` CPU seconds.
    pub fn end_round(&mut self, wall_s: f64, cpu_s: f64) {
        self.round_digests.push(self.digest.0);
        self.digest = Fnv::default();
        self.marks.push(RoundMark {
            wall_s,
            cpu_s,
            series_len: self.series.iter().map(|(k, v)| (*k, v.len())).collect(),
            spans: self.tr.spans().len(),
        });
        self.round_wall_s += wall_s;
        self.round_cpu_s += cpu_s;
    }

    /// Ends the phase's rounds: keeps the faster half of them (by wall
    /// time; the middle one too when the count is odd) and drops the
    /// other rounds' samples, wall and CPU time. Samples added afterwards
    /// (probes) are always kept.
    pub fn settle(&mut self) {
        let mut by_wall: Vec<usize> = (0..self.marks.len()).collect();
        by_wall.sort_by(|&a, &b| self.marks[a].wall_s.total_cmp(&self.marks[b].wall_s));
        by_wall.truncate(self.marks.len().div_ceil(2));
        by_wall.sort_unstable();
        self.kept = by_wall;
        for (name, samples) in &mut self.series {
            let len_at =
                |round: usize| self.marks[round].series_len.get(name).copied().unwrap_or(0);
            let kept: Vec<f64> = self
                .kept
                .iter()
                .flat_map(|&r| {
                    let start = if r == 0 { 0 } else { len_at(r - 1) };
                    samples[start..len_at(r)].iter().copied()
                })
                .collect();
            *samples = kept;
        }
        self.round_wall_s = self.kept.iter().map(|&r| self.marks[r].wall_s).sum();
        self.round_cpu_s = self.kept.iter().map(|&r| self.marks[r].cpu_s).sum();
    }

    /// How many rounds [`Recorder::settle`] kept.
    pub fn kept_rounds(&self) -> usize {
        self.kept.len()
    }

    /// Whether span number `index` belongs to a kept round (or to the
    /// probes after the last round).
    fn span_kept(&self, index: usize) -> bool {
        match self.marks.iter().position(|m| index < m.spans) {
            Some(round) => self.kept.contains(&round),
            None => true,
        }
    }

    /// Moves the kept rounds' closed spans into the series named after
    /// them, self times beside them, so span timings and direct samples
    /// are read the same way. Series that [`Recorder::stop`] already
    /// sampled directly keep their direct samples only.
    pub fn absorb_spans(&mut self) {
        let direct: Vec<&'static str> = self.series.keys().copied().collect();
        for (index, span) in self.tr.spans().iter().enumerate() {
            if !self.span_kept(index) {
                continue;
            }
            if !direct.contains(&span.name) {
                self.series.entry(span.name).or_default().push(span.ms());
            }
            self.self_series
                .entry(span.name)
                .or_default()
                .push(span.self_ms());
        }
    }

    /// The samples of one series (empty when never recorded).
    pub fn samples(&self, series: &str) -> &[f64] {
        self.series.get(series).map_or(&[], Vec::as_slice)
    }

    /// Quantile of a series and its sample count.
    pub fn q(&self, series: &str, q: f64) -> (f64, usize) {
        let s = self.samples(series);
        (quantile(s, q), s.len())
    }

    /// Quantile of a span's self time and its sample count.
    pub fn self_q(&self, span: &str, q: f64) -> (f64, usize) {
        let s = self.self_series.get(span).map_or(&[][..], Vec::as_slice);
        (quantile(s, q), s.len())
    }

    /// An exact count from round 0 (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}
