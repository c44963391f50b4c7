//! Metric records, summary statistics and the result line.

use std::collections::BTreeMap;

/// One answered (or failed) request of the closed loop.
pub struct Answer {
    /// Wall clock from the call into the front door until it returned.
    pub latency_s: f64,
    /// An `Err`, an invalid answer, or a failed output check.
    pub failed: bool,
    /// The answer carries the quality the request asked for.
    pub quality_met: bool,
    /// `(upper - lower) / midpoint` of the system-throughput interval, for
    /// answers that carry certified intervals.
    pub gap: Option<f64>,
}

impl Answer {
    /// A request that failed outright.
    pub fn failure() -> Self {
        Self {
            latency_s: 0.0,
            failed: true,
            quality_met: false,
            gap: None,
        }
    }
}

/// A named metric with its unit and the number of samples behind it.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Everything one workload run hands back to the driver loop in `main`.
#[derive(Default)]
pub struct RunResult {
    /// Set-up times (MAP fitting, model construction, opening the session
    /// or solvers), one per repetition.
    pub setup_s: Vec<f64>,
    pub answers: Vec<Answer>,
    /// Wall clock of the closed loop.
    pub loop_s: f64,
    /// Counts that must repeat exactly across runs of one seed.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer metrics (filled by traced runs).
    pub layers: Vec<Metric>,
}

impl RunResult {
    pub fn count(&mut self, name: &str, by: u64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    pub fn layer(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.layers.push(Metric::new(name, value, unit, samples));
    }
}

/// Linear-interpolation quantile of an unsorted sample (`q` in `[0, 1]`);
/// `0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `a / b`, or `0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A finite number in JSON syntax (non-finite values become `0`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The end-to-end metrics of a run, in the order they are printed.
pub fn end_to_end(run: &RunResult, peak_rss_mb: f64) -> Vec<Metric> {
    let attempted = run.answers.len();
    let latencies_ms: Vec<f64> = run.answers.iter().map(|a| a.latency_s * 1e3).collect();
    let failed = run.answers.iter().filter(|a| a.failed).count();
    let met = run
        .answers
        .iter()
        .filter(|a| a.quality_met && !a.failed)
        .count();
    let gaps: Vec<f64> = run.answers.iter().filter_map(|a| a.gap).collect();
    vec![
        Metric::new("setup_s", median(&run.setup_s), "s", run.setup_s.len()),
        Metric::new(
            "answers_per_s",
            ratio(attempted as f64, run.loop_s),
            "1/s",
            attempted,
        ),
        Metric::new(
            "answer_p50_ms",
            quantile(&latencies_ms, 0.5),
            "ms",
            attempted,
        ),
        Metric::new(
            "answer_p90_ms",
            quantile(&latencies_ms, 0.9),
            "ms",
            attempted,
        ),
        Metric::new(
            "quality_met_fraction",
            ratio(met as f64, attempted as f64),
            "fraction",
            attempted,
        ),
        Metric::new(
            "failed_fraction",
            ratio(failed as f64, attempted as f64),
            "fraction",
            attempted,
        ),
        Metric::new("bound_gap_rel", median(&gaps), "ratio", gaps.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
}

/// Prints metrics as an aligned table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    println!(
        "{:<34} {:>16} {:>10} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<34} {:>16.6} {:>10} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
