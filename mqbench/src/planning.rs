//! `planning_replay`: what-if questions asked one at a time of a long-lived
//! `PlanningSession` over the bursty TPC-W server tier.
//!
//! Admission and cache verification do most of the work: hot keys repeat
//! (populations skewed low), so most answers are verified cache hits, and
//! the LP only runs on misses. A topology-changing commit every
//! [`COMMIT_EVERY`] requests evicts the cache, so writes sit beside the
//! reads.

use crate::common::{
    bound_bits, certified, cpu_util, fit_ms, pivot_budget, repeated_setup, shuffle, throughput_gap,
    traced_bound, Config, LpTotals,
};
use crate::report::{median, ratio, Answer, RunResult};
use crate::trace::Tracer;
use mapqn_core::templates::{tpcw_server_tier, TpcwParameters};
use mapqn_core::{
    AnswerSource, PlanningAnswer, PlanningRequest, PlanningSession, SessionOptions, WhatIf,
};
use mapqn_stochastic::Map2FitSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Requests between two topology-changing commits.
pub const COMMIT_EVERY: usize = 100;

/// Largest population asked.
const MAX_POPULATION: usize = 16;

/// The demand what-ifs a request may carry, as (station, factor): the two
/// that shift load onto the bursty front server (front 25% slower,
/// database 25% faster).
const WHAT_IFS: [(usize, f64); 2] = [(0, 1.25), (1, 0.8)];

/// Populations the what-ifs are asked at: where capacity binds. This is
/// also where the LP stalls, so the ladder retries, the quarantine and the
/// breaker trips of the session show up in every run.
const WHAT_IF_POPULATIONS: std::ops::RangeInclusive<usize> = 12..=16;

/// Each what-if key is asked this often per epoch, so that it can hit the
/// cache. 2 what-ifs x 5 populations x 2 asks = 20% of an epoch.
const WHAT_IF_ASKS: usize = 2;

/// The commits, applied in turn: each slows or restores one station, so the
/// model stays within a bounded family however long the run lasts.
const COMMITS: [(usize, f64); 4] = [(0, 1.25), (0, 0.8), (1, 1.25), (1, 0.8)];

/// Running checks and tallies over the answers. The session's answers are
/// checked as they arrive, outside their latency and outside the loop's
/// measured time, and then dropped, so that memory does not grow with the
/// number of requests a run gets through.
#[derive(Default)]
struct Checker {
    /// First certified answer of each `(what-if variant, population)` key
    /// in the current epoch, as interval bits.
    first: HashMap<(usize, usize), Vec<u64>>,
    mismatches: u64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    quarantines: usize,
    attempts: usize,
    retries: usize,
    retry_busy_s: f64,
    events: Vec<String>,
    hidden_events: usize,
}

/// Ladder events printed in full; the rest are counted.
const SHOWN_EVENTS: usize = 12;

/// Population in `1..=MAX_POPULATION` at quantile `u` of a distribution
/// skewed low (`P(N <= k) = sqrt(k / 16)`), so that hot keys repeat.
fn population(u: f64) -> usize {
    (1 + (MAX_POPULATION as f64 * u * u) as usize).min(MAX_POPULATION)
}

/// The requests of one epoch (the span between two commits) as
/// `(population, what-if variant)`, variant 0 being none. Stratified: the
/// population-only requests sit at evenly spaced quantiles of the skewed
/// distribution, so every epoch holds exactly the target mix and the same
/// keys, and a run's cost does not hinge on whether the seed happened to
/// draw a stalling key. The seed decides the order the requests are asked
/// in, and with it which ask of a key is the miss.
fn epoch_requests() -> Vec<(usize, usize)> {
    let mut requests = Vec::with_capacity(COMMIT_EVERY);
    for n in WHAT_IF_POPULATIONS {
        for variant in 1..=WHAT_IFS.len() {
            requests.extend(std::iter::repeat_n((n, variant), WHAT_IF_ASKS));
        }
    }
    let plain = COMMIT_EVERY - requests.len();
    requests.extend((0..plain).map(|j| (population((j as f64 + 0.5) / plain as f64), 0)));
    requests
}

fn open_session() -> PlanningSession {
    let network = tpcw_server_tier(&TpcwParameters::default()).expect("TPC-W server tier");
    let options = SessionOptions {
        budget: pivot_budget(),
        ..SessionOptions::default()
    };
    PlanningSession::with_options(network, options)
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut run = RunResult::default();
    let mut session = repeated_setup(&mut run, open_session);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut checker = Checker::default();
    let mut apply_us: Vec<f64> = Vec::new();
    let mut lp = LpTotals::default();
    let mut epoch = 0usize;
    let mut requests = epoch_requests();
    let mut checks = Duration::ZERO;

    let cpu0 = crate::sys::cpu_seconds();
    let started = Instant::now();
    for i in 0usize.. {
        // The time limit is checked only after a whole cycle of commits,
        // so that every run holds the same mix of models and keys.
        let cycle_done = i.is_multiple_of(COMMIT_EVERY * COMMITS.len());
        if !cfg.request_left(i) || (cycle_done && !cfg.time_left(started)) {
            break;
        }
        if i.is_multiple_of(COMMIT_EVERY) {
            shuffle(&mut requests, &mut rng);
            if i > 0 {
                let (station, factor) = COMMITS[(i / COMMIT_EVERY - 1) % COMMITS.len()];
                let span = tracer.enter("PlanningSession::apply", "planning", i as u64);
                let t = Instant::now();
                let applied = session.apply(&[WhatIf::ScaleDemand { station, factor }]);
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                tracer.exit(span, &[]);
                if let Err(e) = applied {
                    eprintln!("commit {epoch} failed: {e}");
                    run.answers.push(Answer::failure());
                }
                epoch += 1;
                checker.first.clear();
            }
        }
        let (n, variant) = requests[i % COMMIT_EVERY];
        let mut deltas = vec![WhatIf::Population(n)];
        if variant > 0 {
            let (station, factor) = WHAT_IFS[variant - 1];
            deltas.push(WhatIf::ScaleDemand { station, factor });
        }
        let request = PlanningRequest::new(format!("N={n} v={variant}"), deltas);

        let span = tracer.enter("PlanningSession::ask", "planning", i as u64);
        let t = Instant::now();
        let answer = session.ask(&request);
        let latency = t.elapsed();
        if tracer.enabled() {
            let stats = session.stats();
            tracer.exit(
                span,
                &[
                    ("cache_hits", stats.cache_hits as f64),
                    ("quarantines", stats.quarantines as f64),
                ],
            );
        }

        // Traced runs re-run the direct rung of every population-only miss
        // through the public solver, to read the LP counters the session
        // keeps to itself. Outside the request's latency.
        let miss = answer
            .as_ref()
            .is_ok_and(|a| a.source != AnswerSource::CacheHit);
        if tracer.enabled() && miss && variant == 0 {
            let network = session
                .current()
                .with_population(n)
                .expect("population change");
            let replay = tracer.enter("replay", "bench", i as u64);
            let _ = traced_bound(
                tracer,
                i as u64,
                &network,
                &mut lp,
                "bound_all_seeded",
                |solver| solver.bound_all_seeded(&[]),
            );
            tracer.exit(replay, &[]);
        }

        let t = Instant::now();
        let asked = Asked {
            request: i,
            epoch,
            variant,
            population: n,
            latency,
        };
        checker.check(&mut run, &asked, &answer);
        checks += t.elapsed();
    }
    run.loop_s = (started.elapsed() - checks).as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds() - cpu0;

    for event in &checker.events {
        println!("{event}");
    }
    if checker.hidden_events > 0 {
        println!("event ... {} more", checker.hidden_events);
    }
    let stats = session.stats();
    run.count("check.bitwise_mismatches", checker.mismatches);
    run.count("session.requests", stats.requests);
    run.count("session.cache_hits", stats.cache_hits);
    run.count("session.quarantines", stats.quarantines);
    run.count("session.breaker_trips", stats.breaker_trips);
    run.count("session.contained_panics", stats.contained_panics);
    run.count("session.commits", epoch as u64);
    if tracer.enabled() {
        lp.counts(&mut run);
        layers(&mut run, &checker, &apply_us, &lp, cpu_s);
    }
    run
}

/// One asked request.
struct Asked {
    request: usize,
    epoch: usize,
    variant: usize,
    population: usize,
    latency: Duration,
}

impl Checker {
    /// Checks one answer — valid, and bitwise equal to the first certified
    /// answer of its key in the epoch — and records it in `run`.
    fn check(
        &mut self,
        run: &mut RunResult,
        asked: &Asked,
        answer: &mapqn_core::Result<PlanningAnswer>,
    ) {
        let latency_s = asked.latency.as_secs_f64();
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => {
                eprintln!("request {} failed: {e}", asked.request);
                run.answers.push(Answer {
                    latency_s,
                    ..Answer::failure()
                });
                return;
            }
        };
        let ok = certified(answer.bounds.quality);
        let mut bitwise = true;
        if ok {
            // Every certified answer of a key, hit or cold re-solve, must
            // equal the first answer for the key.
            let bits = bound_bits(&answer.bounds);
            let key = (asked.variant, asked.population);
            bitwise = *self.first.entry(key).or_insert_with(|| bits.clone()) == bits;
        }
        self.mismatches += u64::from(!bitwise);
        run.count(&format!("source.{}", answer.source), 1);
        run.count(&format!("rung.{}", answer.rung), 1);
        run.count(&format!("quality.{}", answer.bounds.quality), 1);
        run.answers.push(Answer {
            latency_s,
            failed: !answer.is_valid() || !bitwise,
            quality_met: ok,
            gap: ok.then(|| throughput_gap(&answer.bounds)),
        });
        if answer.source == AnswerSource::CacheHit {
            // A hit carries the diagnostics of the cold answer it repeats.
            self.hit_ms.push(latency_s * 1e3);
            return;
        }
        self.miss_ms.push(latency_s * 1e3);
        let attempts = &answer.bounds.diagnostics.attempts;
        let failed: Vec<_> = attempts.iter().filter(|t| t.error.is_some()).collect();
        self.attempts += attempts.len();
        self.retries += failed.len();
        self.retry_busy_s += failed.iter().map(|t| t.elapsed.as_secs_f64()).sum::<f64>();
        run.count("ladder.attempts", attempts.len() as u64);
        run.count("ladder.retries", failed.len() as u64);
        let quarantine = answer.source == AnswerSource::QuarantineFallback;
        self.quarantines += usize::from(quarantine);
        if !quarantine && failed.is_empty() {
            return;
        }
        if self.events.len() == SHOWN_EVENTS {
            self.hidden_events += 1;
            return;
        }
        let rungs: Vec<String> = failed
            .iter()
            .map(|t| {
                let ms = t.elapsed.as_secs_f64() * 1e3;
                format!("{}@N={} {ms:.1}ms", t.rung, t.population)
            })
            .collect();
        self.events.push(format!(
            "event request={} commit={} N={} what_if={} source={} rung={} failed_rungs=[{}] latency_ms={:.1}",
            asked.request,
            asked.epoch,
            asked.population,
            asked.variant,
            answer.source,
            answer.rung,
            rungs.join("; "),
            latency_s * 1e3
        ));
    }
}

fn layers(run: &mut RunResult, checker: &Checker, apply_us: &[f64], lp: &LpTotals, cpu_s: f64) {
    let (hits, misses) = (checker.hit_ms.len(), checker.miss_ms.len());
    let answered = hits + misses;
    let attempts = checker.attempts;
    run.layer(
        "planning.hit_ratio",
        ratio(hits as f64, answered as f64),
        "ratio",
        answered,
    );
    run.layer("planning.hit_p50_ms", median(&checker.hit_ms), "ms", hits);
    run.layer(
        "planning.miss_p50_ms",
        median(&checker.miss_ms),
        "ms",
        misses,
    );
    run.layer(
        "planning.quarantines",
        checker.quarantines as f64,
        "count",
        answered,
    );
    run.layer(
        "planning.ladder_retries",
        checker.retries as f64,
        "count",
        attempts,
    );
    run.layer(
        "planning.retry_busy_s",
        checker.retry_busy_s,
        "s",
        checker.retries,
    );
    let useful = attempts - checker.retries;
    run.layer(
        "planning.useful_attempt_ratio",
        ratio(useful as f64, attempts as f64),
        "ratio",
        attempts,
    );
    run.layer("planning.apply_us", median(apply_us), "us", apply_us.len());
    lp.layers(run);
    let tier = TpcwParameters::default();
    let fit = Map2FitSpec::new(tier.front_mean, tier.front_scv, tier.front_acf_decay);
    fit_ms(run, 0, 0, &[fit]);
    let loop_s = run.loop_s;
    cpu_util(run, cpu_s, loop_s);
}
