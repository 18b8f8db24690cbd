//! The four workloads: set-up, the timed closed loop, the traced replay,
//! and the checks, all on the calling thread.

use crate::check::{check_outcomes, CheckSummary};
use crate::replay::{replay_query, Counting, ForwardMemo, Layers};
use crate::{Opts, Report};
use pda_analysis::{PointsTo, Reachability};
use pda_escape::{EscPrim, EscapeClient};
use pda_lang::SiteId;
use pda_meta::InternCache;
use pda_serve::{ConnState, ServeConfig, Supervisor};
use pda_suite::experiments::typestate_query_points;
use pda_suite::{Benchmark, ExperimentConfig, GenConfig};
use pda_tracer::{
    solve_queries_batch, solve_query_cached_warm, BatchConfig, ForwardCache, Outcome, ParamCodec,
    Query, QueryObs, QueryResult, TracerClient, TracerConfig, Unresolved,
};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::{BitSet, Deadline, SplitMix64};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Memoised requests timed for `serve.reply_us`.
const REPLIES: usize = 200;

/// Tail percentile per workload, placed inside a run of queries of equal
/// cost (README.md, "Latency tail").
fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "escape-hedc" => 0.87,
        "escape-weblech" => 0.84,
        "typestate-suite" => 0.95,
        _ => 0.935,
    }
}

/// Runs `workload` under `opts`.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    let work = WorkDir::create()?;
    let mut report = match workload {
        "serve-hedc" => serve_workload(opts, &work),
        "typestate-suite" => batch_workload(opts, pda_suite::suite(), workload, &work),
        _ => {
            let program = workload.trim_start_matches("escape-");
            batch_workload(opts, vec![suite_config(program)], workload, &work)
        }
    };
    report.correct &= report.metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(report)
}

/// A scratch directory under the working directory for journals, removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(format!("perfbench/.run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Statistics

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile of `xs` (`q` in `[0, 1]`).
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0, i + 1));
    }
    v
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether an outcome counts as a failed operation.
fn is_failure<P>(o: &Outcome<P>) -> bool {
    matches!(
        o,
        Outcome::Unresolved(
            Unresolved::EngineFault(_)
                | Unresolved::MetaFailure(_)
                | Unresolved::DeadlineExceeded
                | Unresolved::MemBudgetExceeded
                | Unresolved::Drained
        )
    )
}

fn is_budget_unresolved<P>(o: &Outcome<P>) -> bool {
    matches!(
        o,
        Outcome::Unresolved(Unresolved::IterationBudget | Unresolved::AnalysisTooBig)
    )
}

/// The comparable part of a result: verdict, `p`, cost, iterations.
fn verdict_key(outcome: &Outcome<BitSet>, iterations: usize) -> String {
    let v = match outcome {
        Outcome::Proven { param, cost } => format!("proven {} cost {cost}", param.encode_param()),
        Outcome::Impossible => "impossible".into(),
        Outcome::Unresolved(u) => format!("unresolved {u:?}"),
    };
    format!("{v} after {iterations}")
}

fn key_of(r: &QueryResult<BitSet>) -> String {
    verdict_key(&r.outcome, r.iterations)
}

// ---------------------------------------------------------------------
// Set-up

fn suite_config(name: &str) -> GenConfig {
    pda_suite::suite()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("`{name}` is a suite program"))
}

/// `Benchmark::load` with each stage timed: generate, parse, points-to
/// and reachability.
fn load_split(cfg: &GenConfig, split: &mut [f64; 3]) -> Benchmark {
    let t = Instant::now();
    let source = pda_suite::generate_source(cfg);
    split[0] += secs(t.elapsed());
    let t = Instant::now();
    let program = pda_lang::parse_program(&source).expect("generated programs parse");
    split[1] += secs(t.elapsed());
    let t = Instant::now();
    let pa = PointsTo::analyze(&program);
    let reach = Reachability::compute(&program, &pa);
    split[2] += secs(t.elapsed());
    Benchmark {
        name: cfg.name.clone(),
        source,
        program,
        pa,
        reach,
    }
}

/// Median per-stage set-up time over [`SETUPS`] loads of `cfgs`.
fn setup_split(cfgs: &[GenConfig]) -> [f64; 3] {
    let mut samples: [Vec<f64>; 3] = Default::default();
    for _ in 0..SETUPS {
        let mut split = [0.0; 3];
        for cfg in cfgs {
            black_box(load_split(cfg, &mut split));
        }
        for (s, v) in samples.iter_mut().zip(split) {
            s.push(v);
        }
    }
    [
        median(&samples[0]),
        median(&samples[1]),
        median(&samples[2]),
    ]
}

/// One batch of queries over one program, solved by one client.
struct Batch<'b, C: TracerClient> {
    bench: &'b Benchmark,
    client: C,
    queries: Vec<Query<C::Prim>>,
}

fn escape_queries(bench: &Benchmark) -> (EscapeClient, Vec<Query<EscPrim>>) {
    let client = EscapeClient::new(&bench.program);
    let queries = EscapeClient::accesses(&bench.program, bench.app_methods())
        .into_iter()
        .map(|(point, var)| client.access_query(point, var))
        .collect();
    (client, queries)
}

/// The type-state stress batches of one program: one per allocation site.
fn typestate_batches(bench: &Benchmark) -> Vec<Batch<'_, TypestateClient<'_>>> {
    let points = typestate_query_points(bench, &ExperimentConfig::default());
    let skip: HashSet<pda_lang::NameId> = bench
        .program
        .methods
        .iter()
        .filter(|m| bench.program.names.resolve(m.name).starts_with("lib_"))
        .map(|m| m.name)
        .collect();
    let mut by_site: BTreeMap<SiteId, Vec<pda_lang::PointId>> = BTreeMap::new();
    for (pc, h) in points {
        by_site.entry(h).or_default().push(pc);
    }
    by_site
        .into_iter()
        .map(|(h, pcs)| {
            let client = TypestateClient::new(
                &bench.program,
                &bench.pa,
                h,
                TsMode::Stress { skip: skip.clone() },
            );
            let queries = pcs.iter().map(|&pc| client.stress_query(pc)).collect();
            Batch {
                bench,
                client,
                queries,
            }
        })
        .collect()
}

/// A workload's programs, loaded once for the run.
struct Setup {
    configs: Vec<GenConfig>,
    benches: Vec<Benchmark>,
}

impl Setup {
    fn load(configs: Vec<GenConfig>) -> Setup {
        let benches = configs.iter().cloned().map(Benchmark::load).collect();
        Setup { configs, benches }
    }
}

/// Times one set-up of a batch workload from nothing: load every program
/// and build its queries (and clients).
fn time_batch_setup(configs: &[GenConfig], typestate: bool) -> f64 {
    let t = Instant::now();
    let benches: Vec<Benchmark> = configs.iter().cloned().map(Benchmark::load).collect();
    let queries: usize = if typestate {
        benches
            .iter()
            .flat_map(typestate_batches)
            .map(|b| b.queries.len())
            .sum()
    } else {
        benches.iter().map(|b| escape_queries(b).1.len()).sum()
    };
    let elapsed = secs(t.elapsed());
    black_box(queries);
    elapsed
}

/// Times one set-up of serve-hedc from nothing: load hedc, build its
/// queries, start a supervisor with a fresh journal at `journal`.
fn time_serve_setup(cfg: &GenConfig, journal: &std::path::Path) -> f64 {
    let _ = std::fs::remove_file(journal);
    let t = Instant::now();
    let bench = Benchmark::load(cfg.clone());
    let (client, queries) = escape_queries(&bench);
    let callees = bench.callees();
    let n = queries.len();
    let mut sup = Supervisor::new(
        &bench.program,
        &callees,
        &client,
        queries,
        labels(n),
        ServeConfig::default(),
    );
    sup.attach_journal(journal.to_path_buf())
        .expect("the journal attaches");
    let elapsed = secs(t.elapsed());
    sup.close_journal();
    elapsed
}

// ---------------------------------------------------------------------
// The timed closed loop, shared by every workload

/// What the timed loop measured: per-query latencies, per-round rates,
/// and the set-ups run between rounds.
#[derive(Default)]
struct Timed {
    latencies_ms: Vec<f64>,
    rates: Vec<f64>,
    setups: Vec<f64>,
    rounds: u64,
}

/// Whole rounds the timed loop makes at least, so that at least twelve
/// latency samples lie beyond the tail percentile in every run.
fn min_rounds(tail: f64, per_round: usize) -> u64 {
    (12.0 / ((1.0 - tail) * per_round as f64)).ceil().max(1.0) as u64
}

/// Share of each round's wall spent on set-ups after it.
const SETUP_SHARE: f64 = 0.02;

/// Runs whole rounds until `opts.run` has passed and the tail has its
/// samples. `round(k)` runs round `k` and returns its per-query latencies
/// in milliseconds and its wall in seconds. After every round, `setup()`
/// times set-ups for [`SETUP_SHARE`] of the round's wall (at least one),
/// so that `setup_s` samples the same stretch of time as the rounds.
fn timed_loop(
    opts: &Opts,
    tail: f64,
    per_round: usize,
    mut round: impl FnMut(u64) -> (Vec<f64>, f64),
    mut setup: impl FnMut() -> f64,
) -> Timed {
    let mut timed = Timed::default();
    let least = min_rounds(tail, per_round);
    let start = Instant::now();
    while timed.rounds < least || start.elapsed() < opts.run {
        let (lat, wall) = round(timed.rounds);
        timed.rounds += 1;
        timed.rates.push(lat.len() as f64 / wall);
        timed.latencies_ms.extend(lat);
        let mut spent = 0.0;
        while spent == 0.0 || spent < SETUP_SHARE * wall {
            let t = setup();
            timed.setups.push(t);
            spent += t;
        }
    }
    timed
}

fn e2e_metrics(report: &mut Report, timed: &Timed, tail: f64, unit: &str) {
    let rss = peak_rss_mb();
    report.note(format!(
        "timed: {} {unit}, {} latency samples, {} set-ups, tail = p{}, rate per round q1 {:.4} median {:.4} q3 {:.4}",
        timed.rounds,
        timed.latencies_ms.len(),
        timed.setups.len(),
        tail * 100.0,
        percentile(&timed.rates, 0.25),
        median(&timed.rates),
        percentile(&timed.rates, 0.75)
    ));
    report.metric("setup_s", median(&timed.setups), "s");
    report.metric("queries_per_s", median(&timed.rates), "1/s");
    report.metric("latency_p50_ms", median(&timed.latencies_ms), "ms");
    report.metric(
        "latency_tail_ms",
        percentile(&timed.latencies_ms, tail),
        "ms",
    );
    report.metric("peak_rss_mb", rss, "MB");
}

// ---------------------------------------------------------------------
// Batch workloads: escape-hedc, escape-weblech, typestate-suite

/// A client the batch driver accepts, with `BitSet` parameters.
trait BatchClient: TracerClient<Param = BitSet, State: Send + Sync, Prim: Send + Sync> + Sync {}

impl<C: TracerClient<Param = BitSet, State: Send + Sync, Prim: Send + Sync> + Sync> BatchClient
    for C
{
}

fn batch_workload(opts: &Opts, configs: Vec<GenConfig>, workload: &str, work: &WorkDir) -> Report {
    let setup = Setup::load(configs);
    if workload == "typestate-suite" {
        let batches = setup.benches.iter().flat_map(typestate_batches).collect();
        run_batches(opts, &setup, batches, workload, work)
    } else {
        let bench = &setup.benches[0];
        let (client, queries) = escape_queries(bench);
        let batches = vec![Batch {
            bench,
            client,
            queries,
        }];
        run_batches(opts, &setup, batches, workload, work)
    }
}

/// The results of one pass over every batch, in batch order, plus the
/// pass wall and the sum of the per-query times the results report.
struct Pass {
    results: Vec<Vec<QueryResult<BitSet>>>,
    wall: f64,
    reported: f64,
}

impl Pass {
    fn all(&self) -> Vec<&QueryResult<BitSet>> {
        self.results.iter().flatten().collect()
    }
}

fn batch_config() -> BatchConfig {
    BatchConfig {
        jobs: 1,
        tracer: TracerConfig::default(),
        ..BatchConfig::default()
    }
}

/// One pass of the batch driver over every batch, `clients[i]` solving
/// batch `i`.
fn solve_pass<C: BatchClient, K>(batches: &[Batch<'_, C>], clients: &[&K]) -> Pass
where
    K: BatchClient + TracerClient<State = C::State, Prim = C::Prim>,
{
    let config = batch_config();
    let t = Instant::now();
    let results: Vec<Vec<QueryResult<BitSet>>> = batches
        .iter()
        .zip(clients)
        .map(|(b, c)| {
            let callees = b.bench.callees();
            solve_queries_batch(&b.bench.program, &callees, *c, &b.queries, &config).0
        })
        .collect();
    let wall = secs(t.elapsed());
    let reported = results
        .iter()
        .flatten()
        .map(|r| r.micros as f64 / 1e6)
        .sum();
    Pass {
        results,
        wall,
        reported,
    }
}

fn plain_clients<'a, C: BatchClient>(batches: &'a [Batch<'_, C>]) -> Vec<&'a C> {
    batches.iter().map(|b| &b.client).collect()
}

/// Runs the verdict checker over one pass's results.
fn check_pass<C: BatchClient>(batches: &[Batch<'_, C>], pass: &Pass) -> CheckSummary {
    let limits = TracerConfig::default().rhs_limits;
    let mut summary = CheckSummary::default();
    let mut offset = 0;
    for (b, results) in batches.iter().zip(&pass.results) {
        let callees = b.bench.callees();
        let outcomes: Vec<_> = results.iter().map(|r| &r.outcome).collect();
        check_outcomes(
            &b.bench.program,
            &callees,
            &b.client,
            &b.queries,
            &outcomes,
            limits,
            offset,
            &mut summary,
        );
        offset += b.queries.len();
    }
    summary
}

/// Records the checker's findings; returns how many queries it rejected.
fn note_check(report: &mut Report, summary: &CheckSummary) -> u64 {
    report.note(format!(
        "check: proven {} impossible {} cheaper abstractions run {} optimality skipped (over {}) {} violations {}",
        summary.proven,
        summary.impossible,
        summary.cheaper_runs,
        crate::check::CHEAPER_CAP,
        summary.cheaper_skipped,
        summary.violations.len()
    ));
    for (i, why) in summary.violations.iter().take(10) {
        report.note(format!("check: query {i}: {why}"));
    }
    report.correct &= summary.ok();
    summary
        .violations
        .iter()
        .map(|(i, _)| *i)
        .collect::<HashSet<usize>>()
        .len() as u64
}

/// Records the verdict mix of one pass; returns its failed and
/// budget-unresolved counts.
fn verdict_mix(report: &mut Report, results: &[&QueryResult<BitSet>]) -> (u64, u64) {
    let count = |f: &dyn Fn(&Outcome<BitSet>) -> bool| {
        results.iter().filter(|r| f(&r.outcome)).count() as u64
    };
    let failed = count(&is_failure);
    let unresolved = count(&is_budget_unresolved);
    report.note(format!(
        "verdicts: {} queries, {} proven, {} impossible, {unresolved} unresolved by budget, {failed} failed, {} iterations",
        results.len(),
        count(&|o| matches!(o, Outcome::Proven { .. })),
        count(&|o| *o == Outcome::Impossible),
        results.iter().map(|r| r.iterations).sum::<usize>()
    ));
    (failed, unresolved)
}

fn run_batches<C: BatchClient>(
    opts: &Opts,
    setup: &Setup,
    mut batches: Vec<Batch<'_, C>>,
    workload: &str,
    work: &WorkDir,
) -> Report {
    // The seed orders the queries inside each batch.
    for (k, b) in batches.iter_mut().enumerate() {
        let order = permutation(
            b.queries.len(),
            opts.seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64),
        );
        b.queries = order.iter().map(|&i| b.queries[i].clone()).collect();
    }
    let n: usize = batches.iter().map(|b| b.queries.len()).sum();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.note(format!(
        "programs: {} batches: {} queries per pass: {n}",
        setup
            .configs
            .iter()
            .map(|c| format!("{}(seed {})", c.name, c.seed))
            .collect::<Vec<_>>()
            .join(" "),
        batches.len()
    ));
    if opts.trace {
        let escape = workload != "typestate-suite";
        return traced_batches(opts, setup, &batches, escape, work, report);
    }

    // Untimed warm-up pass; its results are the reference for every
    // timed pass and the input of the checker.
    let clients = plain_clients(&batches);
    let reference = solve_pass(&batches, &clients);
    let ref_keys: Vec<String> = reference.all().into_iter().map(key_of).collect();
    let (failed, unresolved) = verdict_mix(&mut report, &reference.all());

    let tail = tail_percentile(workload);
    let mut mismatches = Vec::new();
    let timed = timed_loop(
        opts,
        tail,
        n,
        |_| {
            let pass = solve_pass(&batches, &clients);
            let all = pass.all();
            mismatches.extend(
                all.iter()
                    .zip(&ref_keys)
                    .filter(|(r, want)| key_of(r) != **want)
                    .map(|(r, want)| format!("nondeterminism: {want} then {}", key_of(r))),
            );
            (
                all.iter().map(|r| r.micros as f64 / 1e3).collect(),
                pass.wall,
            )
        },
        || time_batch_setup(&setup.configs, workload == "typestate-suite"),
    );
    e2e_metrics(&mut report, &timed, tail, "passes");
    report.correct &= mismatches.is_empty();
    report.notes.extend(mismatches.into_iter().take(10));

    let rejected = note_check(&mut report, &check_pass(&batches, &reference));
    report.attempted = timed.rounds * n as u64;
    report.failed = timed.rounds * (failed + rejected);
    report.unresolved = timed.rounds * unresolved;
    report
}

/// The traced run of a batch workload: one counted program pass as the
/// reference, then untraced program passes alternating with replay passes
/// of Algorithm 1 that time every layer.
fn traced_batches<C: BatchClient>(
    opts: &Opts,
    setup: &Setup,
    batches: &[Batch<'_, C>],
    escape: bool,
    work: &WorkDir,
    mut report: Report,
) -> Report {
    let split = setup_split(&setup.configs);
    let config = batch_config().tracer;

    let counting: Vec<Counting<'_, C>> = batches.iter().map(|b| Counting::new(&b.client)).collect();
    let reference = solve_pass(batches, &counting.iter().collect::<Vec<_>>());
    let program_transfers: u64 = counting.iter().map(Counting::transfers).sum();
    let ref_all = reference.all();
    let (failed, unresolved) = verdict_mix(&mut report, &ref_all);
    let mut program_meta = pda_tracer::MetaStats::default();
    for r in &ref_all {
        program_meta.merge(&r.meta);
    }

    let clients = plain_clients(batches);
    let mut untraced = Vec::new();
    let mut overheads = Vec::new();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let mut replay_transfers = 0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < opts.run {
        let pass = solve_pass(batches, &clients);
        untraced.push(pass.wall);
        overheads.push(pass.wall - pass.reported);

        let counting: Vec<Counting<'_, C>> =
            batches.iter().map(|b| Counting::new(&b.client)).collect();
        let mut layers = Layers::default();
        let mut replayed = Vec::with_capacity(ref_all.len());
        let t = Instant::now();
        for (b, c) in batches.iter().zip(&counting) {
            let callees = b.bench.callees();
            for q in &b.queries {
                // The program builds and drops each query's intern cache
                // inside the solve: meta-layer time.
                let t = Instant::now();
                let mut icache = InternCache::default();
                layers.backward_s += secs(t.elapsed());
                replayed.push(replay_query(
                    &b.bench.program,
                    &callees,
                    c,
                    q,
                    &config,
                    &mut icache,
                    None,
                    &mut layers,
                ));
                let t = Instant::now();
                drop(icache);
                layers.backward_s += secs(t.elapsed());
            }
        }
        walls.push(secs(t.elapsed()));
        replay_transfers = counting.iter().map(Counting::transfers).sum();
        for (rep, want) in replayed.iter().zip(&ref_all) {
            let got = verdict_key(&rep.outcome, rep.iterations);
            if got != key_of(want) {
                report.correct = false;
                report.note(format!(
                    "replay mismatch: program {} replay {got}",
                    key_of(want)
                ));
            }
        }
        passes.push(layers);
    }
    compare_counts(
        &mut report,
        program_transfers,
        replay_transfers,
        &program_meta,
        &passes[0],
    );
    let rejected = note_check(&mut report, &check_pass(batches, &reference));
    let rounds = 1 + 2 * walls.len() as u64;
    report.attempted = rounds * ref_all.len() as u64;
    report.failed = rounds * (failed + rejected);
    report.unresolved = rounds * unresolved;

    // The serve layer over this workload's largest batch.
    let largest = (0..batches.len())
        .max_by_key(|&i| batches[i].queries.len())
        .expect("a batch");
    let b = &batches[largest];
    let probe = serve_probe(
        b.bench,
        &b.client,
        &b.queries,
        &reference.results[largest],
        work,
    );

    let transfers = if escape {
        (replay_transfers, 0)
    } else {
        (0, replay_transfers)
    };
    let times = LayerStats::of(&passes, &walls, &untraced);
    per_layer_metrics(
        &mut report,
        split,
        probe,
        &passes[0],
        &times,
        median(&overheads),
        transfers,
        (0, 0),
    );
    report
}

/// Median per-layer times over replay passes.
struct LayerStats {
    wall: f64,
    untraced: f64,
    forward: f64,
    witness: f64,
    backward: f64,
    choose: f64,
    unaccounted: f64,
}

impl LayerStats {
    fn of(passes: &[Layers], walls: &[f64], untraced: &[f64]) -> LayerStats {
        let m = |f: &dyn Fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let unaccounted: Vec<f64> = passes
            .iter()
            .zip(walls)
            .map(|(l, w)| w - l.accounted_s())
            .collect();
        LayerStats {
            wall: median(walls),
            untraced: median(untraced),
            forward: m(&|l| l.forward_s),
            witness: m(&|l| l.witness_s),
            backward: m(&|l| l.backward_s),
            choose: m(&|l| l.choose_s),
            unaccounted: median(&unaccounted),
        }
    }
}

/// Cross-checks the replay's work counters against the program's: equal
/// transfer calls and meta-kernel counters show the replay did the
/// program's work, not merely reached its verdicts.
fn compare_counts(
    report: &mut Report,
    program_transfers: u64,
    replay_transfers: u64,
    program_meta: &pda_tracer::MetaStats,
    layers: &Layers,
) {
    let strip = |m: &pda_tracer::MetaStats| pda_tracer::MetaStats { micros: 0, ..*m };
    let same_meta = strip(program_meta) == strip(&layers.meta);
    report.note(format!(
        "replay work: transfer calls program {program_transfers} replay {replay_transfers}; meta counters equal: {same_meta}"
    ));
    if program_transfers != replay_transfers || !same_meta {
        report.correct = false;
        report.note(format!(
            "replay work differs: program meta {program_meta:?} replay meta {:?}",
            layers.meta
        ));
    }
}

/// Serve-layer figures: start-up, memoised reply time, journal size.
struct Probe {
    start_s: f64,
    reply_us: f64,
    journal_bytes: u64,
}

/// Starts the analysis daemon's supervisor over `queries` with a fresh
/// journal ([`SETUPS`] times), then resumes a journal holding `results`
/// and times memoised replies.
fn serve_probe<C: BatchClient>(
    bench: &Benchmark,
    client: &C,
    queries: &[Query<C::Prim>],
    results: &[QueryResult<BitSet>],
    work: &WorkDir,
) -> Probe {
    let callees = bench.callees();
    let labels: Vec<String> = (0..queries.len()).map(|i| format!("q{i}")).collect();
    let path = work.path("probe.journal");
    let start = || {
        let mut sup = Supervisor::new(
            &bench.program,
            &callees,
            client,
            queries.to_vec(),
            labels.clone(),
            ServeConfig::default(),
        );
        let resumed = sup
            .attach_journal(path.clone())
            .expect("the journal attaches");
        (sup, resumed)
    };
    let mut starts = Vec::new();
    for _ in 0..SETUPS {
        let _ = std::fs::remove_file(&path);
        let t = Instant::now();
        let (sup, _) = start();
        starts.push(secs(t.elapsed()));
        sup.close_journal();
    }

    let records: Vec<(usize, &QueryResult<BitSet>)> = results.iter().enumerate().collect();
    drop(
        pda_tracer::compact_checkpoint(&path, queries.len(), &records).expect("the journal writes"),
    );
    let journal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let (sup, resumed) = start();
    assert_eq!(resumed, queries.len(), "every verdict resumes");
    let mut conn = ConnState::new(sup.generation());
    let mut replies = Vec::with_capacity(REPLIES);
    for k in 0..REPLIES {
        let line = solve_line(k % queries.len());
        let t = Instant::now();
        black_box(sup.handle_line(&mut conn, &line));
        replies.push(secs(t.elapsed()) * 1e6);
    }
    sup.close_journal();
    Probe {
        start_s: median(&starts),
        reply_us: median(&replies),
        journal_bytes,
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    report: &mut Report,
    split: [f64; 3],
    probe: Probe,
    counts: &Layers,
    times: &LayerStats,
    batch_overhead_s: f64,
    (escape_transfers, typestate_transfers): (u64, u64),
    (cache_lookups, cache_hits): (u64, u64),
) {
    report.note(format!(
        "layers: traced wall {:.6} s = forward {:.6} + witness {:.6} + backward {:.6} + choose {:.6} + unaccounted {:.6} ({:.2}%)",
        times.wall,
        times.forward,
        times.witness,
        times.backward,
        times.choose,
        times.unaccounted,
        times.unaccounted / times.wall * 100.0
    ));
    report.note(format!(
        "tracing overhead: traced wall {:.6} s vs untraced {:.6} s ({:+.1}%)",
        times.wall,
        times.untraced,
        (times.wall / times.untraced - 1.0) * 100.0
    ));
    if times.unaccounted > 0.05 * times.wall {
        report.correct = false;
        report.note("the layers leave more than 5% of the traced wall unaccounted");
    }
    report.metric("suite.generate_s", split[0], "s");
    report.metric("lang.parse_s", split[1], "s");
    report.metric("analysis.pointsto_s", split[2], "s");
    report.metric("serve.start_s", probe.start_s, "s");
    report.metric("dataflow.forward_s", times.forward, "s");
    report.metric("dataflow.forward_runs", counts.forward_runs as f64, "count");
    report.metric("dataflow.facts", counts.facts as f64, "count");
    report.metric("dataflow.witness_s", times.witness, "s");
    report.metric("dataflow.trace_steps", counts.trace_steps as f64, "count");
    report.metric("escape.transfer_calls", escape_transfers as f64, "count");
    report.metric(
        "typestate.transfer_calls",
        typestate_transfers as f64,
        "count",
    );
    report.metric("meta.backward_s", times.backward, "s");
    report.metric("meta.cubes_built", counts.meta.cubes_built as f64, "count");
    report.metric(
        "meta.subsumption_checks",
        counts.meta.subsumption_checks as f64,
        "count",
    );
    report.metric("meta.wp_misses", counts.meta.wp_misses as f64, "count");
    report.metric(
        "meta.approx_drops",
        counts.meta.approx_drops as f64,
        "count",
    );
    report.metric("solver.choose_s", times.choose, "s");
    report.metric("solver.calls", counts.solver_calls as f64, "count");
    report.metric("core.iterations", counts.iterations as f64, "count");
    report.metric("core.batch_overhead_s", batch_overhead_s, "s");
    report.metric("core.unaccounted_s", times.unaccounted, "s");
    report.metric("core.cache_lookups", cache_lookups as f64, "count");
    report.metric("core.cache_hits", cache_hits as f64, "count");
    report.metric("serve.reply_us", probe.reply_us, "us");
    report.metric("serve.journal_bytes", probe.journal_bytes as f64, "bytes");
}

// ---------------------------------------------------------------------
// serve-hedc

/// Request line for query `i`.
fn solve_line(i: usize) -> String {
    format!("{{\"op\":\"solve\",\"index\":\"{i}\"}}")
}

/// The comparable part of a daemon reply, in [`verdict_key`] form, or the
/// reply itself when it carries no verdict.
fn reply_key(text: &str) -> Result<String, String> {
    let f =
        pda_util::json::parse_json_line(text).ok_or_else(|| format!("unparsable reply {text}"))?;
    let get = |k: &str| f.get(k).cloned().unwrap_or_default();
    if get("ok") != "true" {
        return Err(text.to_string());
    }
    let v = match get("outcome").as_str() {
        "proven" => format!("proven {} cost {}", get("param"), get("cost")),
        "impossible" => "impossible".into(),
        _ => return Err(text.to_string()),
    };
    Ok(format!("{v} after {}", get("iterations")))
}

/// The request order of session `session`, drawn from the seed.
fn session_order(n: usize, seed: u64, session: u64) -> Vec<usize> {
    permutation(
        n,
        seed.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ session.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

fn labels(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("q{i}")).collect()
}

fn serve_workload(opts: &Opts, work: &WorkDir) -> Report {
    let cfg = suite_config("hedc");
    let journal = work.path("serve.journal");

    let setup = Setup::load(vec![cfg]);
    let bench = &setup.benches[0];
    let (client, queries) = escape_queries(bench);
    let callees = bench.callees();
    let n = queries.len();

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.note(format!(
        "programs: hedc(seed {}) sessions of {n} requests on one connection",
        setup.configs[0].seed
    ));

    // The escape-hedc verdicts the daemon must reproduce.
    let batch = [Batch {
        bench,
        client: EscapeClient::new(&bench.program),
        queries: queries.clone(),
    }];
    let reference = solve_pass(&batch, &plain_clients(&batch));
    let expected: Vec<String> = reference.all().into_iter().map(key_of).collect();
    let (failed, unresolved) = verdict_mix(&mut report, &reference.all());

    // One session: a fresh supervisor with a fresh journal, every query
    // once in the session's order. Returns the per-request latencies in
    // seconds, the session wall, and the failed replies; checks every
    // reply against escape-hedc.
    let session = |s: u64, report: &mut Report| -> (Vec<f64>, f64, u64) {
        let _ = std::fs::remove_file(&journal);
        let mut sup = Supervisor::new(
            &bench.program,
            &callees,
            &client,
            queries.clone(),
            labels(n),
            ServeConfig::default(),
        );
        sup.attach_journal(journal.clone())
            .expect("the journal attaches");
        let mut conn = ConnState::new(sup.generation());
        let mut lat = Vec::with_capacity(n);
        let mut failed = 0;
        let start = Instant::now();
        for i in session_order(n, opts.seed, s) {
            let line = solve_line(i);
            let t = Instant::now();
            let reply = sup.handle_line(&mut conn, &line);
            lat.push(secs(t.elapsed()));
            match reply_key(&reply.text) {
                Ok(k) if k == expected[i] => {}
                Ok(k) => {
                    report.correct = false;
                    report.note(format!(
                        "serve reply for query {i}: {k}, escape-hedc: {}",
                        expected[i]
                    ));
                }
                Err(text) => {
                    failed += 1;
                    report.note(format!("serve reply for query {i} failed: {text}"));
                }
            }
        }
        let wall = secs(start.elapsed());
        sup.close_journal();
        (lat, wall, failed)
    };

    if opts.trace {
        let (mut report, rounds, failed_replies) =
            traced_serve(opts, &setup, &batch[0], &reference, session, work, report);
        let rejected = note_check(&mut report, &check_pass(&batch, &reference));
        report.attempted = rounds * n as u64;
        report.failed = failed_replies + rounds * (failed + rejected);
        report.unresolved = rounds * unresolved;
        return report;
    }

    session(0, &mut report); // warm-up
    let tail = tail_percentile("serve-hedc");
    let mut failed_replies = 0;
    let timed = timed_loop(
        opts,
        tail,
        n,
        |k| {
            let (lat, wall, failed) = session(k + 1, &mut report);
            failed_replies += failed;
            (lat.iter().map(|s| s * 1e3).collect(), wall)
        },
        || time_serve_setup(&setup.configs[0], &work.path("setup.journal")),
    );
    e2e_metrics(&mut report, &timed, tail, "sessions");
    let rejected = note_check(&mut report, &check_pass(&batch, &reference));
    report.attempted = timed.rounds * n as u64;
    report.failed = failed_replies + timed.rounds * (failed + rejected);
    report.unresolved = timed.rounds * unresolved;
    report
}

/// The traced run of serve-hedc. Supervisor sessions alternate with
/// replayed sessions that hold one forward memo and one intern cache, as
/// one daemon connection does; one session through
/// `solve_query_cached_warm` (the function the supervisor calls) gives
/// the program's own cache counts. Returns the report, the rounds of
/// queries attempted, and the failed replies.
fn traced_serve(
    opts: &Opts,
    setup: &Setup,
    batch: &Batch<'_, EscapeClient>,
    reference: &Pass,
    session: impl Fn(u64, &mut Report) -> (Vec<f64>, f64, u64),
    work: &WorkDir,
    mut report: Report,
) -> (Report, u64, u64) {
    let split = setup_split(&setup.configs);
    let config = TracerConfig::default();
    let (bench, queries) = (batch.bench, &batch.queries);
    let callees = bench.callees();
    let expected: Vec<String> = reference.all().into_iter().map(key_of).collect();
    let n = queries.len();
    let order = session_order(n, opts.seed, 1);

    let counting = Counting::new(&batch.client);
    let cache = ForwardCache::new();
    let mut icache = InternCache::default();
    let mut program_meta = pda_tracer::MetaStats::default();
    for &i in &order {
        let r = solve_query_cached_warm(
            &bench.program,
            &callees,
            &counting,
            &queries[i],
            &config,
            &cache,
            &mut icache,
            Deadline::NEVER,
            &mut QueryObs::untraced(),
        );
        program_meta.merge(&r.meta);
        if key_of(&r) != expected[i] {
            report.correct = false;
            report.note(format!(
                "cached session, query {i}: {} vs escape-hedc {}",
                key_of(&r),
                expected[i]
            ));
        }
    }
    let stats = cache.stats();
    let (lookups, hits) = (stats.hits + stats.misses, stats.hits);
    report.note(format!(
        "cache: {lookups} lookups, {hits} hits, {} forward runs per session",
        stats.misses
    ));

    let mut untraced = Vec::new();
    let mut overheads = Vec::new();
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let mut replay_transfers = 0;
    let mut failed_replies = 0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < opts.run {
        let (lat, wall, failed) = session(1, &mut report);
        failed_replies += failed;
        untraced.push(wall);
        overheads.push(wall - lat.iter().sum::<f64>());

        let counting = Counting::new(&batch.client);
        let mut layers = Layers::default();
        let mut memo = ForwardMemo::new();
        let mut icache = InternCache::default();
        let mut replayed = Vec::with_capacity(n);
        let t = Instant::now();
        for &i in &order {
            let rep = replay_query(
                &bench.program,
                &callees,
                &counting,
                &queries[i],
                &config,
                &mut icache,
                Some(&mut memo),
                &mut layers,
            );
            replayed.push((i, rep));
        }
        // The session's cached runs and intern tables go when the
        // connection's generation does: forward and meta memory.
        let t_drop = Instant::now();
        drop(memo);
        layers.forward_s += secs(t_drop.elapsed());
        let t_drop = Instant::now();
        drop(icache);
        layers.backward_s += secs(t_drop.elapsed());
        walls.push(secs(t.elapsed()));
        replay_transfers = counting.transfers();
        for (i, rep) in &replayed {
            let got = verdict_key(&rep.outcome, rep.iterations);
            if got != expected[*i] {
                report.correct = false;
                report.note(format!(
                    "replay mismatch, query {i}: {got} vs escape-hedc {}",
                    expected[*i]
                ));
            }
        }
        if (layers.memo_lookups, layers.memo_hits) != (lookups, hits) {
            report.correct = false;
            report.note(format!(
                "replay memo {} hits of {} lookups vs ForwardCache {hits} of {lookups}",
                layers.memo_hits, layers.memo_lookups
            ));
        }
        passes.push(layers);
    }
    compare_counts(
        &mut report,
        counting.transfers(),
        replay_transfers,
        &program_meta,
        &passes[0],
    );

    let probe = serve_probe(bench, &batch.client, queries, &reference.results[0], work);
    let times = LayerStats::of(&passes, &walls, &untraced);
    per_layer_metrics(
        &mut report,
        split,
        probe,
        &passes[0],
        &times,
        median(&overheads),
        (replay_transfers, 0),
        (lookups, hits),
    );
    // The reference pass, the cached session, and each pair of a
    // supervisor session and a replayed one.
    let rounds = 2 + 2 * walls.len() as u64;
    (report, rounds, failed_replies)
}
