//! The traced replay: Algorithm 1 driven from outside the program.
//!
//! [`replay_query`] calls the layers' public functions in the order the
//! tracer's CEGAR step calls them and times each call, so the per-layer
//! split comes from spans recorded by the benchmark itself rather than
//! from instrumentation inside the program. The replay must reproduce the
//! program's verdict, cost and iteration count for every query; the
//! workloads check that against a batch pass of the program.

use pda_dataflow::{rhs, Interrupt, RhsLimits, RhsResult, TooBig};
use pda_lang::{Atom, CallId, MethodId, Program};
use pda_meta::{analyze_trace_interned_jobs, analyze_trace_obs, restrict, Formula, InternCache};
use pda_solver::{Bdd, MinCostSolver, PFormula};
use pda_tracer::{
    AsAnalysis, AsMeta, MetaKernel, MetaStats, Outcome, Query, TracerClient, TracerConfig,
    Unresolved, ViableEngine,
};
use pda_util::ObsRegistry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A client wrapper that counts `transfer` calls (forward and backward
/// alike) without reading the clock.
pub struct Counting<'c, C> {
    inner: &'c C,
    transfers: AtomicU64,
}

impl<'c, C> Counting<'c, C> {
    pub fn new(inner: &'c C) -> Self {
        Counting {
            inner,
            transfers: AtomicU64::new(0),
        }
    }

    pub fn transfers(&self) -> u64 {
        self.transfers.load(Ordering::Relaxed)
    }
}

impl<C: TracerClient> TracerClient for Counting<'_, C> {
    type Param = C::Param;
    type State = C::State;
    type Prim = C::Prim;

    fn transfer(&self, p: &C::Param, atom: &Atom, d: &C::State) -> C::State {
        self.transfers.fetch_add(1, Ordering::Relaxed);
        self.inner.transfer(p, atom, d)
    }

    fn wp_prim(&self, atom: &Atom, prim: &C::Prim) -> Formula<C::Prim> {
        self.inner.wp_prim(atom, prim)
    }

    fn n_atoms(&self) -> usize {
        self.inner.n_atoms()
    }

    fn atom_cost(&self, atom: usize) -> u64 {
        self.inner.atom_cost(atom)
    }

    fn param_of_model(&self, assignment: &[bool]) -> C::Param {
        self.inner.param_of_model(assignment)
    }

    fn initial_state(&self) -> C::State {
        self.inner.initial_state()
    }
}

/// Per-layer time (seconds) and work counts accumulated by the replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Model query plus decoding the model into a parameter.
    pub choose_s: f64,
    pub solver_calls: u64,
    /// `rhs::run`, including forward-memo lookups.
    pub forward_s: f64,
    pub forward_runs: u64,
    pub facts: u64,
    pub witness_s: f64,
    pub trace_steps: u64,
    /// Meta kernel, `restrict`, and negating the result into a constraint.
    pub backward_s: f64,
    pub meta: MetaStats,
    pub iterations: u64,
    pub memo_lookups: u64,
    pub memo_hits: u64,
}

impl Layers {
    /// Sum of the timed layers.
    pub fn accounted_s(&self) -> f64 {
        self.choose_s + self.forward_s + self.witness_s + self.backward_s
    }
}

/// A forward-run memo keyed like the program's `ForwardCache`: solver
/// assignment plus fact budget. One memo stands for one cache generation
/// of the analysis daemon; single-threaded, so every lookup is a hit or a
/// computed miss.
pub type ForwardMemo<'p, S> = HashMap<(Vec<bool>, usize), Result<Rc<RhsResult<'p, S>>, TooBig>>;

/// The replay's answer for one query.
#[derive(Debug, Clone)]
pub struct Replayed<P> {
    pub outcome: Outcome<P>,
    pub iterations: usize,
}

/// The viable-set engine the configuration selects, held across the
/// query's iterations like the tracer's own solver state.
enum Viable {
    Dpll,
    Bdd(Option<Bdd>, usize),
}

/// Replays Algorithm 1 for one query, timing each layer into `layers`.
///
/// `icache` is the intern/wp-memo cache the program would hold (fresh per
/// query in the batch path, one per connection in the daemon); `memo`,
/// when given, routes forward runs through a shared memo as the daemon's
/// `ForwardCache` does.
#[allow(clippy::too_many_arguments)]
pub fn replay_query<'p, C: TracerClient>(
    program: &'p Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    config: &TracerConfig,
    icache: &mut InternCache<C::Prim>,
    mut memo: Option<&mut ForwardMemo<'p, C::State>>,
    layers: &mut Layers,
) -> Replayed<C::Param> {
    let n = client.n_atoms();
    let costs: Vec<u64> = (0..n).map(|i| client.atom_cost(i)).collect();
    let mut viable = match config.viable_engine {
        ViableEngine::Dpll => Viable::Dpll,
        ViableEngine::Bdd => Viable::Bdd(None, 0),
    };
    let base_facts = query
        .limits
        .max_facts
        .unwrap_or(config.rhs_limits.max_facts);
    let mut constraints: Vec<PFormula> = Vec::new();
    let mut reg = ObsRegistry::default();
    let mut iterations = 0;
    let outcome = loop {
        if iterations >= config.max_iters {
            break Outcome::Unresolved(Unresolved::IterationBudget);
        }
        // 1–2. Minimum-cost model of the viable set, decoded to `p`.
        let t = Instant::now();
        let model = match &mut viable {
            Viable::Dpll => {
                let mut solver = MinCostSolver::new(n, costs.clone());
                for c in &constraints {
                    solver.require(c.clone());
                }
                solver.solve()
            }
            Viable::Bdd(bdd, synced) => {
                let bdd = bdd.get_or_insert_with(|| Bdd::new(n, costs.clone()));
                for c in &constraints[*synced..] {
                    bdd.conjoin(c);
                }
                *synced = constraints.len();
                bdd.solve()
            }
        };
        layers.solver_calls += 1;
        let Some(model) = model else {
            layers.choose_s += t.elapsed().as_secs_f64();
            break Outcome::Impossible;
        };
        let p = client.param_of_model(&model.assignment);
        layers.choose_s += t.elapsed().as_secs_f64();

        // 3. Forward tabulation under the escalation ladder.
        let t = Instant::now();
        let d0 = client.initial_state();
        let mut attempt = 0;
        let run = loop {
            let max_facts = config.escalation.budget(base_facts, attempt);
            let compute = || {
                let limits = RhsLimits {
                    max_facts,
                    ..RhsLimits::default()
                };
                match rhs::run(
                    program,
                    &AsAnalysis(client),
                    &p,
                    d0.clone(),
                    callees,
                    limits,
                ) {
                    Ok(r) => Ok(Rc::new(r)),
                    Err(Interrupt::TooBig(e)) => Err(e),
                    Err(Interrupt::DeadlineExceeded) => unreachable!("the replay sets no deadline"),
                }
            };
            let (result, computed) = match memo.as_deref_mut() {
                Some(memo) => {
                    layers.memo_lookups += 1;
                    let key = (model.assignment.clone(), max_facts);
                    match memo.get(&key) {
                        Some(hit) => {
                            layers.memo_hits += 1;
                            (hit.clone(), false)
                        }
                        None => {
                            let r = compute();
                            memo.insert(key, r.clone());
                            (r, true)
                        }
                    }
                }
                None => (compute(), true),
            };
            if computed {
                layers.forward_runs += 1;
                if let Ok(r) = &result {
                    layers.facts += r.n_facts() as u64;
                }
            }
            match result {
                Ok(r) => break Some(r),
                Err(_) if attempt < config.escalation.retries => attempt += 1,
                Err(_) => break None,
            }
        };
        layers.forward_s += t.elapsed().as_secs_f64();
        iterations += 1;
        let Some(run) = run else {
            break Outcome::Unresolved(Unresolved::AnalysisTooBig);
        };

        // 4. Counterexample extraction. The run's tables are freed here,
        // as forward-layer time.
        let t = Instant::now();
        let failing = |d: &C::State| query.not_q.holds(&p, d);
        let trace = run.witness(query.point, &failing);
        layers.witness_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(run);
        layers.forward_s += t.elapsed().as_secs_f64();
        let Some(trace) = trace else {
            break Outcome::Proven {
                param: p,
                cost: model.cost,
            };
        };
        layers.trace_steps += trace.len() as u64;
        let atoms: Vec<Atom> = trace.iter().map(|s| s.atom).collect();

        // 5–6. Backward meta-analysis, restricted to a parameter formula
        // and negated into the viable-set constraints.
        let t = Instant::now();
        let phi = match config.kernel {
            // The degree is clamped to the machine on every call, as the
            // tracer's backward phase does.
            MetaKernel::Interned => analyze_trace_interned_jobs(
                &AsMeta(client),
                &p,
                &d0,
                &atoms,
                &query.not_q,
                &config.beam,
                icache,
                &mut reg,
                config.meta_jobs.min(pda_tracer::default_jobs()),
            )
            .map(|out| out.restrict()),
            MetaKernel::Tree => analyze_trace_obs(
                &AsMeta(client),
                &p,
                &d0,
                &atoms,
                &query.not_q,
                &config.beam,
                &mut reg,
            )
            .map(|dnf| restrict(&dnf, &d0)),
        };
        let phi = match phi {
            Ok(phi) => phi,
            Err(e) => {
                layers.backward_s += t.elapsed().as_secs_f64();
                break Outcome::Unresolved(Unresolved::MetaFailure(e.to_string()));
            }
        };
        constraints.push(PFormula::not(phi));
        layers.backward_s += t.elapsed().as_secs_f64();
    };
    layers.iterations += iterations as u64;
    layers.meta.merge(&MetaStats::from_obs(&reg));
    Replayed {
        outcome,
        iterations,
    }
}
