//! The verdict checker: properties every TRACER answer must have, checked
//! with fresh forward runs and no shared state with the CEGAR loop.
//!
//! * `Proven { p, cost }`: a fresh run at `p` reaches no failing state at
//!   the query point; `cost` equals the cost recomputed from `p`; and,
//!   where there are at most [`CHEAPER_CAP`] cheaper abstractions, every
//!   one of them fails when run fresh (optimality).
//! * `Impossible`: the most precise abstraction (every atom set) fails.
//!
//! Unresolved answers are not checked here; the workloads count them.

use pda_dataflow::{rhs, RhsLimits};
use pda_lang::{CallId, MethodId, Program};
use pda_tracer::{AsAnalysis, Outcome, Query, TracerClient};
use pda_util::BitSet;

/// Largest number of cheaper abstractions the optimality check runs for
/// one query; queries with more are counted as skipped.
pub const CHEAPER_CAP: u64 = 64;

/// What the checker did, and every violation it found.
#[derive(Debug, Default)]
pub struct CheckSummary {
    pub proven: u64,
    pub impossible: u64,
    /// Cheaper abstractions run fresh for the optimality check.
    pub cheaper_runs: u64,
    /// Proven queries with more than [`CHEAPER_CAP`] cheaper abstractions.
    pub cheaper_skipped: u64,
    /// `(query index, reason)`.
    pub violations: Vec<(usize, String)>,
}

impl CheckSummary {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Whether the query fails under `p` in a fresh forward run: `Some(true)`
/// when a failing state reaches the query point, `None` when the run
/// exceeds its fact budget.
fn fails<C: TracerClient<Param = BitSet>>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    p: &BitSet,
    limits: RhsLimits,
) -> Option<bool> {
    let run = rhs::run(
        program,
        &AsAnalysis(client),
        p,
        client.initial_state(),
        callees,
        limits,
    )
    .ok()?;
    Some(
        run.witness(query.point, &|d| query.not_q.holds(p, d))
            .is_some(),
    )
}

/// Number of atom subsets cheaper than `bound`, or `None` above `cap`.
fn count_cheaper(costs: &[u64], bound: u64, cap: u64) -> Option<u64> {
    let Ok(width) = usize::try_from(bound) else {
        return None;
    };
    // ways[s]: subsets of the atoms seen so far with total cost s < bound,
    // saturated just above the cap.
    let mut ways = vec![0u64; width];
    if width > 0 {
        ways[0] = 1;
    }
    for &c in costs {
        let c = usize::try_from(c).unwrap_or(usize::MAX);
        for s in (0..width).rev() {
            if let Some(from) = s.checked_sub(c) {
                ways[s] = (ways[s] + ways[from]).min(cap + 1);
            }
        }
    }
    let total = ways.iter().fold(0u64, |a, &w| (a + w).min(cap + 1));
    (total <= cap).then_some(total)
}

/// Every atom subset cheaper than `bound` (call only under the cap).
fn cheaper_subsets(costs: &[u64], bound: u64) -> Vec<BitSet> {
    fn go(
        costs: &[u64],
        i: usize,
        spent: u64,
        bound: u64,
        cur: &mut Vec<usize>,
        out: &mut Vec<BitSet>,
    ) {
        if i == costs.len() {
            out.push(BitSet::from_iter(costs.len(), cur.iter().copied()));
            return;
        }
        go(costs, i + 1, spent, bound, cur, out);
        let with = spent.saturating_add(costs[i]);
        if with < bound {
            cur.push(i);
            go(costs, i + 1, with, bound, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    if bound > 0 {
        go(costs, 0, 0, bound, &mut Vec::new(), &mut out);
    }
    out
}

/// Checks `outcomes[i]` as the answer to `queries[i]`, adding to `summary`.
/// `offset` is added to query indices in reported violations.
#[allow(clippy::too_many_arguments)]
pub fn check_outcomes<C: TracerClient<Param = BitSet>>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    queries: &[Query<C::Prim>],
    outcomes: &[&Outcome<BitSet>],
    limits: RhsLimits,
    offset: usize,
    summary: &mut CheckSummary,
) {
    let costs: Vec<u64> = (0..client.n_atoms()).map(|i| client.atom_cost(i)).collect();
    for (i, (query, outcome)) in queries.iter().zip(outcomes).enumerate() {
        let mut violation = |reason: String| summary.violations.push((offset + i, reason));
        match outcome {
            Outcome::Proven { param, cost } => {
                summary.proven += 1;
                match fails(program, callees, client, query, param, limits) {
                    Some(false) => {}
                    Some(true) => violation(format!("a fresh run at the returned p {param} fails")),
                    None => violation(format!("a fresh run at the returned p {param} is too big")),
                }
                let recomputed: u64 = param
                    .iter()
                    .map(|a| costs.get(a).copied().unwrap_or(u64::MAX))
                    .sum();
                if recomputed != *cost {
                    violation(format!(
                        "reported cost {cost}, but p {param} costs {recomputed}"
                    ));
                }
                match count_cheaper(&costs, *cost, CHEAPER_CAP) {
                    None => summary.cheaper_skipped += 1,
                    Some(_) => {
                        for cheaper in cheaper_subsets(&costs, *cost) {
                            summary.cheaper_runs += 1;
                            if fails(program, callees, client, query, &cheaper, limits)
                                != Some(true)
                            {
                                violation(format!("cheaper abstraction {cheaper} does not fail"));
                            }
                        }
                    }
                }
            }
            Outcome::Impossible => {
                summary.impossible += 1;
                let all = BitSet::full(costs.len());
                if fails(program, callees, client, query, &all, limits) != Some(true) {
                    violation("impossible, but the all-atoms abstraction does not fail".into());
                }
            }
            Outcome::Unresolved(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_escape::EscapeClient;
    use pda_suite::Benchmark;
    use pda_tracer::{solve_queries_batch, BatchConfig};

    #[test]
    fn counts_and_enumerates_cheaper_subsets() {
        let costs = [1, 1, 1];
        assert_eq!(count_cheaper(&costs, 0, 64), Some(0));
        assert!(cheaper_subsets(&costs, 0).is_empty());
        assert_eq!(count_cheaper(&costs, 1, 64), Some(1));
        assert_eq!(count_cheaper(&costs, 2, 64), Some(4));
        assert_eq!(count_cheaper(&costs, 2, 3), None);
        assert_eq!(cheaper_subsets(&costs, 2).len(), 4);
        assert_eq!(count_cheaper(&[2, 1], 3, 64), Some(3));
        assert_eq!(cheaper_subsets(&[2, 1], 3).len(), 3);
    }

    /// The checker accepts the program's answers and rejects each kind of
    /// corrupted answer: a flipped verdict, a cost off by one, and a `p`
    /// with one atom cleared.
    #[test]
    fn rejects_corrupted_results() {
        let bench = Benchmark::load(pda_suite::suite().remove(2));
        let client = EscapeClient::new(&bench.program);
        let queries: Vec<_> = EscapeClient::accesses(&bench.program, bench.app_methods())
            .into_iter()
            .map(|(point, var)| client.access_query(point, var))
            .collect();
        let callees = bench.callees();
        let config = BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        };
        let (results, _) =
            solve_queries_batch(&bench.program, &callees, &client, &queries, &config);
        let limits = config.tracer.rhs_limits;
        let check = |i: usize, outcome: &Outcome<BitSet>| {
            let mut summary = CheckSummary::default();
            let q = &queries[i..=i];
            check_outcomes(
                &bench.program,
                &callees,
                &client,
                q,
                &[outcome],
                limits,
                i,
                &mut summary,
            );
            summary
        };

        let mut all = CheckSummary::default();
        let outcomes: Vec<_> = results.iter().map(|r| &r.outcome).collect();
        check_outcomes(
            &bench.program,
            &callees,
            &client,
            &queries,
            &outcomes,
            limits,
            0,
            &mut all,
        );
        assert!(all.ok(), "{:?}", all.violations);
        assert!(
            all.cheaper_runs > 0,
            "the optimality check ran no cheaper abstraction"
        );

        let proven = results
            .iter()
            .position(|r| matches!(&r.outcome, Outcome::Proven { cost, .. } if *cost > 0))
            .expect("a proven query with a nonempty abstraction");
        let impossible = results
            .iter()
            .position(|r| r.outcome == Outcome::Impossible)
            .expect("an impossible query");
        let Outcome::Proven { param, cost } = &results[proven].outcome else {
            unreachable!()
        };

        assert!(
            !check(proven, &Outcome::Impossible).ok(),
            "proven flipped to impossible"
        );
        let full = BitSet::full(client.n_atoms());
        let flipped = Outcome::Proven {
            cost: full.count() as u64,
            param: full,
        };
        assert!(
            !check(impossible, &flipped).ok(),
            "impossible flipped to proven"
        );
        for off_by_one in [cost + 1, cost - 1] {
            let bad = Outcome::Proven {
                param: param.clone(),
                cost: off_by_one,
            };
            assert!(
                !check(proven, &bad).ok(),
                "cost {off_by_one} instead of {cost}"
            );
        }
        let mut cleared = param.clone();
        cleared.remove(param.iter().next().expect("nonempty p"));
        let bad = Outcome::Proven {
            param: cleared,
            cost: *cost,
        };
        let summary = check(proven, &bad);
        assert!(
            summary
                .violations
                .iter()
                .any(|(_, why)| why.contains("fails")),
            "{:?}",
            summary.violations
        );
    }
}
