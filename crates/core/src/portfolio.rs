//! Deterministic parallel racing of net-ordering strategies.
//!
//! Net order dominates the serial Level B router's rip-up cost, and no
//! single ordering wins on every chip. The portfolio racer runs `k`
//! strategies from the `ocr-order-v1` roster concurrently on the
//! `ocr-exec` pool — each attempt under its own
//! [`RunControl`](ocr_exec::RunControl) in an
//! [`ControlGroup`](ocr_exec::ControlGroup) — and returns the single
//! best result. Level A is ordering-independent, so it runs exactly
//! once; only Level B is raced.
//!
//! # The deterministic winner rule
//!
//! The winner is the strategy minimizing, in lexicographic order:
//!
//! 1. **fewest unrouted nets**, then
//! 2. **lowest total charged steps**, then
//! 3. **lowest strategy index** in the roster.
//!
//! Because the roster puts `longest` (the paper's default) at index 0,
//! the portfolio result is never worse in unrouted-net count than
//! `--order longest` on any chip.
//!
//! # Why the output is bit-identical at any `OCR_THREADS`
//!
//! Racing is inherently timing-dependent: as soon as one attempt
//! commits a *full* result (zero unrouted nets), the group cancels the
//! remaining attempts, and which of them got far enough to finish
//! first varies run to run. Determinism is recovered in two steps:
//!
//! * **Content-based classification.** An attempt counts as *settled*
//!   only if its degradation report contains no `Cancelled` /
//!   `BudgetExceeded` entries — i.e. its result is exactly what an
//!   uninterrupted run would have produced. (A run that completes
//!   within a step budget is byte-identical to an unbounded run: the
//!   budget only decides *whether* it trips, never what it routes.)
//! * **Budgeted settlement.** Every attempt the race interrupted is
//!   re-run from scratch under a step budget equal to the best settled
//!   candidate's step count. A rerun that completes within the budget
//!   joins the candidates with its true values; a rerun that trips has
//!   *provably* more steps than the current best — it cannot win under
//!   the rule above, so excluding it never changes the winner.
//!
//! Either way every execution converges on the same winner, and the
//! winner's Level B result is itself deterministic, so the merged
//! design is bit-identical at any thread count. The per-strategy
//! [`PortfolioReport`] applies the same discipline: a loser's numbers
//! are reported only when *every* execution would know them (its step
//! count does not exceed the winner's); otherwise it is reported as
//! over-budget with no numbers.

use crate::ckpt::RunSession;
use crate::config::LevelBConfig;
use crate::degrade::DegradeReason;
use crate::error::RouteError;
use crate::flow::{assemble_result, run_with_context, FlowResult, OverCellFlow};
use crate::level_b::{LevelBResult, LevelBRouter};
use crate::order::{CongestionAware, CriticalityAware, NetOrdering, SeededShuffle};
use ocr_exec::{ControlGroup, RunControl};
use ocr_netlist::{Layout, NetId, RowPlacement};
use std::ops::ControlFlow;

/// The canonical `k`-strategy roster: `longest` (index 0, the paper's
/// default), `congestion`, `criticality`, then seeded shuffles
/// `shuffle:1`, `shuffle:2`, … as independent restarts. `k = 0` is
/// clamped to 1, so `longest` always races.
pub fn portfolio_roster(k: usize) -> Vec<NetOrdering> {
    let k = k.max(1);
    let mut roster = vec![
        NetOrdering::LongestFirst,
        NetOrdering::strategy(CongestionAware),
        NetOrdering::strategy(CriticalityAware),
    ];
    roster.truncate(k);
    let mut seed = 1;
    while roster.len() < k {
        roster.push(NetOrdering::strategy(SeededShuffle::new(seed)));
        seed += 1;
    }
    roster
}

/// One strategy's deterministic outcome in a portfolio race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrategyOutcome {
    /// The strategy's `ocr-order-v1` name.
    pub name: String,
    /// `Some((unrouted_nets, steps))` when the values are known — and
    /// the same — in every execution; `None` for a loser that needed
    /// more steps than the winner (its exact numbers are
    /// timing-dependent).
    pub settled: Option<(usize, u64)>,
}

/// The deterministic summary of a portfolio race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioReport {
    /// Per-strategy outcomes, in roster order.
    pub outcomes: Vec<StrategyOutcome>,
    /// Roster index of the winner.
    pub winner: usize,
    /// The winner's unrouted-net count.
    pub winner_unrouted: usize,
    /// The winner's total charged Level B steps.
    pub winner_steps: u64,
}

impl PortfolioReport {
    /// The winning strategy's name.
    pub fn winner_name(&self) -> &str {
        &self.outcomes[self.winner].name
    }
}

/// A settled candidate: an attempt whose result equals its
/// uninterrupted run.
struct Candidate {
    result: LevelBResult,
    unrouted: usize,
    steps: u64,
}

impl Candidate {
    /// The winner rule's lexicographic key.
    fn key(&self, index: usize) -> (usize, u64, usize) {
        (self.unrouted, self.steps, index)
    }
}

/// `true` when the race (not the routing problem) cut this run short.
fn interrupted(b: &LevelBResult) -> bool {
    b.degraded.nets.iter().any(|d| {
        matches!(
            d.reason,
            DegradeReason::Cancelled | DegradeReason::BudgetExceeded
        )
    })
}

impl OverCellFlow {
    /// Races `k` ordering strategies and returns the winning result
    /// with the per-strategy report — see the [module docs](self) for
    /// the winner rule and the determinism argument. The flow's own
    /// `level_b.ordering` is ignored; the roster decides.
    ///
    /// The racer manages one `RunControl` per attempt internally, so it
    /// does not compose with an outer [`RunSession`] (the CLI rejects
    /// `--order portfolio` together with run-control flags).
    ///
    /// # Errors
    ///
    /// Propagates Level A channel errors and Level B setup errors
    /// (setup is ordering-independent, so every attempt fails alike).
    pub fn run_portfolio(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        k: usize,
    ) -> Result<(FlowResult, PortfolioReport), RouteError> {
        let mut report = None;
        let result = run_with_context(self.options, None, |_| {
            let (result, r) = self.run_portfolio_inner(layout, placement, k)?;
            report = Some(r);
            Ok(result)
        })?;
        Ok((result, report.expect("inner run sets the report on Ok")))
    }

    fn run_portfolio_inner(
        &self,
        layout: &Layout,
        placement: &RowPlacement,
        k: usize,
    ) -> Result<(FlowResult, PortfolioReport), RouteError> {
        let _span = ocr_obs::span("order.portfolio");
        // Level A once: the channel stage is ordering-independent.
        let ControlFlow::Continue((mut a, set_a, set_b)) =
            self.run_level_a(layout, placement, None)?
        else {
            unreachable!("without a session, Level A never ends in an interrupted result");
        };
        let base = self.level_b_config();
        let roster = portfolio_roster(k);
        let k = roster.len();
        ocr_obs::count("order.strategies", k as u64);

        // Phase 1 — the race: every strategy under its own unbounded
        // control; the first full (zero-unrouted) settled result
        // cancels the rest of the group.
        let group = ControlGroup::new(k);
        let first_full = std::sync::Mutex::new(false);
        let indices: Vec<usize> = (0..k).collect();
        let attempts = ocr_exec::parallel_map(&indices, |&j| {
            let control = group.control(j).clone();
            let out = run_attempt(&a.expanded, &set_b, &base, &roster[j], &control);
            if let Ok(b) = &out {
                if b.stats.nets_failed == 0 && !interrupted(b) {
                    let mut won = first_full.lock().unwrap_or_else(|e| e.into_inner());
                    if !*won {
                        *won = true;
                        let cancelled = group.cancel_except(j);
                        ocr_obs::count("order.cancelled", cancelled as u64);
                    }
                }
            }
            out
        });

        // Classify: settled attempts become candidates with their true
        // (execution-independent) values; interrupted ones go to
        // settlement. Hard errors propagate in roster order.
        let mut candidates: Vec<Option<Candidate>> = Vec::with_capacity(k);
        let mut best: Option<usize> = None;
        for (j, outcome) in attempts.into_iter().enumerate() {
            let b = outcome?;
            let candidate = (!interrupted(&b)).then(|| Candidate {
                unrouted: b.stats.nets_failed,
                steps: group.control(j).steps(),
                result: b,
            });
            if let Some(c) = &candidate {
                if best.is_none_or(|i| c.key(j) < candidates[i].as_ref().expect("best").key(i)) {
                    best = Some(j);
                }
            }
            candidates.push(candidate);
        }

        // Phase 2 — budgeted settlement: rerun every interrupted
        // attempt under the best candidate's step budget. Completing at
        // exactly the budget does not trip, so index tie-breaks agree
        // with uninterrupted executions; a tripped rerun provably needs
        // more steps than the budget and cannot win.
        for j in 0..k {
            if candidates[j].is_some() {
                continue;
            }
            ocr_obs::count("order.reruns", 1);
            let budget = best
                .map(|i| candidates[i].as_ref().expect("best").steps)
                .expect("an uncancelled attempt always settles in phase 1");
            let control = RunControl::new().with_step_budget(budget);
            let b = run_attempt(&a.expanded, &set_b, &base, &roster[j], &control)?;
            if interrupted(&b) {
                continue;
            }
            let c = Candidate {
                unrouted: b.stats.nets_failed,
                steps: control.steps(),
                result: b,
            };
            if best.is_none_or(|i| c.key(j) < candidates[i].as_ref().expect("best").key(i)) {
                best = Some(j);
            }
            candidates[j] = Some(c);
        }

        let winner = best.expect("at least one attempt settles");
        let win = candidates[winner].as_ref().expect("winner is settled");
        let (winner_unrouted, winner_steps) = (win.unrouted, win.steps);
        ocr_obs::count_max("order.winner.index", winner as u64);
        ocr_obs::count_max("order.winner.steps", winner_steps);
        ocr_obs::count_max("order.winner.unrouted", winner_unrouted as u64);

        // Report only what every execution knows: when the race can
        // cancel (the winner routed everything), a loser's numbers are
        // published only if its step count is within the winner's.
        let outcomes = roster
            .iter()
            .enumerate()
            .map(|(j, ordering)| StrategyOutcome {
                name: ordering.name(),
                settled: candidates[j]
                    .as_ref()
                    .filter(|c| winner_unrouted > 0 || c.steps <= winner_steps || j == winner)
                    .map(|c| (c.unrouted, c.steps)),
            })
            .collect();
        let report = PortfolioReport {
            outcomes,
            winner,
            winner_unrouted,
            winner_steps,
        };

        let b = candidates
            .into_iter()
            .nth(winner)
            .flatten()
            .expect("winner is settled");
        let degradation = base.salvage.then_some(b.result.degraded);
        a.design.merge(b.result.design);
        let result = assemble_result(
            a,
            set_a,
            set_b,
            Some(b.result.stats),
            self.options,
            degradation,
        );
        Ok((result, report))
    }
}

/// One Level B attempt from scratch under `control`, with `ordering`
/// swapped into the base configuration.
fn run_attempt(
    layout: &Layout,
    set_b: &[NetId],
    base: &LevelBConfig,
    ordering: &NetOrdering,
    control: &RunControl,
) -> Result<LevelBResult, RouteError> {
    let _span = ocr_obs::span("order.attempt");
    let mut config = base.clone();
    config.ordering = ordering.clone();
    let session = RunSession::with_control(control.clone());
    ocr_exec::with_control(control, || {
        let mut router = LevelBRouter::new(layout, set_b, config)?;
        router.route_all_with(Some(&session))
    })
}
