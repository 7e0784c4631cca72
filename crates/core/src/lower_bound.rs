//! The lower-bounding scheme of §II.
//!
//! The paper relaxes the single-machine-per-job requirement and asks, for
//! every time `t`, for the cheapest *machine configuration* covering the
//! nested demands: with `D_i(t)` the total size of active jobs that require
//! a machine of type at least `i`, any feasible schedule uses machine
//! counts `w(i,t)` with `Σ_{j≥i} w(j,t)·g_j ≥ D_i(t)` for all `i`. Hence
//!
//! ```text
//! OPT ≥ ∫ Σ_i w*(i,t)·r_i dt                                  (1)
//! ```
//!
//! where `w*` is the minimum-cost configuration. This module solves the
//! per-time covering problem *exactly* (integer counts) with a scalar-state
//! dynamic program, integrates it over the sweepline, and also provides the
//! LP relaxation (a weaker but closed-form bound used as a cross-check and
//! as a fast path for huge instances).
//!
//! ### The exact DP
//!
//! Process types bottom-up (`i = 0..m`), carrying the scalar
//! `R` = capacity still required from types `≥ i` by all constraints seen
//! so far. Folding in constraint `i` and buying `w` machines:
//!
//! ```text
//! R' = max(R, D_i) − w·g_i   (clamped at 0)
//! ```
//!
//! is exact because capacity bought at type `k` counts for *every*
//! constraint `j ≤ k`, so the outstanding requirements collapse to their
//! maximum. Feasible terminal states have `R = 0`. Densely, `dp[R]` is the
//! cheapest cost per outstanding requirement: folding is a prefix-min, and
//! buying type `i` is an unbounded coin of weight `g_i` and cost `r_i`.
//!
//! ### Shrinking the table: three exact reductions
//!
//! [`ConfigCost`] runs that dense DP on a much smaller table. Write `E_i`
//! for the suffix maximum `max_{k≥i} D_k` (the requirement constraint `i`
//! really places on the suffix sum `S_i = Σ_{j≥i} w_j·g_j`).
//!
//! 1. **gcd normalisation.** With `G = gcd(g_i)`, every `S_i` is a
//!    multiple of `G`, so `S_i ≥ E_i` iff `S_i/G ≥ ⌈E_i/G⌉`. The DP runs
//!    on `⌈E_i/G⌉` and `g_i/G`.
//! 2. **Forced top purchases.** Only the top type serves the top
//!    constraint: `w_top ≥ ⌈E_top/g_top⌉`.
//! 3. **Dominance bound.** Type `j > i` *dominates* `i` when
//!    `r_j·g_i ≤ r_i·g_j`. Swapping `L_i = g_j/gcd(g_i,g_j)` copies of `i`
//!    for `g_i/gcd(g_i,g_j)` copies of `j` keeps the bought capacity
//!    (both are `lcm(g_i,g_j)`), does not raise the cost, and only moves
//!    capacity up the nest, so every `S_k` stays or grows and the swap
//!    stays feasible. Each swap strictly raises `Σ_k k·w_k·g_k` at fixed
//!    total capacity, so repeating it terminates: some optimum has
//!    `w_i < L_i` for every dominated `i` (with `j` the dominator of
//!    smallest lcm). If every type in `k..top` is dominated, those types
//!    supply at most `B_k = Σ_{k≤i<top} (L_i−1)·g_i`, hence
//!    `w_top ≥ ⌈(E_k − B_k)/g_top⌉`.
//!
//! The kernel pre-buys the largest of these top-type bounds `p`, charges
//! `p·r_top`, lowers every requirement by `p·g_top` (clamped at 0) and runs
//! the DP on the residue. Some optimum buys at least `p` top machines, so
//! this is exact. When every non-top type is dominated (every DEC catalog)
//! the residual table has at most `B_0 + 1` entries whatever the load.
//!
//! ### The residual memo
//!
//! Raw demand vectors almost never repeat over a run, but the residual
//! requirement vector the DP runs on (after normalisation and the prebuy)
//! does: on 5,000-job instances 82–93% of the non-trivial calls repeat one.
//! The DP's result is a pure function of that vector and the kernel's fixed,
//! normalised types, so the kernel memoizes it keyed on the residual vector
//! (the prebuy term is recomputed every call). The memo is cleared when it
//! reaches 4,096 entries, which bounds its memory independently of the
//! run's length.

use crate::convert::{count_u64, usize_from_u64};
use crate::cost::Cost;
use crate::instance::Instance;
use crate::job::Job;
use crate::machine::{Catalog, MachineType};
use crate::sweep::demand_grid_until;
use crate::time::TimePoint;
use std::collections::{BTreeMap, HashMap};

/// Largest residual requirement (in gcd units) the dense table is built
/// for; beyond it the sparse Pareto DP runs instead.
const DENSE_LIMIT: usize = 16_000_000;

/// Residual DP results a kernel keeps; the memo is cleared when it is full.
const MEMO_CAP: usize = 4_096;

/// Deterministic work counts of one [`ConfigCost`] kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Calls of [`ConfigCost::cost`].
    pub calls: u64,
    /// Calls whose residual DP result came from the memo.
    pub memo_hits: u64,
    /// Residual DP cells filled: dense table entries once per machine type,
    /// or Pareto states on the sparse path.
    pub dp_cells: u64,
}

/// The exact configuration-cost kernel of one machine catalog: the
/// catalog-derived constants of the reductions in the module docs, the
/// DP's scratch table and the residual memo, reused across calls.
///
/// ```
/// use bshm_core::lower_bound::ConfigCost;
/// use bshm_core::MachineType;
/// let mut kernel = ConfigCost::new(&[MachineType::new(4, 2), MachineType::new(16, 4)]);
/// // One big plus one small machine covers 20 units at rate 6.
/// assert_eq!(kernel.cost(&[20, 0]), 6);
/// assert_eq!(kernel.cost(&[20, 18]), 8);
/// ```
#[derive(Clone, Debug)]
pub struct ConfigCost {
    /// The machine types with capacities divided by `unit`.
    types: Vec<MachineType>,
    /// `G`, the gcd of all capacities.
    unit: u64,
    /// `(k, B_k)` in gcd units for `k = top` (with `B = 0`) and every
    /// `k < top` below which all types up to the top are dominated.
    slack: Vec<(usize, u64)>,
    /// Per-call normalised requirements `⌈E_i/G⌉`.
    need: Vec<u64>,
    /// The dense DP table.
    dp: Vec<Cost>,
    /// Residual requirement vector → residual DP result.
    memo: HashMap<Box<[u64]>, Cost>,
    /// Work done so far.
    work: KernelWork,
}

impl ConfigCost {
    /// The kernel for `types` (any order of rates; index order is the
    /// nesting order of the demand constraints).
    #[must_use]
    pub fn new(types: &[MachineType]) -> Self {
        let unit = types.iter().fold(0, |g, t| gcd(g, t.capacity)).max(1);
        let types: Vec<MachineType> = types
            .iter()
            .map(|t| MachineType::new(t.capacity / unit, t.rate))
            .collect();
        let mut slack = Vec::new();
        if let Some(top) = types.len().checked_sub(1) {
            slack.push((top, 0));
            let mut bound = 0u64;
            for i in (0..top).rev() {
                let Some(swap) = cheapest_swap(&types, i) else {
                    break;
                };
                bound = bound.saturating_add(swap);
                slack.push((i, bound));
            }
        }
        ConfigCost {
            types,
            unit,
            slack,
            need: Vec::new(),
            dp: Vec::new(),
            memo: HashMap::new(),
            work: KernelWork::default(),
        }
    }

    /// The work this kernel has done since it was built.
    #[must_use]
    pub fn work(&self) -> KernelWork {
        self.work
    }

    /// Exact minimum cost rate of a configuration covering the nested
    /// demands `demands[i] = D_{i+1}`. Returns 0 for all-zero demands.
    ///
    /// Panics if `demands.len()` differs from the number of types.
    pub fn cost(&mut self, demands: &[u64]) -> Cost {
        let m = self.types.len();
        assert_eq!(demands.len(), m, "one demand per machine type");
        self.work.calls += 1;
        self.need.clear();
        self.need.resize(m, 0);
        let mut run = 0;
        for (need, &d) in self.need.iter_mut().zip(demands).rev() {
            run = run.max(d.div_ceil(self.unit));
            *need = run;
        }
        if run == 0 {
            return 0;
        }
        let top = self.types[m - 1];
        let prebuy = self
            .slack
            .iter()
            .map(|&(k, bound)| self.need[k].saturating_sub(bound).div_ceil(top.capacity))
            .max()
            .unwrap_or(0);
        let covered = prebuy.saturating_mul(top.capacity);
        for need in &mut self.need {
            *need = need.saturating_sub(covered);
        }
        let residue = self.need[0];
        let rest = if residue == 0 {
            0
        } else if let Some(&rest) = self.memo.get(self.need.as_slice()) {
            self.work.memo_hits += 1;
            rest
        } else {
            let rest = match usize_from_u64(residue).filter(|&r| r <= DENSE_LIMIT) {
                Some(r) => self.fold_and_coin(r),
                None => {
                    let (rest, _, states) = solve(&self.need, &self.types);
                    self.work.dp_cells += states;
                    rest
                }
            };
            if self.memo.len() >= MEMO_CAP {
                self.memo.clear();
            }
            self.memo.insert(self.need.as_slice().into(), rest);
            rest
        };
        u128::from(prebuy) * u128::from(top.rate) + rest
    }

    /// The dense DP over outstanding requirements `0..=residue` (see the
    /// module docs): fold each constraint, then buy its type as an
    /// unbounded coin in one descending pass.
    fn fold_and_coin(&mut self, residue: usize) -> Cost {
        const INF: Cost = Cost::MAX;
        let n = residue + 1;
        self.work.dp_cells += count_u64(n.saturating_mul(self.types.len()));
        let dp = &mut self.dp;
        dp.clear();
        dp.resize(n, INF);
        dp[0] = 0;
        for (t, &need) in self.types.iter().zip(&self.need) {
            // need ≤ residue, which fits usize.
            let d = usize::try_from(need).unwrap_or(residue);
            if d > 0 {
                let best_low = dp[..=d].iter().copied().min().unwrap_or(INF);
                dp[..d].fill(INF);
                dp[d] = best_low;
            }
            // A capacity wider than the table saturates: one purchase then
            // covers any outstanding requirement, which saturating_sub
            // encodes.
            let g = usize::try_from(t.capacity).unwrap_or(usize::MAX);
            let r = u128::from(t.rate);
            for rem in (1..n).rev() {
                if dp[rem] == INF {
                    continue;
                }
                let target = rem.saturating_sub(g);
                let cost = dp[rem] + r;
                if cost < dp[target] {
                    dp[target] = cost;
                }
            }
        }
        dp[0]
    }
}

/// `(L_i − 1)·g_i = lcm(g_i, g_j) − g_i` for the dominator `j > i` of type
/// `i` with the smallest lcm, or `None` when no higher type dominates `i`.
fn cheapest_swap(types: &[MachineType], i: usize) -> Option<u64> {
    let low = types[i];
    types[i + 1..]
        .iter()
        .filter(|high| {
            u128::from(high.rate) * u128::from(low.capacity)
                <= u128::from(low.rate) * u128::from(high.capacity)
        })
        .map(|high| {
            (high.capacity / gcd(low.capacity, high.capacity))
                .saturating_mul(low.capacity)
                .saturating_sub(low.capacity)
        })
        .min()
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Exact minimum cost rate of a machine configuration covering nested
/// demands `demands[i] = D_{i+1}` with the given machine types
/// (sorted by capacity, rates arbitrary).
///
/// Returns 0 for all-zero demands. Panics if `demands.len() != types.len()`.
/// A one-shot [`ConfigCost`]; callers solving many demand vectors over
/// one catalog should keep the kernel instead.
#[must_use]
pub fn optimal_config_cost(demands: &[u64], types: &[MachineType]) -> Cost {
    ConfigCost::new(types).cost(demands)
}

/// Exact optimal configuration: `(cost rate, machine counts per type)`.
#[must_use]
pub fn optimal_config(demands: &[u64], types: &[MachineType]) -> (Cost, Vec<u64>) {
    let (cost, counts, _) = solve(demands, types);
    (cost, counts)
}

/// One Pareto state at a DP level.
#[derive(Clone, Copy, Debug)]
struct State {
    /// Capacity still required from the remaining (higher) types.
    remaining: u64,
    /// Cost of the purchases made so far.
    cost: Cost,
    /// Chosen machine count at the level that produced this state.
    bought: u64,
    /// Index into the previous level's frontier (for backtracking).
    parent: usize,
}

/// The sparse Pareto DP: `(cost, counts, frontier states kept)`.
fn solve(demands: &[u64], types: &[MachineType]) -> (Cost, Vec<u64>, u64) {
    let m = types.len();
    assert_eq!(demands.len(), m, "one demand per machine type");
    if demands.iter().all(|&d| d == 0) {
        return (0, vec![0; m], 0);
    }
    // Frontier per level, for backtracking.
    let mut levels: Vec<Vec<State>> = Vec::with_capacity(m + 1);
    levels.push(vec![State {
        remaining: 0,
        cost: 0,
        bought: 0,
        parent: usize::MAX,
    }]);

    for i in 0..m {
        let g = types[i].capacity;
        let r = u128::from(types[i].rate);
        let prev = &levels[i];
        // R' → best (cost, bought, parent).
        let mut next: BTreeMap<u64, State> = BTreeMap::new();
        for (pidx, st) in prev.iter().enumerate() {
            let need = st.remaining.max(demands[i]);
            let w_max = need.div_ceil(g);
            // The last level must finish: only the covering count works.
            let w_min = if i + 1 == m { w_max } else { 0 };
            for w in w_min..=w_max {
                let rem = need.saturating_sub(w * g);
                let cost = st.cost + u128::from(w) * r;
                let cand = State {
                    remaining: rem,
                    cost,
                    bought: w,
                    parent: pidx,
                };
                next.entry(rem)
                    .and_modify(|e| {
                        if cost < e.cost {
                            *e = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        // Pareto prune in remaining-ascending order (the BTreeMap key is
        // `remaining`, so into_values is already sorted); keep states whose
        // cost strictly decreases (larger remaining must be strictly cheaper).
        let states: Vec<State> = next.into_values().collect();
        let mut frontier: Vec<State> = Vec::with_capacity(states.len());
        for s in states {
            match frontier.last() {
                Some(last) if s.cost >= last.cost => {}
                _ => frontier.push(s),
            }
        }
        levels.push(frontier);
    }

    // Terminal states all have remaining == 0 (last level must cover).
    #[expect(
        clippy::expect_used,
        reason = "the top type is unbounded (paper §2), so some state reaches remaining == 0"
    )]
    let terminal = levels[m]
        .iter()
        .enumerate()
        .filter(|(_, s)| s.remaining == 0)
        .min_by_key(|(_, s)| s.cost)
        .map(|(i, s)| (i, *s))
        .expect("covering with the largest type is always feasible");

    // Backtrack counts.
    let mut counts = vec![0u64; m];
    let (mut idx, mut state) = terminal;
    let _ = idx;
    for i in (0..m).rev() {
        counts[i] = state.bought;
        idx = state.parent;
        state = levels[i][idx];
    }
    let states = levels.iter().map(|l| count_u64(l.len())).sum();
    (terminal.1.cost, counts, states)
}

/// LP relaxation of the per-time configuration problem, in closed form.
///
/// Each incremental demand band `D_i − D_{i+1}` is covered at the best
/// amortized rate available to it, `min_{k ≥ i} r_k/g_k`; capacity cascades
/// downward. Always ≤ [`optimal_config_cost`].
#[must_use]
pub fn lp_config_cost(demands: &[u64], types: &[MachineType]) -> f64 {
    let m = types.len();
    assert_eq!(demands.len(), m);
    // Best density from the top down.
    let mut best_density = vec![0f64; m];
    let mut best = f64::INFINITY;
    for i in (0..m).rev() {
        let d = types[i].rate as f64 / types[i].capacity as f64;
        best = best.min(d);
        best_density[i] = best;
    }
    let mut covered: u64 = 0;
    let mut total = 0f64;
    for i in (0..m).rev() {
        if demands[i] > covered {
            total += (demands[i] - covered) as f64 * best_density[i];
            covered = demands[i];
        }
    }
    total
}

/// The one segment sweep behind every integrated bound: calls
/// `visit(length, demands)` for each sweepline segment of `jobs` clipped
/// to the horizon `[0, until)`, in time order. Jobs arriving at or after
/// `until` are dropped and departures are clamped to `until`.
fn for_each_segment(
    jobs: &[Job],
    catalog: &Catalog,
    until: TimePoint,
    mut visit: impl FnMut(u64, &[u64]),
) {
    let dg = demand_grid_until(jobs, catalog, until);
    for (iv, row) in dg.segments() {
        visit(iv.len(), row);
    }
}

/// Full-sweep lower bound of `jobs` clipped to the horizon `[0, until)`:
/// jobs arriving at or after `until` are dropped, departures are clamped
/// to `until`. With `until` past every departure this is exactly
/// [`lower_bound`] of the instance.
#[must_use]
pub fn lower_bound_prefix(jobs: &[Job], catalog: &Catalog, until: TimePoint) -> Cost {
    let mut kernel = ConfigCost::new(catalog.types());
    let mut total: Cost = 0;
    for_each_segment(jobs, catalog, until, |len, row| {
        total += kernel.cost(row) * u128::from(len);
    });
    total
}

/// Integrates the exact per-time optimal configuration cost over the whole
/// instance: the right-hand side of inequality (1).
///
/// ```
/// use bshm_core::{Catalog, Instance, Job, MachineType, lower_bound};
/// let catalog = Catalog::new(vec![
///     MachineType::new(4, 1),
///     MachineType::new(16, 2),
/// ]).unwrap();
/// // A size-16 job must sit on the big machine for 10 ticks: LB = 20.
/// let inst = Instance::new(vec![Job::new(0, 16, 0, 10)], catalog).unwrap();
/// assert_eq!(lower_bound(&inst), 20);
/// ```
#[must_use]
pub fn lower_bound(instance: &Instance) -> Cost {
    lower_bound_prefix(instance.jobs(), instance.catalog(), TimePoint::MAX)
}

/// Integrates the LP relaxation instead; a valid (weaker) lower bound that
/// avoids the integer DP. Returned as `f64` because LP optima are rational.
#[must_use]
pub fn lp_lower_bound(instance: &Instance) -> f64 {
    let types = instance.catalog().types();
    let mut total = 0f64;
    for_each_segment(
        instance.jobs(),
        instance.catalog(),
        TimePoint::MAX,
        |len, row| total += lp_config_cost(row, types) * len as f64,
    );
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::machine::Catalog;

    fn mt(g: u64, r: u64) -> MachineType {
        MachineType::new(g, r)
    }

    #[test]
    fn single_type_is_ceiling() {
        let types = [mt(10, 3)];
        assert_eq!(optimal_config_cost(&[25], &types), 9); // 3 machines × 3
        assert_eq!(optimal_config_cost(&[0], &types), 0);
        assert_eq!(optimal_config_cost(&[10], &types), 3);
        assert_eq!(optimal_config_cost(&[11], &types), 6);
    }

    #[test]
    fn prefers_cheaper_covering_mix() {
        // DEC-ish: big machine is cheap per unit.
        let types = [mt(4, 2), mt(16, 4)];
        // D = [20, 0]: either 5 small (cost 10), 2 big (8), 1 big + 1 small (6).
        let (cost, counts) = optimal_config(&[20, 0], &types);
        assert_eq!(cost, 6);
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn respects_nested_constraint() {
        let types = [mt(4, 2), mt(16, 4)];
        // D = [20, 18]: constraint 2 forces ≥ 18 capacity from type 2 alone
        // → 2 big machines (cost 8) which also cover D_1 = 20? 2·16 = 32 ≥ 20 ✓.
        let (cost, counts) = optimal_config(&[20, 18], &types);
        assert_eq!(cost, 8);
        assert_eq!(counts, vec![0, 2]);
    }

    #[test]
    fn inc_case_prefers_small_machines() {
        // INC: small machine cheapest per unit.
        let types = [mt(4, 1), mt(16, 8)];
        // D = [16, 0]: 4 small (cost 4) beats 1 big (8).
        let (cost, counts) = optimal_config(&[16, 0], &types);
        assert_eq!(cost, 4);
        assert_eq!(counts, vec![4, 0]);
        // But demand that must sit on the big type uses it.
        let (cost, counts) = optimal_config(&[16, 5], &types);
        assert_eq!(cost, 8);
        assert_eq!(counts, vec![0, 1]);
    }

    #[test]
    fn three_level_mix() {
        let types = [mt(2, 1), mt(8, 3), mt(32, 10)];
        // D = [40, 10, 0]. Constraint 2 needs ≥10 from types ≥2.
        // Options: 2×t2 (6) covers 16; remaining for D_1: 40−16=24 via t1:
        // 12×1=12 → 18. Or t3 ×1 (10) + t2×1 (3) → covers 40 ✓ D_2: 8+32=40 ✓ cost 13.
        // Or t3×1 covers D_2 (32≥10) and D_1 needs 8 more: 4×t1 = 4 → 14.
        // Or 2×t2 (16) + t1×12 → 18. Or t2×5 = 15 covers 40 ✓ cost 15.
        // Or t3+t2: 13. Or t3×1 + t1×4: 14. Best 13.
        let (cost, _) = optimal_config(&[40, 10, 0], &types);
        assert_eq!(cost, 13);
        assert_eq!(optimal_config_cost(&[40, 10, 0], &types), 13);
    }

    #[test]
    fn counts_satisfy_constraints_and_match_cost() {
        let types = [mt(3, 2), mt(7, 3), mt(20, 9), mt(50, 17)];
        let demands = [83, 61, 40, 12];
        let (cost, counts) = optimal_config(&demands, &types);
        // Counts must cover nested constraints.
        for (i, &d) in demands.iter().enumerate() {
            let cap: u64 = (i..types.len())
                .map(|j| counts[j] * types[j].capacity)
                .sum();
            assert!(cap >= d, "constraint {i}: {cap} < {d}");
        }
        let recomputed: u128 = counts
            .iter()
            .zip(types.iter())
            .map(|(&w, t)| u128::from(w) * u128::from(t.rate))
            .sum();
        assert_eq!(recomputed, cost);
    }

    #[test]
    fn exact_matches_brute_force_on_small_cases() {
        // Brute force over all count vectors with small ranges.
        let types = [mt(3, 2), mt(5, 3), mt(11, 5)];
        for d1 in [0u64, 4, 9, 14, 23] {
            for d2 in [0u64, 3, 9, 14] {
                for d3 in [0u64, 2, 9] {
                    let demands = [d1.max(d2).max(d3), d2.max(d3), d3];
                    let dp = optimal_config_cost(&demands, &types);
                    let mut best = u128::MAX;
                    let lim = demands[0].div_ceil(3) + 1;
                    for w1 in 0..=lim {
                        for w2 in 0..=lim {
                            for w3 in 0..=lim {
                                let c3 = w3 * 11;
                                let c2 = c3 + w2 * 5;
                                let c1 = c2 + w1 * 3;
                                if c1 >= demands[0] && c2 >= demands[1] && c3 >= demands[2] {
                                    best = best.min(u128::from(w1 * 2 + w2 * 3 + w3 * 5));
                                }
                            }
                        }
                    }
                    assert_eq!(dp, best, "demands {demands:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_and_pareto_solvers_agree() {
        let types = [mt(3, 2), mt(7, 3), mt(20, 9), mt(50, 17)];
        let mut kernel = ConfigCost::new(&types);
        for seed in 0u64..60 {
            // Deterministic pseudo-random nested demands.
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d4 = x % 40;
            let d3 = d4 + (x >> 8) % 60;
            let d2 = d3 + (x >> 16) % 80;
            let d1 = d2 + (x >> 24) % 100;
            let demands = [d1, d2, d3, d4];
            let pareto = solve(&demands, &types).0;
            assert_eq!(kernel.cost(&demands), pareto, "demands {demands:?}");
        }
    }

    #[test]
    fn reductions_come_from_the_catalog() {
        // gcd 4; every type dominated by the next (amortized 1/4, 1/8, 1/16).
        let kernel = ConfigCost::new(&[mt(4, 1), mt(16, 2), mt(64, 4)]);
        assert_eq!(kernel.unit, 4);
        // Normalised caps 1, 4, 16: swaps cost lcm − g = 3 and 12.
        assert_eq!(kernel.slack, vec![(2, 0), (1, 12), (0, 15)]);
        // INC: nothing below the top is dominated.
        let kernel = ConfigCost::new(&[mt(4, 1), mt(8, 4)]);
        assert_eq!(kernel.slack, vec![(1, 0)]);
    }

    #[test]
    fn dominated_catalogs_keep_a_small_table() {
        let types = [mt(4, 1), mt(16, 2), mt(64, 4)];
        let mut kernel = ConfigCost::new(&types);
        // Normalised [1005, 400, 90]: 62 top machines are forced, 13 units remain.
        let demands = [4_020, 1_600, 360];
        assert_eq!(kernel.cost(&demands), solve(&demands, &types).0);
        assert_eq!(kernel.dp.len(), 14);
    }

    #[test]
    fn lp_never_exceeds_exact() {
        let types = [mt(3, 2), mt(5, 3), mt(11, 5)];
        for d1 in [1u64, 7, 12, 30] {
            for d2 in [0u64, 5, 12] {
                let demands = [d1.max(d2), d2, 0];
                let exact = optimal_config_cost(&demands, &types) as f64;
                let lp = lp_config_cost(&demands, &types);
                assert!(lp <= exact + 1e-9, "lp {lp} > exact {exact}");
            }
        }
    }

    #[test]
    fn lower_bound_integrates_over_time() {
        let catalog = Catalog::new(vec![mt(4, 1), mt(16, 2)]).unwrap();
        // One size-16 job on [0,10): needs a big machine → rate 2, cost 20.
        let inst = Instance::new(vec![Job::new(0, 16, 0, 10)], catalog.clone()).unwrap();
        assert_eq!(lower_bound(&inst), 20);
        // Add a small job on [5,15): on [5,10) the big machine covers both
        // (16 ≥ 17? no — 16+1 = 17 > 16, so D_1 = 17 needs extra small: rate 3).
        let inst2 =
            Instance::new(vec![Job::new(0, 16, 0, 10), Job::new(1, 1, 5, 15)], catalog).unwrap();
        // [0,5): rate 2; [5,10): D=[17,16] → 1 big + 1 small = 3; [10,15): D=[1,0] → 1.
        assert_eq!(lower_bound(&inst2), 2 * 5 + 3 * 5 + 5);
    }

    #[test]
    fn lp_lower_bound_below_exact_lower_bound() {
        let catalog = Catalog::new(vec![mt(4, 1), mt(16, 2)]).unwrap();
        let inst = Instance::new(
            vec![
                Job::new(0, 16, 0, 10),
                Job::new(1, 1, 5, 15),
                Job::new(2, 3, 2, 20),
            ],
            catalog,
        )
        .unwrap();
        assert!(lp_lower_bound(&inst) <= lower_bound(&inst) as f64 + 1e-9);
    }
}
