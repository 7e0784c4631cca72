//! Differential tests of the §II configuration-cost kernel
//! (`bshm_core::lower_bound::ConfigCost`).
//!
//! The kernel shrinks the dense DP with three exact reductions (gcd
//! normalisation, forced top purchases, the dominance bound). Here it is
//! checked against three independent oracles: the plain dense DP over the
//! raw demands, the sparse Pareto solver behind `optimal_config`, and brute
//! force over machine counts on small cases. Catalogs cover the named
//! families, random DEC and random general catalogs, single types, equal
//! amortized rates and coprime capacities; demands cover all-zero,
//! capacity-exact and beyond-16M vectors. A long-lived kernel per catalog
//! also runs a stream built to hit its residual memo, and must answer every
//! call as a fresh kernel does.

use bshm::core::lower_bound::{lp_config_cost, optimal_config, optimal_config_cost, ConfigCost};
use bshm::core::{Cost, MachineType};
use bshm::workload::catalogs::{
    dec_geometric, ec2_like_dec, ec2_like_inc, inc_geometric, random_catalog, random_dec_catalog,
    sawtooth,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The plain dense DP over the raw demands: `dp[R]` = cheapest cost with
/// outstanding requirement `R`. Folding constraint `i` merges every
/// `R < D_i` into `D_i`; buying type `i` is an unbounded coin.
fn dense_oracle(demands: &[u64], types: &[MachineType]) -> Cost {
    let n = usize::try_from(demands.iter().copied().max().unwrap_or(0)).unwrap() + 1;
    let mut dp = vec![Cost::MAX; n];
    dp[0] = 0;
    for (t, &d) in types.iter().zip(demands) {
        let d = usize::try_from(d).unwrap();
        if d > 0 {
            let best_low = dp[..=d].iter().copied().min().unwrap();
            dp[..d].fill(Cost::MAX);
            dp[d] = best_low;
        }
        let g = usize::try_from(t.capacity).unwrap();
        for rem in (1..n).rev() {
            if dp[rem] == Cost::MAX {
                continue;
            }
            let target = rem.saturating_sub(g);
            dp[target] = dp[target].min(dp[rem] + u128::from(t.rate));
        }
    }
    dp[0]
}

/// Brute force over machine counts, top type first. An optimum never buys
/// more than `⌈max D / g_i⌉` machines of type `i`.
fn brute_force(demands: &[u64], types: &[MachineType]) -> Cost {
    fn go(i: usize, suffix: u64, cost: Cost, demands: &[u64], types: &[MachineType]) -> Cost {
        let Some(t) = i.checked_sub(1).map(|i| types[i]) else {
            return cost;
        };
        let i = i - 1;
        let top = demands.iter().copied().max().unwrap();
        (0..=top.div_ceil(t.capacity))
            .filter_map(|w| {
                let s = suffix + w * t.capacity;
                (s >= demands[i]).then(|| {
                    go(
                        i,
                        s,
                        cost + u128::from(w) * u128::from(t.rate),
                        demands,
                        types,
                    )
                })
            })
            .min()
            .unwrap_or(Cost::MAX)
    }
    go(types.len(), 0, 0, demands, types)
}

/// Brute-force search space size, to keep it for small cases only.
fn brute_force_space(demands: &[u64], types: &[MachineType]) -> u64 {
    let top = demands.iter().copied().max().unwrap_or(0);
    types
        .iter()
        .map(|t| top.div_ceil(t.capacity) + 1)
        .fold(1u64, |a, b| a.saturating_mul(b))
}

/// Checks the kernel (a reused one and a fresh one) against every oracle
/// that is affordable for this case. Returns the agreed cost.
fn agree(kernel: &mut ConfigCost, demands: &[u64], types: &[MachineType]) -> Cost {
    let got = kernel.cost(demands);
    assert_eq!(
        got,
        optimal_config_cost(demands, types),
        "{types:?} {demands:?}"
    );
    let top = demands.iter().copied().max().unwrap_or(0);
    if top <= 200_000 {
        assert_eq!(
            got,
            dense_oracle(demands, types),
            "dense: {types:?} {demands:?}"
        );
    }
    if top / types[0].capacity <= 400 {
        let (cost, counts) = optimal_config(demands, types);
        assert_eq!(got, cost, "pareto: {types:?} {demands:?}");
        assert_eq!(counts.len(), types.len());
    }
    if brute_force_space(demands, types) <= 50_000 {
        assert_eq!(
            got,
            brute_force(demands, types),
            "brute: {types:?} {demands:?}"
        );
    }
    let lp = lp_config_cost(demands, types);
    assert!(
        lp <= got as f64 * (1.0 + 1e-12),
        "lp {lp} > {got}: {demands:?}"
    );
    got
}

/// Nested demands `D_0 ≥ … ≥ D_{m−1}` with `D_0` up to `scale`; every
/// fifth vector is left un-nested, which the kernel folds to suffix maxima.
fn random_demands(rng: &mut StdRng, m: usize, scale: u64) -> Vec<u64> {
    let mut d: Vec<u64> = (0..m).map(|_| rng.gen_range(0..=scale)).collect();
    if rng.gen_range(0..5u32) != 0 {
        d.sort_unstable_by(|a, b| b.cmp(a));
        // Thin the upper constraints so the top type is not always forced.
        for (i, x) in d.iter_mut().enumerate().skip(1) {
            *x /= 1 + u64::try_from(i).unwrap() * rng.gen_range(0..=3u64);
        }
        d.sort_unstable_by(|a, b| b.cmp(a));
    }
    d
}

/// Demands that some configuration covers with no slack:
/// `D_i = Σ_{j≥i} c_j·g_j`.
fn capacity_exact(rng: &mut StdRng, types: &[MachineType]) -> Vec<u64> {
    let mut suffix = 0;
    let mut d = vec![0; types.len()];
    for (i, t) in types.iter().enumerate().rev() {
        suffix += rng.gen_range(0..=4u64) * t.capacity;
        d[i] = suffix;
    }
    d
}

fn exercise(types: &[MachineType], rng: &mut StdRng, cases: usize) {
    let mut kernel = ConfigCost::new(types);
    let m = types.len();
    assert_eq!(agree(&mut kernel, &vec![0; m], types), 0);
    let top = types[m - 1].capacity;
    for case in 0..cases {
        let scale = [top / 2 + 1, 3 * top, 25 * top][case % 3];
        let demands = random_demands(rng, m, scale);
        agree(&mut kernel, &demands, types);
        let exact = capacity_exact(rng, types);
        agree(&mut kernel, &exact, types);
        // One unit over an exact cover forces one more purchase somewhere.
        let mut over = exact.clone();
        over[0] += 1;
        assert!(agree(&mut kernel, &over, types) >= agree(&mut kernel, &exact, types));
    }
}

fn types_of(catalog: &bshm::core::Catalog) -> Vec<MachineType> {
    catalog.types().to_vec()
}

#[test]
fn named_catalogs_agree_with_every_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for catalog in [
        dec_geometric(4, 4),
        dec_geometric(3, 1),
        inc_geometric(4, 4),
        inc_geometric(3, 3),
        sawtooth(4, 4),
        sawtooth(3, 1),
        ec2_like_dec(),
    ] {
        exercise(&types_of(&catalog), &mut rng, 60);
    }
}

#[test]
fn random_dec_catalogs_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    for m in 1..=4 {
        for base in [1, 2, 3, 6] {
            let catalog = random_dec_catalog(&mut rng, m, base);
            exercise(&types_of(&catalog), &mut rng, 12);
        }
    }
}

#[test]
fn random_general_catalogs_agree() {
    let mut rng = StdRng::seed_from_u64(11);
    for m in 1..=4 {
        for base in [1, 2, 5] {
            let catalog = random_catalog(&mut rng, m, base);
            exercise(&types_of(&catalog), &mut rng, 12);
        }
    }
    // Rates in any order, not only increasing: strictly increasing
    // capacities with rates drawn independently.
    for _ in 0..40 {
        let m = rng.gen_range(1..=4usize);
        let mut g = 0;
        let types: Vec<MachineType> = (0..m)
            .map(|_| {
                g += rng.gen_range(1..=12u64);
                MachineType::new(g, rng.gen_range(1..=20))
            })
            .collect();
        exercise(&types, &mut rng, 6);
    }
}

#[test]
fn single_type_catalogs_are_a_ceiling() {
    let mut rng = StdRng::seed_from_u64(3);
    for (g, r) in [(1, 1), (4, 3), (7, 2), (64, 9)] {
        let types = [MachineType::new(g, r)];
        let mut kernel = ConfigCost::new(&types);
        for _ in 0..40 {
            let d = rng.gen_range(0..=40 * g);
            assert_eq!(
                agree(&mut kernel, &[d], &types),
                u128::from(d.div_ceil(g) * r)
            );
        }
        let big = 20_000_000 * g + 1;
        assert_eq!(kernel.cost(&[big]), u128::from(big.div_ceil(g) * r));
    }
}

#[test]
fn equal_amortized_rates_tie_without_changing_the_cost() {
    let mut rng = StdRng::seed_from_u64(5);
    for types in [
        vec![
            MachineType::new(2, 1),
            MachineType::new(4, 2),
            MachineType::new(8, 4),
            MachineType::new(16, 8),
        ],
        vec![
            MachineType::new(3, 2),
            MachineType::new(6, 4),
            MachineType::new(12, 8),
        ],
        // Ties mixed with a strictly cheaper top.
        vec![
            MachineType::new(2, 2),
            MachineType::new(6, 6),
            MachineType::new(10, 9),
        ],
    ] {
        exercise(&types, &mut rng, 40);
    }
}

#[test]
fn coprime_capacities_agree() {
    let mut rng = StdRng::seed_from_u64(13);
    for types in [
        vec![
            MachineType::new(3, 2),
            MachineType::new(5, 3),
            MachineType::new(7, 4),
            MachineType::new(11, 5),
        ],
        vec![MachineType::new(2, 3), MachineType::new(9, 10)],
        vec![
            MachineType::new(5, 4),
            MachineType::new(7, 3),
            MachineType::new(13, 9),
        ],
    ] {
        exercise(&types, &mut rng, 40);
    }
}

#[test]
fn demands_beyond_sixteen_million_stay_exact() {
    let mut rng = StdRng::seed_from_u64(17);
    // Large gcd: normalisation alone shrinks the table.
    let scaled = [
        MachineType::new(4_000_000, 1),
        MachineType::new(16_000_000, 2),
        MachineType::new(64_000_000, 4),
    ];
    // Coprime and undominated: the residue stays above the dense limit,
    // so the kernel takes its sparse fallback.
    let coprime = [
        MachineType::new(1_000_003, 1),
        MachineType::new(3_000_017, 5),
    ];
    for types in [&scaled[..], &coprime[..]] {
        let mut kernel = ConfigCost::new(types);
        for _ in 0..20 {
            let d0 = rng.gen_range(16_000_001..=90_000_000u64);
            let mut demands = vec![d0; types.len()];
            for d in demands.iter_mut().skip(1) {
                *d = rng.gen_range(0..=d0);
            }
            demands.sort_unstable_by(|a, b| b.cmp(a));
            agree(&mut kernel, &demands, types);
        }
    }
    // Dominated catalog at unit gcd: the dominance bound leaves a tiny
    // table. Capacity-exact at the top, the cost equals the LP bound.
    let types = types_of(&dec_geometric(4, 1));
    let mut kernel = ConfigCost::new(&types);
    for k in [250_000u64, 1_000_001, 4_000_000] {
        let d0 = k * 64;
        let demands = [d0, d0, d0 / 2, 0];
        let got = kernel.cost(&demands);
        assert_eq!(got, u128::from(k * 8));
        assert_eq!(got as f64, lp_config_cost(&demands, &types));
        // Every unit more costs at most one smallest machine.
        let mut over = demands;
        over[0] += 1;
        assert_eq!(kernel.cost(&over), got + 1);
    }
}

/// `⌈d/G⌉` for the gcd `G` of the capacities.
fn unit(types: &[MachineType]) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    types.iter().fold(0, |g, t| gcd(g, t.capacity))
}

/// A variant of `d` with different raw entries but the same residual
/// vector after the kernel's normalisation and prebuy, or `None` when the
/// chosen route leaves `d` unchanged.
fn same_residual(rng: &mut StdRng, d: &[u64], types: &[MachineType]) -> Option<Vec<u64>> {
    let mut v = d.to_vec();
    match rng.gen_range(0..3u32) {
        // Every requirement grows by whole top machines: the prebuy grows
        // by the same count and the residue is unchanged.
        0 => {
            let k = rng.gen_range(1..=3u64) * types[types.len() - 1].capacity;
            v.iter_mut().for_each(|x| *x += k);
        }
        // Rounding within one gcd unit keeps every `⌈D_i/G⌉`.
        1 => {
            let g = unit(types);
            for x in v.iter_mut().filter(|x| **x > 0) {
                *x = (x.div_ceil(g) - 1) * g + rng.gen_range(1..=g);
            }
        }
        // Un-nesting: a constraint no larger than a later one folds to the
        // same suffix maximum whatever its value below that maximum.
        _ => {
            for i in 0..v.len() - 1 {
                let later = v[i + 1..].iter().copied().max().unwrap();
                if v[i] <= later {
                    v[i] = rng.gen_range(0..=later);
                }
            }
        }
    }
    (v != d).then_some(v)
}

/// Runs one long-lived kernel over a seeded stream of fresh vectors,
/// exact repeats, same-residual variants and all-zero rows (`huge` draws
/// the fresh vectors beyond the dense limit). Every answer must equal a
/// fresh kernel's and the dense oracle's (the Pareto solver's where the
/// dense table would not fit). Returns the kernel's memo hits.
fn memo_stream(types: &[MachineType], rng: &mut StdRng, len: usize, huge: bool) -> u64 {
    let mut kernel = ConfigCost::new(types);
    let m = types.len();
    let top = types[m - 1];
    let mut history: Vec<(Vec<u64>, Cost)> = Vec::new();
    for _ in 0..len {
        let demands = match (rng.gen_range(0..8u32), history.is_empty()) {
            (0, _) => vec![0; m],
            (1..=2, false) => history[rng.gen_range(0..history.len())].0.clone(),
            (3..=4, false) => {
                let (d, _) = &history[rng.gen_range(0..history.len())];
                same_residual(rng, d, types).unwrap_or_else(|| d.clone())
            }
            _ if huge => {
                let d0 = rng.gen_range(16_000_001..=90_000_000u64);
                let mut d: Vec<u64> = (0..m).map(|_| rng.gen_range(0..=d0)).collect();
                d[0] = d0;
                d.sort_unstable_by(|a, b| b.cmp(a));
                d
            }
            _ if rng.gen_range(0..2u32) == 0 => capacity_exact(rng, types),
            _ => {
                let scale = [top.capacity / 2 + 1, 3 * top.capacity][rng.gen_range(0..2)];
                random_demands(rng, m, scale)
            }
        };
        let got = kernel.cost(&demands);
        assert_eq!(
            got,
            optimal_config_cost(&demands, types),
            "fresh: {types:?} {demands:?}"
        );
        let max = demands.iter().copied().max().unwrap_or(0);
        let oracle = if max <= 200_000 {
            dense_oracle(&demands, types)
        } else {
            optimal_config(&demands, types).0
        };
        assert_eq!(got, oracle, "oracle: {types:?} {demands:?}");
        history.push((demands, got));
    }
    // The top-machine shift changes the answer by exactly the bought
    // machines even though the residual, and so the memo entry, is shared
    // (the stream is shorter than the memo's cap, so nothing was evicted).
    for (d, cost) in history.iter().take(40) {
        let k = rng.gen_range(1..=3u64);
        let shifted: Vec<u64> = d.iter().map(|x| x + k * top.capacity).collect();
        let want = cost + u128::from(k * top.rate);
        let cells = kernel.work().dp_cells;
        assert_eq!(
            kernel.cost(&shifted),
            want,
            "shift: {types:?} {d:?} +{k}·top"
        );
        assert_eq!(want, optimal_config_cost(&shifted, types));
        // `d` already stored this residual, so the DP must not run again.
        assert_eq!(kernel.work().dp_cells, cells, "shift reran the DP: {d:?}");
    }
    kernel.work().memo_hits
}

#[test]
fn the_residual_memo_answers_as_a_fresh_kernel() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut catalogs = vec![
        dec_geometric(4, 4),
        dec_geometric(3, 1),
        inc_geometric(4, 4),
        inc_geometric(3, 3),
        sawtooth(4, 4),
        sawtooth(3, 1),
        ec2_like_dec(),
        ec2_like_inc(),
    ];
    for m in 1..=4 {
        catalogs.push(random_dec_catalog(&mut rng, m, 2));
        catalogs.push(random_catalog(&mut rng, m, 3));
    }
    for catalog in &catalogs {
        let hits = memo_stream(catalog.types(), &mut rng, 300, false);
        // One type: the prebuy covers everything and no residue is left.
        assert!(
            hits > 0 || catalog.len() == 1,
            "{catalog:?}: the stream never hit the memo"
        );
    }
    // Residues beyond the dense limit take the Pareto path through the memo.
    let coprime = [
        MachineType::new(1_000_003, 1),
        MachineType::new(3_000_017, 5),
    ];
    assert!(memo_stream(&coprime, &mut rng, 60, true) > 0);
}
