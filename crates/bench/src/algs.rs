//! The experiment grids' schedulers: every registered algorithm plus the
//! parameterized ablation variants.

use bshm_algos::baseline::{NextFit, OneMachinePerJob, RandomFit};
use bshm_algos::{dec_offline, general_offline, inc_offline, registry, DecOnline};
use bshm_chart::placement::PlacementOrder;
use bshm_core::cost::{schedule_cost, Cost};
use bshm_core::instance::Instance;
use bshm_core::schedule::Schedule;
use bshm_core::validate::validate_schedule;
use bshm_obs::NoProbe;
use bshm_sim::{run_online, OnlineScheduler};

/// Every scheduler the harness can run, offline and online.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alg {
    /// DEC-OFFLINE (§III-A) with a placement order.
    DecOffline(PlacementOrder),
    /// DEC-OFFLINE with a non-default bottom-strip depth (ablation A6).
    DecOfflineDepth(u64),
    /// INC-OFFLINE (§IV).
    IncOffline(PlacementOrder),
    /// GENERAL-OFFLINE (§V).
    GeneralOffline(PlacementOrder),
    /// DEC-ONLINE (§III-B).
    DecOnline,
    /// DEC-ONLINE without Group B (ablation A2).
    DecOnlineNoGroupB,
    /// INC-ONLINE (§IV).
    IncOnline,
    /// GENERAL-ONLINE (§V).
    GeneralOnline,
    /// Baseline: greedy First-Fit over all open machines.
    FirstFitAny,
    /// Baseline: Best-Fit over all open machines.
    BestFit,
    /// Baseline: homogeneous fleet of the largest type.
    SingleTypeLargest,
    /// Baseline: a dedicated machine per job.
    OneMachinePerJob,
    /// Baseline: Next-Fit (only the newest machine is reused).
    NextFit,
    /// Baseline: Random-Fit with a fixed seed.
    RandomFit,
    /// Size-class partition + per-class First-Fit-Decreasing (offline).
    PartitionedFfd,
    /// Clairvoyant duration-class First Fit (departures known at arrival).
    ClairvoyantDcff,
}

impl Alg {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Alg::DecOffline(_) => "dec-offline",
            Alg::DecOfflineDepth(_) => "dec-offline(depth)",
            Alg::IncOffline(_) => "inc-offline",
            Alg::GeneralOffline(_) => "gen-offline",
            Alg::DecOnline => "dec-online",
            Alg::DecOnlineNoGroupB => "dec-online(noB)",
            Alg::IncOnline => "inc-online",
            Alg::GeneralOnline => "gen-online",
            Alg::FirstFitAny => "first-fit-any",
            Alg::BestFit => "best-fit",
            Alg::SingleTypeLargest => "single-type",
            Alg::OneMachinePerJob => "one-per-job",
            Alg::NextFit => "next-fit",
            Alg::RandomFit => "random-fit",
            Alg::PartitionedFfd => "part-ffd",
            Alg::ClairvoyantDcff => "clairvoyant",
        }
    }

    /// Runs the scheduler on an instance. Variants that match a
    /// registered name run through [`bshm_algos::registry`]; the ablation
    /// variants build their parameterized schedulers here.
    #[must_use]
    pub fn run(&self, instance: &Instance) -> Schedule {
        let online = |mut s: &mut dyn OnlineScheduler| {
            run_online(instance, &mut s).expect("baseline never overloads")
        };
        match self {
            Alg::DecOffline(o) => dec_offline(instance, *o),
            Alg::DecOfflineDepth(d) => {
                bshm_algos::dec_offline_with_depth(instance, PlacementOrder::Arrival, *d)
            }
            Alg::IncOffline(o) => inc_offline(instance, *o),
            Alg::GeneralOffline(o) => general_offline(instance, *o),
            Alg::DecOnlineNoGroupB => online(&mut DecOnline::without_group_b(instance.catalog())),
            Alg::OneMachinePerJob => online(&mut OneMachinePerJob),
            Alg::NextFit => online(&mut NextFit::default()),
            Alg::RandomFit => online(&mut RandomFit::new(12345)),
            Alg::DecOnline
            | Alg::IncOnline
            | Alg::GeneralOnline
            | Alg::FirstFitAny
            | Alg::BestFit
            | Alg::SingleTypeLargest
            | Alg::PartitionedFfd
            | Alg::ClairvoyantDcff => registry::run_traced(self.name(), instance, &mut NoProbe)
                .unwrap_or_else(|e| panic!("{}: {e}", self.name())),
        }
    }
}

/// The outcome of one (algorithm, instance) cell.
#[derive(Clone, Copy, Debug)]
pub struct Eval {
    /// Schedule cost.
    pub cost: Cost,
    /// The paper's lower bound for the instance.
    pub lb: Cost,
    /// `cost / lb` (∞ when the bound is 0, which cannot happen for
    /// non-empty instances).
    pub ratio: f64,
    /// Machines that hosted at least one job.
    pub machines: usize,
}

/// Runs and evaluates; panics if the schedule is infeasible (harness
/// results must never be built from invalid schedules).
#[must_use]
pub fn evaluate(alg: Alg, instance: &Instance, lb: Cost) -> Eval {
    let schedule = alg.run(instance);
    if let Err(e) = validate_schedule(&schedule, instance) {
        panic!("{} produced an infeasible schedule: {e}", alg.name());
    }
    let cost = schedule_cost(&schedule, instance);
    Eval {
        cost,
        lb,
        ratio: cost as f64 / lb as f64,
        machines: schedule.used_machine_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bshm_core::lower_bound::lower_bound;
    use bshm_workload::catalogs::dec_geometric;
    use bshm_workload::{ArrivalProcess, DurationLaw, SizeLaw, WorkloadSpec};

    #[test]
    fn every_alg_runs_and_validates() {
        let inst = WorkloadSpec {
            n: 80,
            seed: 1,
            arrivals: ArrivalProcess::Poisson { mean_gap: 4.0 },
            durations: DurationLaw::Uniform { min: 10, max: 40 },
            sizes: SizeLaw::Uniform { min: 1, max: 64 },
        }
        .generate(dec_geometric(3, 4));
        let lb = lower_bound(&inst);
        for alg in [
            Alg::DecOffline(PlacementOrder::Arrival),
            Alg::IncOffline(PlacementOrder::Arrival),
            Alg::GeneralOffline(PlacementOrder::Arrival),
            Alg::DecOnline,
            Alg::DecOnlineNoGroupB,
            Alg::IncOnline,
            Alg::GeneralOnline,
            Alg::FirstFitAny,
            Alg::BestFit,
            Alg::SingleTypeLargest,
            Alg::OneMachinePerJob,
            Alg::NextFit,
            Alg::RandomFit,
            Alg::PartitionedFfd,
            Alg::ClairvoyantDcff,
            Alg::DecOfflineDepth(4),
        ] {
            let e = evaluate(alg, &inst, lb);
            assert!(e.ratio >= 1.0 - 1e-9, "{}: ratio {}", alg.name(), e.ratio);
            assert!(e.machines >= 1);
        }
    }
}
