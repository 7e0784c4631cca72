//! The algorithm registry: one entry per name that `bshm solve --alg`,
//! `bshm xray`, the baseline suite and the service's `ADMIT` accept, plus
//! the three ways to run an entry. Offline entries take a
//! [`DecisionLog`]; plain runs pass [`DecisionLog::disabled`], as the
//! unlogged entry points ([`crate::dec_offline`] and friends) do.

use crate::baseline::{BestFit, FirstFitAny, SingleType};
use crate::{
    auto_offline_logged, dec_offline_logged, general_offline_logged, inc_offline_logged,
    partitioned_ffd_logged, DecOnline, DurationClassFirstFit, GeneralOnline, IncOnline,
};
use bshm_chart::placement::PlacementOrder::Arrival;
use bshm_core::instance::Instance;
use bshm_core::ops::{DecisionLog, OpCounter};
use bshm_core::schedule::Schedule;
use bshm_obs::{replay, Probe};
use bshm_sim::{
    run_clairvoyant_logged, run_online_probed, run_online_xray, OnlineScheduler, ScriptScheduler,
    SimError,
};
use Kind::{Offline, Online};

/// How a registered algorithm runs.
#[derive(Clone, Copy)]
enum Kind {
    /// A non-clairvoyant policy, built fresh for each run.
    Online(fn(&Instance) -> Box<dyn OnlineScheduler>),
    /// A solver that sees the whole instance (offline, or clairvoyant)
    /// and charges each job's placement work to the log.
    Offline(fn(&Instance, &mut DecisionLog) -> Result<Schedule, SimError>),
}

/// Every registered algorithm, one entry per name.
#[rustfmt::skip]
static ALGORITHMS: [(&str, Kind); 12] = [
    ("auto", Offline(|i, log| Ok(auto_offline_logged(i, Arrival, log)))),
    ("dec-offline", Offline(|i, log| Ok(dec_offline_logged(i, Arrival, log)))),
    ("inc-offline", Offline(|i, log| Ok(inc_offline_logged(i, Arrival, log)))),
    ("gen-offline", Offline(|i, log| Ok(general_offline_logged(i, Arrival, log)))),
    ("part-ffd", Offline(|i, log| Ok(partitioned_ffd_logged(i, log)))),
    ("dec-online", Online(|i| Box::new(DecOnline::new(i.catalog())))),
    ("inc-online", Online(|i| Box::new(IncOnline::new(i.catalog())))),
    ("gen-online", Online(|i| Box::new(GeneralOnline::new(i.catalog())))),
    ("clairvoyant", Offline(|i, log| {
        run_clairvoyant_logged(i, &mut DurationClassFirstFit::new(i.stats().min_duration), log)
    })),
    ("first-fit-any", Online(|_| Box::new(FirstFitAny::default()))),
    ("best-fit", Online(|_| Box::new(BestFit::default()))),
    ("single-type", Online(|_| Box::new(SingleType::largest()))),
];

/// The registered names, in the order `bshm algs` lists them and the
/// baseline suite measures them.
pub fn names() -> impl ExactSizeIterator<Item = &'static str> {
    ALGORITHMS.iter().map(|&(name, _)| name)
}

/// How `name` runs.
///
/// # Errors
/// An unknown name; the message lists every registered one.
fn lookup(name: &str) -> Result<Kind, String> {
    match ALGORITHMS.iter().find(|&&(n, _)| n == name) {
        Some(&(_, kind)) => Ok(kind),
        None => Err(format!(
            "unknown algorithm {name:?}; known: {}",
            names().collect::<Vec<_>>().join(", ")
        )),
    }
}

/// Runs `name` over `instance`, reporting trace events into `probe`.
/// Online policies run under the probed driver, so placements carry live
/// decision latencies; offline schedules are traced post hoc with
/// [`replay::synthesize`] (`decision_ns` = 0).
///
/// # Errors
/// An unknown name, or a policy that overloaded a machine.
pub fn run_traced(
    name: &str,
    instance: &Instance,
    probe: &mut dyn Probe,
) -> Result<Schedule, String> {
    match lookup(name)? {
        Online(build) => run_online_probed(instance, &mut build(instance).as_mut(), probe)
            .map_err(|e| e.to_string()),
        Offline(solve) => {
            let schedule =
                solve(instance, &mut DecisionLog::disabled()).map_err(|e| e.to_string())?;
            replay::synthesize(&schedule, instance, probe);
            Ok(schedule)
        }
    }
}

/// Runs `name` under the decision x-ray: the regular event stream plus
/// one [`bshm_obs::TraceEvent::Decision`] per placement, and the run's
/// deterministic op totals. Online policies run under
/// [`run_online_xray`]; offline solvers fill a [`DecisionLog`] that
/// [`replay::synthesize_xray`] interleaves into the synthesized stream.
///
/// # Errors
/// An unknown name, or a policy that overloaded a machine.
pub fn run_xray(
    name: &str,
    instance: &Instance,
    probe: &mut dyn Probe,
) -> Result<(Schedule, OpCounter), String> {
    match lookup(name)? {
        Online(build) => run_online_xray(instance, &mut build(instance).as_mut(), probe)
            .map_err(|e| e.to_string()),
        Offline(solve) => {
            let mut log = DecisionLog::new();
            let schedule = solve(instance, &mut log).map_err(|e| e.to_string())?;
            // Fold before synthesis: synthesize_xray drains the traces.
            let totals = log.totals();
            replay::synthesize_xray(&schedule, instance, &mut log, probe);
            Ok((schedule, totals))
        }
    }
}

/// Builds an [`OnlineScheduler`] for `name`, so every algorithm runs under
/// faults, checkpoints and the resident service: online policies directly,
/// offline schedules replayed through a [`ScriptScheduler`].
///
/// # Errors
/// An unknown name, or an offline solver that failed.
pub fn online_or_scripted(
    name: &str,
    instance: &Instance,
) -> Result<Box<dyn OnlineScheduler>, String> {
    match lookup(name)? {
        Online(build) => Ok(build(instance)),
        Offline(solve) => {
            let schedule =
                solve(instance, &mut DecisionLog::disabled()).map_err(|e| e.to_string())?;
            Ok(Box::new(ScriptScheduler::new(&schedule)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_list_the_registry() {
        let mut unique: Vec<_> = names().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ALGORITHMS.len());
        let err = lookup("one-per-job").err().unwrap();
        assert!(
            err.starts_with("unknown algorithm \"one-per-job\""),
            "{err}"
        );
        assert!(names().all(|name| err.contains(name)), "{err}");
    }
}
