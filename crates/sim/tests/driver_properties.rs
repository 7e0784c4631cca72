//! Property tests for the event drivers and machine pool.

use bshm_core::analysis::machine_timeline;
use bshm_core::cost::schedule_cost;
use bshm_core::instance::Instance;
use bshm_core::job::{Job, JobId};
use bshm_core::machine::{Catalog, MachineType};
use bshm_core::schedule::MachineId;
use bshm_core::validate::validate_schedule;
use bshm_obs::{replay, Collector, TraceEvent};
use bshm_sim::clairvoyant::{run_clairvoyant, ClairvoyantScheduler, ClairvoyantView};
use bshm_sim::driver::{run_online, run_online_probed, ArrivalView, OnlineScheduler};
use bshm_sim::pool::MachinePool;
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = Instance> {
    prop::collection::vec((1u64..=16, 0u64..200, 1u64..=60), 1..60).prop_map(|raw| {
        let jobs: Vec<Job> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (size, arr, dur))| Job::new(i as u32, size, arr, arr + dur))
            .collect();
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 3)]).unwrap();
        Instance::new(jobs, catalog).unwrap()
    })
}

/// Greedy scheduler used to exercise the pool: first fitting machine,
/// else a fresh one of the job's class; also asserts pool invariants on
/// every call.
#[derive(Default)]
struct Probing {
    open: Vec<MachineId>,
    arrivals_seen: Vec<(u64, JobId)>,
    departures_seen: usize,
}

impl OnlineScheduler for Probing {
    fn on_arrival(&mut self, view: ArrivalView, pool: &mut MachinePool) -> MachineId {
        // Arrival times must be non-decreasing.
        if let Some(&(t, _)) = self.arrivals_seen.last() {
            assert!(view.time >= t, "time went backwards");
        }
        self.arrivals_seen.push((view.time, view.id));
        // Pool invariants: loads within capacity on every open machine.
        for &m in &self.open {
            assert!(pool.load(m) <= pool.catalog().get(pool.machine_type(m)).capacity);
            assert_eq!(
                pool.residual(m),
                pool.catalog().get(pool.machine_type(m)).capacity - pool.load(m)
            );
        }
        for &m in &self.open {
            if pool.residual(m) >= view.size {
                return m;
            }
        }
        let class = pool.catalog().size_class(view.size).unwrap();
        let m = pool.create(class, "probe");
        self.open.push(m);
        m
    }

    fn on_departure(&mut self, job: JobId, machine: MachineId, pool: &MachinePool) {
        self.departures_seen += 1;
        // The departed job must no longer be locatable.
        assert_eq!(pool.locate(job), None);
        let _ = machine;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn online_driver_replays_everything_in_order(inst in arb_instance()) {
        let mut probe = Probing::default();
        let s = run_online(&inst, &mut probe).unwrap();
        prop_assert!(validate_schedule(&s, &inst).is_ok());
        prop_assert_eq!(probe.arrivals_seen.len(), inst.job_count());
        prop_assert_eq!(probe.departures_seen, inst.job_count());
        // Arrival order equals the instance's canonical job order.
        let replayed: Vec<JobId> = probe.arrivals_seen.iter().map(|&(_, j)| j).collect();
        let expected: Vec<JobId> = inst.jobs().iter().map(|j| j.id).collect();
        prop_assert_eq!(replayed, expected);
    }

    #[test]
    fn clairvoyant_and_online_drivers_agree_for_oblivious_policies(inst in arb_instance()) {
        // A policy ignoring departure info must produce the same schedule
        // under both drivers.
        struct Oblivious { open: Vec<MachineId> }
        impl Oblivious {
            fn place(&mut self, size: u64, pool: &mut MachinePool) -> MachineId {
                for &m in &self.open {
                    if pool.residual(m) >= size {
                        return m;
                    }
                }
                let class = pool.catalog().size_class(size).unwrap();
                let m = pool.create(class, "obl");
                self.open.push(m);
                m
            }
        }
        impl OnlineScheduler for Oblivious {
            fn on_arrival(&mut self, v: ArrivalView, pool: &mut MachinePool) -> MachineId {
                self.place(v.size, pool)
            }
        }
        impl ClairvoyantScheduler for Oblivious {
            fn on_arrival(&mut self, v: ClairvoyantView, pool: &mut MachinePool) -> MachineId {
                self.place(v.size, pool)
            }
        }
        let a = run_online(&inst, &mut Oblivious { open: vec![] }).unwrap();
        let b = run_clairvoyant(&inst, &mut Oblivious { open: vec![] }).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn pool_schedule_preserves_assignment_history(inst in arb_instance()) {
        let mut probe = Probing::default();
        let s = run_online(&inst, &mut probe).unwrap();
        // Every machine's job list is in arrival order.
        let arrival_of: std::collections::HashMap<JobId, u64> =
            inst.jobs().iter().map(|j| (j.id, j.arrival)).collect();
        for m in s.machines() {
            for w in m.jobs.windows(2) {
                prop_assert!(arrival_of[&w[0]] <= arrival_of[&w[1]]);
            }
        }
    }

    #[test]
    fn trace_event_times_are_monotone_and_departures_lead_ties(inst in arb_instance()) {
        let mut collector = Collector::default();
        let _ = run_online_probed(&inst, &mut Probing::default(), &mut collector).unwrap();
        // Times never go backwards, and within one timestamp every
        // departure-side event (Departure/CostAccrual/MachineClose) comes
        // before every arrival-side event — intervals are half-open, so a
        // job leaving at t frees capacity for a job arriving at t.
        for w in collector.events.windows(2) {
            prop_assert!(w[0].time() <= w[1].time(), "time went backwards: {:?} -> {:?}", w[0], w[1]);
            if w[0].time() == w[1].time() {
                prop_assert!(
                    w[0].is_departure_side() || !w[1].is_departure_side(),
                    "arrival-side {:?} precedes departure-side {:?} at t={}",
                    w[0], w[1], w[0].time()
                );
            }
        }
    }

    #[test]
    fn trace_is_complete_and_cost_accruals_sum_to_schedule_cost(inst in arb_instance()) {
        let mut collector = Collector::default();
        let s = run_online_probed(&inst, &mut Probing::default(), &mut collector).unwrap();
        let n = inst.job_count();
        let mut counts = std::collections::HashMap::new();
        let mut traced: u128 = 0;
        for e in &collector.events {
            *counts.entry(e.kind()).or_insert(0usize) += 1;
            if let TraceEvent::CostAccrual { busy, rate, .. } = e {
                traced += u128::from(*busy) * u128::from(*rate);
            }
        }
        prop_assert_eq!(counts.get("Arrival").copied().unwrap_or(0), n);
        prop_assert_eq!(counts.get("Placement").copied().unwrap_or(0), n);
        prop_assert_eq!(counts.get("Departure").copied().unwrap_or(0), n);
        // Every open is eventually closed (all jobs depart), and each close
        // carries exactly one cost accrual.
        prop_assert_eq!(counts.get("MachineOpen"), counts.get("MachineClose"));
        prop_assert_eq!(counts.get("CostAccrual"), counts.get("MachineClose"));
        prop_assert_eq!(traced, schedule_cost(&s, &inst));
    }

    #[test]
    fn trace_replays_to_the_analysis_timeline(inst in arb_instance()) {
        let mut collector = Collector::default();
        let s = run_online_probed(&inst, &mut Probing::default(), &mut collector).unwrap();
        let replayed = replay::metrics_from_events("probe", &collector.events, inst.catalog().len());
        let reference = machine_timeline(&s, &inst);
        prop_assert!(replay::cross_check(&replayed, &reference).is_ok());
    }

    #[test]
    fn trace_survives_jsonl_round_trip(inst in arb_instance()) {
        // Serialize → parse must lose nothing: the parsed stream replays
        // to the same timeline and folds to the same metrics as the live
        // recorder saw.
        let mut collector = Collector::default();
        let s = run_online_probed(&inst, &mut Probing::default(), &mut collector).unwrap();
        let jsonl: String = collector
            .events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = replay::parse_jsonl(&jsonl).unwrap();
        prop_assert_eq!(&parsed, &collector.events);
        let folded = replay::metrics_from_events("probe", &parsed, inst.catalog().len());
        let reference = machine_timeline(&s, &inst);
        prop_assert!(replay::cross_check(&folded, &reference).is_ok());
        prop_assert_eq!(folded.placements, inst.job_count() as u64);
        prop_assert_eq!(folded.traced_cost, u64::try_from(schedule_cost(&s, &inst)).unwrap());
        // Truncating the last line must fail loudly, not parse partially.
        let cut = &jsonl[..jsonl.len() - 2];
        prop_assert!(replay::parse_jsonl(cut).is_err());
    }
}
