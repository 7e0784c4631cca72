//! Deterministic per-job cost attribution.
//!
//! Busy-time cost is incurred by *machines* (rate × busy ticks), but
//! accountability questions — "which arrivals actually forced machines
//! open?" — need the cost charged back to *jobs*. [`CostLedger`] folds a
//! trace into exactly that, under a fixed sharing rule:
//!
//! 1. **Opener pays for machine opens.** A busy span is divided into
//!    segments at every occupancy change on the machine. The *opening
//!    segment* — from the span's open until the first occupancy change —
//!    is charged entirely to the job that opened the machine. That job's
//!    arrival is why the machine is running at all.
//! 2. **Proportional occupancy for extensions.** Every later segment of
//!    the span is shared among the jobs occupying the machine during it,
//!    proportionally to their sizes, with the integer remainder
//!    distributed by largest fractional share (ties to the smallest job
//!    id). Each occupant extends the span it sits in, so each pays its
//!    share of the extension.
//!
//! The invariant — checked by the property suite over every algorithm —
//! is **exact integer equality**: the attributed costs sum to precisely
//! the total traced cost (`Σ CostAccrual busy × rate`), never a tick more
//! or less. The rule is deterministic, so the same trace always yields
//! the same ledger.
//!
//! Fault traces are handled too: a crash's span is already closed (and
//! charged) by its preceding `CostAccrual`, recovered jobs start charging
//! on their recovery machine, and dropped jobs simply stop accruing.

use crate::event::TraceEvent;
use bshm_core::cost::Cost;
use bshm_core::job::JobId;
use bshm_core::schedule::MachineId;
use bshm_core::time::TimePoint;
use std::collections::{BTreeMap, HashMap};

/// One constant-occupancy slice of a busy span.
#[derive(Clone, Debug)]
struct Segment {
    /// Slice length in ticks.
    len: u64,
    /// Jobs on the machine during the slice, with their sizes.
    occupants: Vec<(JobId, u64)>,
}

/// The in-progress busy span of one machine.
#[derive(Clone, Debug)]
struct BusySpan {
    /// Start of the segment currently accruing.
    seg_start: TimePoint,
    /// The job charged for the opening segment (the first job placed on
    /// the freshly opened machine).
    opener: Option<JobId>,
    /// Finished segments, oldest first.
    segments: Vec<Segment>,
    /// Current occupants with their sizes.
    occupants: BTreeMap<JobId, u64>,
}

impl BusySpan {
    fn new(t: TimePoint) -> Self {
        BusySpan {
            seg_start: t,
            opener: None,
            segments: Vec::new(),
            occupants: BTreeMap::new(),
        }
    }

    /// Closes the segment accruing up to `t` (no-op for zero length).
    fn cut(&mut self, t: TimePoint) {
        if t > self.seg_start {
            self.segments.push(Segment {
                len: t - self.seg_start,
                occupants: self.occupants.iter().map(|(&j, &s)| (j, s)).collect(),
            });
        }
        self.seg_start = t;
    }
}

/// Folds a trace into per-job attributed costs (see the module docs for
/// the sharing rule). Feed events in emission order via
/// [`CostLedger::observe`]; totals settle as each `CostAccrual` arrives.
#[derive(Clone, Debug, Default)]
pub struct CostLedger {
    /// Job sizes learned from `Arrival` events.
    sizes: HashMap<JobId, u64>,
    /// Open busy spans by machine.
    spans: HashMap<MachineId, BusySpan>,
    /// Attributed cost per job.
    attributed: BTreeMap<JobId, Cost>,
    /// Total traced cost (`Σ CostAccrual busy × rate`).
    total: Cost,
    /// Cost that could not be pinned on any job (0 for well-formed
    /// traces; non-zero only for corrupt inputs, and still counted so the
    /// ledger never loses a tick).
    unattributed: Cost,
}

impl CostLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Builds a ledger from a full event stream.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut ledger = CostLedger::new();
        for e in events {
            ledger.observe(e);
        }
        ledger
    }

    /// Attributed cost per job, in job-id order.
    #[must_use]
    pub fn attributed(&self) -> &BTreeMap<JobId, Cost> {
        &self.attributed
    }

    /// Total traced cost settled so far.
    #[must_use]
    pub fn total(&self) -> Cost {
        self.total
    }

    /// Sum of all per-job attributed costs. Equals
    /// [`CostLedger::total`] minus [`CostLedger::unattributed`], exactly.
    #[must_use]
    pub fn attributed_sum(&self) -> Cost {
        self.attributed.values().sum()
    }

    /// Cost not pinned on any job — 0 for well-formed traces.
    #[must_use]
    pub fn unattributed(&self) -> Cost {
        self.unattributed
    }

    /// The cost attributed to one job (0 if it never paid anything).
    #[must_use]
    pub fn job_cost(&self, job: JobId) -> Cost {
        self.attributed.get(&job).copied().unwrap_or(0)
    }

    /// `(job, attributed cost)` rows sorted by descending cost, ties by
    /// ascending job id — the attribution table the gap report prints.
    #[must_use]
    pub fn table(&self) -> Vec<(JobId, Cost)> {
        let mut rows: Vec<(JobId, Cost)> = self.attributed.iter().map(|(&j, &c)| (j, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Folds one event into the ledger.
    pub fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Arrival { job, size, .. } => {
                self.sizes.insert(job, size);
            }
            TraceEvent::MachineOpen { t, machine, .. } => {
                self.spans.insert(machine, BusySpan::new(t));
            }
            TraceEvent::Placement {
                t, job, machine, ..
            } => {
                let size = self.sizes.get(&job).copied().unwrap_or(0);
                if let Some(span) = self.spans.get_mut(&machine) {
                    span.cut(t);
                    let was_empty = span.occupants.is_empty();
                    span.occupants.insert(job, size);
                    if span.opener.is_none() && was_empty {
                        span.opener = Some(job);
                    }
                }
            }
            TraceEvent::Departure { t, job, machine } => {
                if let Some(span) = self.spans.get_mut(&machine) {
                    span.cut(t);
                    span.occupants.remove(&job);
                }
            }
            TraceEvent::CostAccrual {
                t,
                machine,
                busy,
                rate,
                ..
            } => {
                let span_cost = u128::from(busy) * u128::from(rate);
                self.total += span_cost;
                match self.spans.remove(&machine) {
                    Some(mut span) => {
                        span.cut(t);
                        self.settle(&span, span_cost, rate);
                    }
                    // A settled span with no recorded open (corrupt or
                    // truncated trace): never lose the cost.
                    None => self.unattributed += span_cost,
                }
            }
            // The accrual above already settled and dropped the span.
            TraceEvent::MachineClose { machine, .. } => {
                self.spans.remove(&machine);
            }
            // A crash's span was closed (and charged) by its preceding
            // CostAccrual + MachineClose pair.
            TraceEvent::MachineCrash { machine, .. } => {
                self.spans.remove(&machine);
            }
            TraceEvent::JobRecovery {
                t, job, from, to, ..
            } => {
                let size = self.sizes.get(&job).copied().unwrap_or(0);
                if let Some(span) = self.spans.get_mut(&from) {
                    span.cut(t);
                    span.occupants.remove(&job);
                }
                if let Some(span) = self.spans.get_mut(&to) {
                    span.cut(t);
                    let was_empty = span.occupants.is_empty();
                    span.occupants.insert(job, size);
                    if span.opener.is_none() && was_empty {
                        span.opener = Some(job);
                    }
                } else {
                    // Recovery onto a machine whose open the trace did not
                    // record separately: the recovered job is its opener.
                    let mut span = BusySpan::new(t);
                    span.opener = Some(job);
                    span.occupants.insert(job, size);
                    self.spans.insert(to, span);
                }
            }
            // Dropped jobs stop accruing; their past segments were already
            // cut by the crash/departure path. Gap samples, decision
            // x-rays, SLO alerts and service-lifecycle markers are gauges.
            TraceEvent::JobDropped { .. }
            | TraceEvent::Decision { .. }
            | TraceEvent::GapSample { .. }
            | TraceEvent::Alert { .. }
            | TraceEvent::TenantLifecycle { .. }
            | TraceEvent::Degradation { .. } => {}
        }
    }

    /// Distributes one settled span's cost over its segments: the opening
    /// segment to the opener, every extension proportionally by occupant
    /// size. The last segment takes the exact remainder so the span's
    /// charges always sum to `span_cost`.
    fn settle(&mut self, span: &BusySpan, span_cost: Cost, rate: u64) {
        if span_cost == 0 {
            return;
        }
        if span.segments.is_empty() {
            // Nothing recorded about who was on the machine (corrupt
            // trace): the cost still has to land somewhere.
            match span.opener {
                Some(j) => *self.attributed.entry(j).or_insert(0) += span_cost,
                None => self.unattributed += span_cost,
            }
            return;
        }
        let mut remaining = span_cost;
        let last = span.segments.len() - 1;
        for (i, seg) in span.segments.iter().enumerate() {
            let seg_cost = if i == last {
                remaining
            } else {
                (u128::from(rate) * u128::from(seg.len)).min(remaining)
            };
            remaining -= seg_cost;
            if seg_cost == 0 {
                continue;
            }
            if i == 0 {
                if let Some(j) = span.opener {
                    *self.attributed.entry(j).or_insert(0) += seg_cost;
                    continue;
                }
            }
            self.charge_proportionally(seg, seg_cost, span.opener);
        }
    }

    /// Splits `seg_cost` over the segment's occupants proportionally to
    /// size, handing the integer remainder out by largest fractional
    /// share (ties to the smallest job id).
    fn charge_proportionally(&mut self, seg: &Segment, seg_cost: Cost, opener: Option<JobId>) {
        if seg.occupants.is_empty() {
            match opener {
                Some(j) => *self.attributed.entry(j).or_insert(0) += seg_cost,
                None => self.unattributed += seg_cost,
            }
            return;
        }
        // Unknown (zero) sizes weigh 1 so a malformed trace still splits.
        let weights: Vec<(JobId, u128)> = seg
            .occupants
            .iter()
            .map(|&(j, s)| (j, u128::from(s.max(1))))
            .collect();
        let total_weight: u128 = weights.iter().map(|&(_, w)| w).sum();
        let mut shares: Vec<(JobId, Cost, u128)> = weights
            .iter()
            .map(|&(j, w)| {
                let base = seg_cost * w / total_weight;
                let frac = seg_cost * w % total_weight;
                (j, base, frac)
            })
            .collect();
        let distributed: Cost = shares.iter().map(|&(_, b, _)| b).sum();
        let mut remainder = seg_cost - distributed;
        // Largest remainder first; ties to the smallest job id.
        shares.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        for share in &mut shares {
            if remainder == 0 {
                break;
            }
            share.1 += 1;
            remainder -= 1;
        }
        for (j, base, _) in shares {
            if base > 0 {
                *self.attributed.entry(j).or_insert(0) += base;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Collector;
    use crate::replay::synthesize;
    use bshm_core::instance::Instance;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType, TypeIndex};
    use bshm_core::schedule::Schedule;
    use bshm_core::schedule_cost;

    fn catalog() -> Catalog {
        Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap()
    }

    #[test]
    fn opener_pays_then_proportional() {
        // One machine (rate 1): job 0 opens at t=0, job 1 joins at t=4,
        // job 0 leaves at t=6, job 1 leaves at t=10.
        let jobs = vec![Job::new(0, 2, 0, 6), Job::new(1, 2, 4, 10)];
        let inst = Instance::new(jobs, catalog()).unwrap();
        let mut s = Schedule::new();
        let m = s.add_machine(TypeIndex(0), "m");
        s.assign(m, JobId(0));
        s.assign(m, JobId(1));
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let ledger = CostLedger::from_events(&c.events);
        // Span [0,10) at rate 1 → total 10. Opening segment [0,4) → job 0
        // pays 4. Extension [4,6): both jobs, equal sizes → 1 each.
        // Extension [6,10): job 1 alone → 4.
        assert_eq!(ledger.total(), 10);
        assert_eq!(ledger.job_cost(JobId(0)), 5);
        assert_eq!(ledger.job_cost(JobId(1)), 5);
        assert_eq!(ledger.attributed_sum(), ledger.total());
        assert_eq!(ledger.unattributed(), 0);
        assert_eq!(u128::from(10u64), schedule_cost(&s, &inst));
    }

    #[test]
    fn remainder_goes_to_largest_fractional_share() {
        // Sizes 3 and 1 share a 7-tick segment cost: 7·3/4 = 5 rem 1,
        // 7·1/4 = 1 rem 3 → the size-1 job has the larger fraction and
        // takes the leftover tick: 5 and 2.
        let seg = Segment {
            len: 7,
            occupants: vec![(JobId(0), 3), (JobId(1), 1)],
        };
        let mut ledger = CostLedger::new();
        ledger.charge_proportionally(&seg, 7, None);
        assert_eq!(ledger.job_cost(JobId(0)), 5);
        assert_eq!(ledger.job_cost(JobId(1)), 2);
    }

    #[test]
    fn exactness_over_a_multi_machine_schedule() {
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 5, 15),
            Job::new(2, 10, 0, 20),
            Job::new(3, 4, 30, 40),
        ];
        let inst = Instance::new(jobs, catalog()).unwrap();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        s.assign(m0, JobId(3));
        let m1 = s.add_machine(TypeIndex(1), "big");
        s.assign(m1, JobId(2));
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let ledger = CostLedger::from_events(&c.events);
        assert_eq!(ledger.total(), schedule_cost(&s, &inst));
        assert_eq!(ledger.attributed_sum(), ledger.total());
        assert_eq!(ledger.unattributed(), 0);
        // Every assigned job was charged something (each forces busy time).
        for id in [0u32, 1, 2, 3] {
            assert!(ledger.job_cost(JobId(id)) > 0, "job {id} paid nothing");
        }
        // Table is sorted by descending cost.
        let table = ledger.table();
        for w in table.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn orphan_accrual_is_counted_not_lost() {
        // A CostAccrual with no recorded span still lands in the total.
        let e = TraceEvent::CostAccrual {
            t: 5,
            machine: MachineId(9),
            machine_type: TypeIndex(0),
            busy: 5,
            rate: 3,
        };
        let mut ledger = CostLedger::new();
        ledger.observe(&e);
        assert_eq!(ledger.total(), 15);
        assert_eq!(ledger.unattributed(), 15);
        assert_eq!(ledger.attributed_sum(), 0);
    }
}
