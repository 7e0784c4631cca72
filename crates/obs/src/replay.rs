//! Trace replay: parse a JSONL event log, rebuild the busy-machine
//! timeline, and cross-check it against the schedule-derived
//! [`bshm_core::analysis::machine_timeline`]. Also the inverse direction:
//! [`synthesize`] the canonical event stream for a finished (offline)
//! schedule, so offline and online runs produce comparable traces.

use crate::event::TraceEvent;
use crate::probe::Probe;
use bshm_core::analysis::MachineTimeline;
use bshm_core::instance::Instance;
use bshm_core::job::JobId;
use bshm_core::machine::TypeIndex;
use bshm_core::ops::{DecisionLog, OpProbe};
use bshm_core::schedule::{MachineId, Schedule};
use bshm_core::sweep::job_events;
use bshm_core::time::TimePoint;
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;

/// Parses a JSONL trace (one event per line; blank lines ignored).
///
/// # Errors
/// Reports the first malformed line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e: TraceEvent =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        events.push(e);
    }
    Ok(events)
}

/// A streaming JSONL trace reader: yields one event at a time without ever
/// holding the whole trace in memory. This is what `watch`/`health` use to
/// follow arbitrarily long (or still-growing) traces; [`parse_jsonl`]
/// remains the whole-buffer convenience for small recorded files.
///
/// Iteration yields `Err` once for the first malformed line (with its
/// 1-based line number) and then stops — the same prefix semantics a
/// salvage pass has, minus the recovery.
#[derive(Debug)]
pub struct EventStream<R> {
    reader: R,
    line: u64,
    buf: String,
    done: bool,
}

impl<R: BufRead> EventStream<R> {
    /// Streams events out of `reader`.
    #[must_use]
    pub fn new(reader: R) -> Self {
        EventStream {
            reader,
            line: 0,
            buf: String::new(),
            done: false,
        }
    }

    /// 1-based number of the last line read (0 before the first).
    #[must_use]
    pub fn line(&self) -> u64 {
        self.line
    }
}

impl<R: BufRead> Iterator for EventStream<R> {
    type Item = Result<TraceEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {
                    self.line += 1;
                    let line = self.buf.trim();
                    if line.is_empty() {
                        continue;
                    }
                    return Some(match serde_json::from_str::<TraceEvent>(line) {
                        Ok(e) => Ok(e),
                        Err(e) => {
                            self.done = true;
                            Err(format!("trace line {}: {e}", self.line))
                        }
                    });
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(format!("trace line {}: read: {e}", self.line + 1)));
                }
            }
        }
        None
    }
}

/// Opens `path` (falling back to its `.partial` twin, like salvage does)
/// as a streaming event iterator.
///
/// # Errors
/// When neither the file nor its `.partial` twin can be opened.
pub fn stream_jsonl_file(
    path: &std::path::Path,
) -> Result<EventStream<std::io::BufReader<std::fs::File>>, String> {
    let file = std::fs::File::open(path).or_else(|first| {
        std::fs::File::open(crate::sink::partial_path(path))
            .map_err(|_| format!("open {}: {first}", path.display()))
    })?;
    Ok(EventStream::new(std::io::BufReader::new(file)))
}

/// A per-type busy-machine step function rebuilt from a trace's
/// `MachineOpen`/`MachineClose` events.
///
/// Same shape as [`MachineTimeline`], except rows align with grid points:
/// `busy[i]` holds on `[grid[i], grid[i+1])` (and `busy[last]` from the
/// last transition on — all zeros for a complete trace, since every
/// machine closes when its last job departs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayedTimeline {
    /// Times at which some machine opened or closed.
    pub grid: Vec<TimePoint>,
    /// `grid.len()` rows: busy machines of each type from that time on.
    pub busy: Vec<Vec<u32>>,
}

impl ReplayedTimeline {
    /// Busy machines of each type at time `t` (zeros before the first
    /// transition).
    #[must_use]
    pub fn at(&self, t: TimePoint) -> Vec<u32> {
        let types = self.busy.first().map_or(0, Vec::len);
        if self.grid.is_empty() || t < self.grid[0] {
            return vec![0; types];
        }
        let i = self.grid.partition_point(|&g| g <= t) - 1;
        self.busy[i].clone()
    }
}

/// The number of catalog types a trace references (1 + the highest
/// machine-type index seen on any event; 0 for a type-free trace).
#[must_use]
pub fn infer_n_types(events: &[TraceEvent]) -> usize {
    events.iter().map(event_type_bound).max().unwrap_or(0)
}

/// The catalog width implied by one event: 1 + its machine-type index, or
/// 0 for type-free events. `max`-folding this over an [`EventStream`] is
/// the streaming counterpart of [`infer_n_types`] (used by `bshm health`
/// and `bshm watch`, which never hold the whole trace in memory).
#[must_use]
pub fn event_type_bound(e: &TraceEvent) -> usize {
    match *e {
        TraceEvent::MachineOpen { machine_type, .. }
        | TraceEvent::MachineClose { machine_type, .. }
        | TraceEvent::Placement { machine_type, .. }
        | TraceEvent::CostAccrual { machine_type, .. }
        | TraceEvent::MachineCrash { machine_type, .. }
        | TraceEvent::JobRecovery { machine_type, .. } => machine_type.0 + 1,
        // Exhaustive on purpose: a new variant must decide its place
        // here or fail to compile (see drift/trace-schema).
        TraceEvent::Arrival { .. }
        | TraceEvent::Departure { .. }
        | TraceEvent::JobDropped { .. }
        | TraceEvent::Decision { .. }
        | TraceEvent::GapSample { .. }
        | TraceEvent::Alert { .. }
        | TraceEvent::TenantLifecycle { .. }
        | TraceEvent::Degradation { .. } => 0,
    }
}

/// Folds a recorded event stream back into aggregated [`Metrics`] — the
/// same aggregates a live [`crate::Recorder`] would have produced. This is
/// what turns a trace JSONL file into an exposition snapshot after the
/// fact.
#[must_use]
pub fn metrics_from_events(
    algorithm: impl Into<String>,
    events: &[TraceEvent],
    n_types: usize,
) -> crate::Metrics {
    let mut metrics = crate::Metrics::new(algorithm, n_types);
    let mut busy_now = vec![0u32; n_types];
    for e in events {
        metrics.update(e, &mut busy_now);
    }
    metrics
}

/// Rebuilds the busy-machine timeline from a trace.
///
/// Events must be in the order the probe emitted them (time-sorted,
/// departure-side first at ties); only open/close events are consulted.
/// `n_types` is the catalog size (machine type indices must be below it).
#[must_use]
pub fn replay_timeline(events: &[TraceEvent], n_types: usize) -> ReplayedTimeline {
    let mut grid: Vec<TimePoint> = Vec::new();
    let mut busy: Vec<Vec<u32>> = Vec::new();
    let mut cur = vec![0u32; n_types];
    for e in events {
        let (t, ty, delta) = match *e {
            TraceEvent::MachineOpen {
                t, machine_type, ..
            } => (t, machine_type.0, 1i64),
            TraceEvent::MachineClose {
                t, machine_type, ..
            } => (t, machine_type.0, -1),
            // Exhaustive on purpose: only open/close move the gauge, and a
            // new variant must opt out here explicitly. A crash's busy span
            // is closed by its own MachineClose, so MachineCrash (and the
            // recovery/drop events) leave the gauge alone.
            TraceEvent::Arrival { .. }
            | TraceEvent::Placement { .. }
            | TraceEvent::Departure { .. }
            | TraceEvent::CostAccrual { .. }
            | TraceEvent::MachineCrash { .. }
            | TraceEvent::JobRecovery { .. }
            | TraceEvent::JobDropped { .. }
            | TraceEvent::Decision { .. }
            | TraceEvent::GapSample { .. }
            | TraceEvent::Alert { .. }
            | TraceEvent::TenantLifecycle { .. }
            | TraceEvent::Degradation { .. } => continue,
        };
        if ty < n_types {
            cur[ty] = u32::try_from(i64::from(cur[ty]) + delta).unwrap_or(0);
        }
        if grid.last() == Some(&t) {
            // grid and busy grow in lockstep, so a matching last grid point
            // implies a last busy row; if-let keeps this panic-free.
            if let Some(row) = busy.last_mut() {
                *row = cur.clone();
            }
        } else {
            grid.push(t);
            busy.push(cur.clone());
        }
    }
    ReplayedTimeline { grid, busy }
}

/// Verifies that a replayed timeline agrees *exactly* with the
/// schedule-derived reference at every point of either grid.
///
/// Both are piecewise-constant with transitions only at job
/// arrival/departure times, so agreeing at all grid points of both sides
/// means the step functions are identical.
///
/// # Errors
/// Describes the first disagreeing time point.
pub fn cross_check(replay: &ReplayedTimeline, reference: &MachineTimeline) -> Result<(), String> {
    let ref_types = reference.busy.first().map_or(0, Vec::len);
    let rep_types = replay.busy.first().map_or(0, Vec::len);
    if !replay.busy.is_empty() && !reference.busy.is_empty() && ref_types != rep_types {
        return Err(format!(
            "type count mismatch: trace has {rep_types}, schedule timeline has {ref_types}"
        ));
    }
    let widen = |v: Vec<u32>, n: usize| {
        let mut v = v;
        v.resize(n.max(v.len()), 0);
        v
    };
    let n = ref_types.max(rep_types);
    for (i, &t) in reference.grid.iter().enumerate() {
        // The last grid point opens no segment; the reference is zero there.
        let want = if i + 1 < reference.grid.len() {
            reference.busy[i].clone()
        } else {
            vec![0; ref_types]
        };
        let got = replay.at(t);
        if widen(got.clone(), n) != widen(want.clone(), n) {
            return Err(format!(
                "at t={t}: trace says {got:?}, schedule timeline says {want:?}"
            ));
        }
    }
    for &t in &replay.grid {
        let got = replay.at(t);
        let want = reference.at(t);
        if widen(got.clone(), n) != widen(want.clone(), n) {
            return Err(format!(
                "at t={t}: trace says {got:?}, schedule timeline says {want:?}"
            ));
        }
    }
    Ok(())
}

/// Emits the canonical event stream of a *finished* schedule into `probe`:
/// what the probed driver would have emitted, had this exact assignment
/// been produced online (with `decision_ns` = 0, as no live decisions were
/// timed).
///
/// Jobs the schedule leaves unassigned are skipped.
pub fn synthesize<P: Probe + ?Sized>(schedule: &Schedule, instance: &Instance, probe: &mut P) {
    synthesize_xray(schedule, instance, &mut DecisionLog::disabled(), probe);
}

/// [`synthesize`] plus the decision x-ray: after each `Placement`, emits
/// the matching `TraceEvent::Decision` carrying the per-job operation
/// counts an offline kernel recorded into `log` while solving. `pool_size`
/// is the number of machines that had already received a placement when
/// the job's turn came (the offline analogue of the open pool); jobs the
/// log never saw get a zeroed counter. A disabled log emits no Decisions.
pub fn synthesize_xray<P: Probe + ?Sized>(
    schedule: &Schedule,
    instance: &Instance,
    log: &mut DecisionLog,
    probe: &mut P,
) {
    if !probe.enabled() {
        return;
    }
    let jobs = instance.jobs();
    // Job → (machine, first-ever job on that machine?).
    let mut location: HashMap<JobId, (MachineId, bool)> = HashMap::new();
    for (mi, machine) in schedule.machines().iter().enumerate() {
        let m = MachineId(bshm_core::convert::index_u32(mi));
        for (k, &j) in machine.jobs.iter().enumerate() {
            location.insert(j, (m, k == 0));
        }
    }
    // The driver's event order, restricted to the jobs the schedule holds.
    let events = job_events(jobs)
        .into_iter()
        .filter(|&(_, _, idx)| location.contains_key(&jobs[idx].id));

    let n_machines = schedule.machines().len();
    let mut active = vec![0u32; n_machines];
    let mut load = vec![0u64; n_machines];
    let mut opened_at = vec![0 as TimePoint; n_machines];
    let mut ever_placed = vec![false; n_machines];
    let mut pool_size = 0u64;
    for (t, is_arrival, idx) in events {
        let job = &jobs[idx];
        let (m, first) = location[&job.id];
        let mi = m.0 as usize;
        let ty = schedule.machines()[mi].machine_type;
        let mt = instance.catalog().get(ty);
        if is_arrival {
            probe.on_arrival(t, job.id, job.size);
            if active[mi] == 0 {
                opened_at[mi] = t;
                probe.on_machine_open(t, m, ty);
            }
            active[mi] += 1;
            load[mi] += job.size;
            probe.on_placement(t, job.id, m, ty, first, 0, load[mi], mt.capacity);
            if log.enabled() {
                let tr = log.take(job.id).unwrap_or_default();
                let fallback = if first {
                    bshm_core::ops::PlaceReason::Opened
                } else {
                    bshm_core::ops::PlaceReason::Reused
                };
                probe.record(&TraceEvent::Decision {
                    t,
                    job: job.id,
                    machine: m,
                    placed: tr.placed.map_or(fallback, |(_, how)| how),
                    pool_size,
                    candidates: tr.candidates,
                    ops: Box::new(tr.counter),
                });
            }
            if !ever_placed[mi] {
                ever_placed[mi] = true;
                pool_size += 1;
            }
        } else {
            probe.on_departure(t, job.id, m);
            active[mi] -= 1;
            load[mi] -= job.size;
            if active[mi] == 0 {
                probe.on_cost_accrual(t, m, ty, t - opened_at[mi], mt.rate);
                probe.on_machine_close(t, m, ty, opened_at[mi]);
            }
        }
    }
    probe.finish();
}

/// One step of a machine's utilization timeline: the load and occupancy
/// right after a transition at `t`, holding until the next point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UsagePoint {
    /// Time of the transition.
    pub t: TimePoint,
    /// Machine load after the transition.
    pub load: u64,
    /// Active jobs after the transition.
    pub active: u32,
}

/// One machine's utilization/occupancy timeline derived from a trace's
/// `Placement`/`Departure` (and fault) events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineUsage {
    /// The machine.
    pub machine: MachineId,
    /// Its catalog type (from its first `Placement`).
    pub machine_type: TypeIndex,
    /// Its capacity (from its first `Placement`; 0 if never seen).
    pub capacity: u64,
    /// Load/occupancy steps in time order, coalesced per instant.
    pub points: Vec<UsagePoint>,
}

impl MachineUsage {
    /// Total time the machine held at least one active job.
    #[must_use]
    pub fn busy_time(&self) -> u64 {
        self.windows().filter(|w| w.0.active > 0).map(|w| w.1).sum()
    }

    /// `∫ load dt` over the timeline.
    #[must_use]
    pub fn load_integral(&self) -> u128 {
        self.windows()
            .map(|w| u128::from(w.0.load) * u128::from(w.1))
            .sum()
    }

    /// Mean fill (`load / capacity`) over busy time; `None` for a machine
    /// that was never busy or has no recorded capacity.
    #[must_use]
    pub fn mean_utilization(&self) -> Option<f64> {
        let busy = self.busy_time();
        (busy > 0 && self.capacity > 0)
            .then(|| self.load_integral() as f64 / (self.capacity as f64 * busy as f64))
    }

    fn windows(&self) -> impl Iterator<Item = (&UsagePoint, u64)> {
        self.points
            .windows(2)
            .map(|w| (&w[0], w[1].t.saturating_sub(w[0].t)))
    }
}

/// Derives every machine's utilization/occupancy timeline from a trace.
///
/// Walks `Placement`/`Departure` events (job sizes from `Arrival`s),
/// handles crash displacement (`MachineCrash` empties the machine;
/// `JobRecovery` moves load to the recovery machine), and returns one
/// [`MachineUsage`] per machine seen, sorted by machine id.
#[must_use]
pub fn machine_utilization(events: &[TraceEvent]) -> Vec<MachineUsage> {
    struct State {
        usage: MachineUsage,
        load: u64,
        active: u32,
    }
    let mut sizes: HashMap<JobId, u64> = HashMap::new();
    let mut machines: BTreeMap<MachineId, State> = BTreeMap::new();
    let push = |machines: &mut BTreeMap<MachineId, State>,
                m: MachineId,
                ty: Option<(TypeIndex, u64)>,
                t: TimePoint,
                dload: i64,
                dactive: i64| {
        let st = machines.entry(m).or_insert_with(|| State {
            usage: MachineUsage {
                machine: m,
                machine_type: TypeIndex(0),
                capacity: 0,
                points: Vec::new(),
            },
            load: 0,
            active: 0,
        });
        if let Some((ty, cap)) = ty {
            if st.usage.capacity == 0 {
                st.usage.machine_type = ty;
                st.usage.capacity = cap;
            }
        }
        st.load = st.load.saturating_add_signed(dload);
        st.active = u32::try_from(i64::from(st.active) + dactive).unwrap_or(0);
        let point = UsagePoint {
            t,
            load: st.load,
            active: st.active,
        };
        match st.usage.points.last_mut() {
            Some(last) if last.t == t => *last = point,
            _ => st.usage.points.push(point),
        }
    };
    for e in events {
        match *e {
            TraceEvent::Arrival { job, size, .. } => {
                sizes.insert(job, size);
            }
            TraceEvent::Placement {
                t,
                job,
                machine,
                machine_type,
                capacity,
                ..
            } => {
                let size = sizes.get(&job).copied().unwrap_or(0);
                push(
                    &mut machines,
                    machine,
                    Some((machine_type, capacity)),
                    t,
                    i64::try_from(size).unwrap_or(i64::MAX),
                    1,
                );
            }
            TraceEvent::Departure { t, job, machine } => {
                let size = sizes.get(&job).copied().unwrap_or(0);
                push(
                    &mut machines,
                    machine,
                    None,
                    t,
                    -i64::try_from(size).unwrap_or(i64::MAX),
                    -1,
                );
            }
            TraceEvent::MachineCrash { t, machine, .. } => {
                // Displaced jobs leave the machine at the crash instant;
                // JobRecovery events re-add them elsewhere.
                let cleared = machines.get(&machine).map(|st| (st.load, st.active));
                if let Some((dl, da)) = cleared {
                    push(
                        &mut machines,
                        machine,
                        None,
                        t,
                        -i64::try_from(dl).unwrap_or(i64::MAX),
                        -i64::from(da),
                    );
                }
            }
            TraceEvent::JobRecovery {
                t,
                job,
                to,
                machine_type,
                ..
            } => {
                let size = sizes.get(&job).copied().unwrap_or(0);
                push(
                    &mut machines,
                    to,
                    Some((machine_type, 0)),
                    t,
                    i64::try_from(size).unwrap_or(i64::MAX),
                    1,
                );
            }
            TraceEvent::MachineOpen { .. }
            | TraceEvent::CostAccrual { .. }
            | TraceEvent::MachineClose { .. }
            | TraceEvent::JobDropped { .. }
            | TraceEvent::Decision { .. }
            | TraceEvent::GapSample { .. }
            | TraceEvent::Alert { .. }
            | TraceEvent::TenantLifecycle { .. }
            | TraceEvent::Degradation { .. } => {}
        }
    }
    let mut out: Vec<MachineUsage> = machines.into_values().map(|s| s.usage).collect();
    out.sort_by_key(|u| u.machine);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Collector;
    use bshm_core::analysis::machine_timeline;
    use bshm_core::job::Job;
    use bshm_core::machine::{Catalog, MachineType, TypeIndex};
    use bshm_core::{schedule_cost, validate_schedule};

    fn setup() -> (Instance, Schedule) {
        let catalog = Catalog::new(vec![MachineType::new(4, 1), MachineType::new(16, 2)]).unwrap();
        let jobs = vec![
            Job::new(0, 2, 0, 10),
            Job::new(1, 2, 5, 15),
            Job::new(2, 10, 0, 20),
            Job::new(3, 4, 30, 40), // reopens the small machine after a gap
        ];
        let instance = Instance::new(jobs, catalog).unwrap();
        let mut s = Schedule::new();
        let m0 = s.add_machine(TypeIndex(0), "small");
        s.assign(m0, JobId(0));
        s.assign(m0, JobId(1));
        s.assign(m0, JobId(3));
        let m1 = s.add_machine(TypeIndex(1), "big");
        s.assign(m1, JobId(2));
        (instance, s)
    }

    #[test]
    fn synthesized_stream_is_ordered_and_complete() {
        let (inst, s) = setup();
        assert_eq!(validate_schedule(&s, &inst), Ok(()));
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        // 4 arrivals + 4 placements + 4 departures + 3 opens + 3 closes +
        // 3 accruals (small machine opens twice, big once).
        assert_eq!(c.events.len(), 21);
        let times: Vec<TimePoint> = c.events.iter().map(TraceEvent::time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // Departure-side events precede arrival-side ones at equal times.
        for w in c.events.windows(2) {
            if w[0].time() == w[1].time() {
                assert!(
                    w[0].is_departure_side() >= w[1].is_departure_side(),
                    "{w:?}"
                );
            }
        }
    }

    #[test]
    fn traced_cost_matches_schedule_cost() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let traced: u64 = c
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::CostAccrual { busy, rate, .. } => Some(busy * rate),
                _ => None,
            })
            .sum();
        assert_eq!(u128::from(traced), schedule_cost(&s, &inst));
    }

    #[test]
    fn replay_matches_machine_timeline() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let replay = replay_timeline(&c.events, inst.catalog().len());
        let reference = machine_timeline(&s, &inst);
        cross_check(&replay, &reference).unwrap();
        // Spot checks, including the idle gap on the small machine.
        assert_eq!(replay.at(0), vec![1, 1]);
        assert_eq!(replay.at(17), vec![0, 1]);
        assert_eq!(replay.at(25), vec![0, 0]);
        assert_eq!(replay.at(35), vec![1, 0]);
        assert_eq!(replay.at(40), vec![0, 0]);
    }

    #[test]
    fn cross_check_catches_corruption() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        // Drop one close event: the replayed gauge stays up forever.
        let mut broken = c.events.clone();
        let pos = broken
            .iter()
            .position(|e| matches!(e, TraceEvent::MachineClose { .. }))
            .unwrap();
        broken.remove(pos);
        let replay = replay_timeline(&broken, inst.catalog().len());
        let reference = machine_timeline(&s, &inst);
        assert!(cross_check(&replay, &reference).is_err());
    }

    #[test]
    fn metrics_from_events_matches_live_recorder() {
        let (inst, s) = setup();
        let mut rec = crate::Recorder::new("offline", inst.catalog().len());
        synthesize(&s, &inst, &mut rec);
        let live = rec.into_metrics().unwrap();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        assert_eq!(infer_n_types(&c.events), inst.catalog().len());
        let folded = metrics_from_events("offline", &c.events, inst.catalog().len());
        assert_eq!(folded.arrivals, live.arrivals);
        assert_eq!(folded.placements, live.placements);
        assert_eq!(folded.traced_cost, live.traced_cost);
        assert_eq!(folded.cost_by_type, live.cost_by_type);
        assert_eq!(folded.open_peak_by_type, live.open_peak_by_type);
        assert_eq!(folded.gauge_timeline, live.gauge_timeline);
        assert_eq!(folded.utilization_hist, live.utilization_hist);
        assert_eq!(folded.decision_ns_hist, live.decision_ns_hist);
        assert_eq!(folded.decision_ns_sum, live.decision_ns_sum);
    }

    #[test]
    fn synthesize_xray_emits_decisions() {
        use bshm_core::ops::{OpProbe, PlaceReason, RejectReason};
        let (inst, s) = setup();
        let mut log = DecisionLog::new();
        // Pretend a kernel recorded scan work for jobs 0 and 2.
        log.begin(JobId(0));
        log.scanned(MachineId(0));
        log.compared(1);
        log.committed(MachineId(0), PlaceReason::Opened);
        log.begin(JobId(2));
        log.scanned(MachineId(0));
        log.compared(1);
        log.rejected(MachineId(0), RejectReason::Capacity);
        log.committed(MachineId(1), PlaceReason::Opened);
        let mut c = Collector::default();
        synthesize_xray(&s, &inst, &mut log, &mut c);
        let n_decisions = c
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision { .. }))
            .count();
        assert_eq!(n_decisions, 4);
        // Each Decision immediately follows its job's Placement.
        for (i, e) in c.events.iter().enumerate() {
            if let TraceEvent::Decision { job, machine, .. } = e {
                match &c.events[i - 1] {
                    TraceEvent::Placement {
                        job: pj,
                        machine: pm,
                        ..
                    } => {
                        assert_eq!(pj, job);
                        assert_eq!(pm, machine);
                    }
                    other => panic!("decision not after placement: {other:?}"),
                }
            }
        }
        // Logged jobs carry their counters; unlogged ones fold to zero.
        let m = metrics_from_events("x", &c.events, inst.catalog().len());
        assert_eq!(m.ops.decisions, 2);
        assert_eq!(m.ops.machines_scanned, 2);
        assert_eq!(m.ops.rejected_capacity, 1);
        assert_eq!(m.ops_hist.iter().sum::<u64>(), 4);
        // pool_size counts machines already placed-on when the job's turn
        // came: job 0 → 0, job 2 → 1, jobs 1 and 3 → 2.
        let pools: Vec<u64> = c
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Decision { pool_size, .. } => Some(pool_size),
                _ => None,
            })
            .collect();
        assert_eq!(pools, vec![0, 1, 2, 2]);
        // The decision events do not disturb timeline replay, and the
        // plain synthesize stream stays decision-free.
        let replay = replay_timeline(&c.events, inst.catalog().len());
        cross_check(&replay, &machine_timeline(&s, &inst)).unwrap();
        let mut plain = Collector::default();
        synthesize(&s, &inst, &mut plain);
        assert_eq!(plain.events.len(), 21);
    }

    #[test]
    fn machine_utilization_derives_per_machine_timelines() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let usage = machine_utilization(&c.events);
        assert_eq!(usage.len(), 2);
        let small = &usage[0];
        assert_eq!(small.machine, MachineId(0));
        assert_eq!(small.machine_type, TypeIndex(0));
        assert_eq!(small.capacity, 4);
        assert_eq!(
            small.points,
            vec![
                UsagePoint {
                    t: 0,
                    load: 2,
                    active: 1
                },
                UsagePoint {
                    t: 5,
                    load: 4,
                    active: 2
                },
                UsagePoint {
                    t: 10,
                    load: 2,
                    active: 1
                },
                UsagePoint {
                    t: 15,
                    load: 0,
                    active: 0
                },
                UsagePoint {
                    t: 30,
                    load: 4,
                    active: 1
                },
                UsagePoint {
                    t: 40,
                    load: 0,
                    active: 0
                },
            ]
        );
        assert_eq!(small.busy_time(), 25);
        assert_eq!(small.load_integral(), 80);
        let u = small.mean_utilization().unwrap();
        assert!((u - 0.8).abs() < 1e-9, "{u}");
        let big = &usage[1];
        assert_eq!(big.machine_type, TypeIndex(1));
        assert_eq!(big.capacity, 16);
        assert_eq!(big.busy_time(), 20);
        assert_eq!(big.load_integral(), 200);
        // A never-busy machine reports no mean utilization.
        assert_eq!(machine_utilization(&[]).len(), 0);
    }

    #[test]
    fn jsonl_round_trip() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let text: String = c
            .events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, c.events);
        assert!(parse_jsonl("{not json}").is_err());
        assert!(parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn event_stream_matches_whole_buffer_parse() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let text: String = c
            .events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let streamed: Result<Vec<TraceEvent>, String> = EventStream::new(text.as_bytes()).collect();
        assert_eq!(streamed.unwrap(), parse_jsonl(&text).unwrap());
        // Blank lines are skipped, like parse_jsonl.
        let padded = format!("\n{text}\n\n");
        let streamed: Vec<TraceEvent> = EventStream::new(padded.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed.len(), c.events.len());
    }

    #[test]
    fn event_stream_stops_at_first_malformed_line() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let mut text: String = c.events[..3]
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        text.push_str("{torn");
        let mut stream = EventStream::new(text.as_bytes());
        let mut ok = 0;
        let mut err = None;
        for item in &mut stream {
            match item {
                Ok(_) => ok += 1,
                Err(e) => err = Some(e),
            }
        }
        assert_eq!(ok, 3);
        assert!(err.unwrap().contains("trace line 4"), "line number lost");
        // After the error the iterator is fused.
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_jsonl_file_falls_back_to_partial() {
        let dir = std::env::temp_dir().join("bshm-replay-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let _ = std::fs::remove_file(&path);
        let partial = crate::sink::partial_path(&path);
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let text: String = c
            .events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        std::fs::write(&partial, &text).unwrap();
        // Only the .partial twin exists: the stream still opens.
        let streamed: Vec<TraceEvent> = stream_jsonl_file(&path)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, c.events);
        let _ = std::fs::remove_file(&partial);
        assert!(stream_jsonl_file(&path).is_err());
    }
}
