//! Trace replay: read a JSONL event log back and cross-check the
//! busy-machine timeline its [`crate::Metrics`] fold rebuilds against the
//! schedule-derived [`bshm_core::analysis::machine_timeline`]. Also the
//! inverse direction: [`synthesize`] the canonical event stream for a
//! finished (offline) schedule, so offline and online runs produce
//! comparable traces.

use crate::event::TraceEvent;
use crate::probe::Probe;
use crate::Metrics;
use bshm_core::analysis::MachineTimeline;
use bshm_core::convert::count_u64;
use bshm_core::instance::Instance;
use bshm_core::job::JobId;
use bshm_core::machine::TypeIndex;
use bshm_core::ops::{DecisionLog, OpProbe};
use bshm_core::schedule::{MachineId, Schedule};
use bshm_core::sweep::job_events;
use bshm_core::time::TimePoint;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Parses a whole in-memory JSONL trace: an [`EventStream`] over its
/// bytes, read strictly.
///
/// # Errors
/// Reports the first damaged line with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    EventStream::new(text.as_bytes()).collect()
}

/// The trace reader: yields one event per JSONL line without ever holding
/// the whole trace in memory.
///
/// Lines end at `\n` (a `\r` before it is dropped) and blank lines are
/// skipped. A final line without its `\n` is read like any other, so a
/// trace cut exactly between two events loses nothing. The first damaged
/// line, one that is not UTF-8 or not an event, yields `Err` with its
/// 1-based line number and ends the stream. [`EventStream::salvage`]
/// drains the same stream instead of failing, so a salvage keeps exactly
/// the lines a strict read accepts.
#[derive(Debug)]
pub struct EventStream<R> {
    reader: R,
    /// The last line read, terminator included.
    buf: Vec<u8>,
    line: u64,
    stop: Option<Stop>,
}

/// Why an [`EventStream`] ended before the end of its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    /// A line was not UTF-8 or not an event.
    Damaged,
    /// The reader failed.
    Unreadable,
}

/// What [`EventStream::salvage`] recovered from a damaged trace.
#[derive(Clone, Debug, Default)]
pub struct Salvage {
    /// The valid prefix: every event up to the first damaged line.
    pub events: Vec<TraceEvent>,
    /// Non-blank lines dropped (the damaged line and everything after it).
    pub dropped_lines: u64,
    /// Bytes dropped: everything from the start of the first damaged line
    /// to the end of the input, including line terminators.
    pub dropped_bytes: u64,
}

impl EventStream<BufReader<std::fs::File>> {
    /// Opens the trace at `path`, or its `.partial` twin (the artifact a
    /// killed [`crate::sink::TraceWriter`] leaves behind) when `path`
    /// itself cannot be opened.
    ///
    /// # Errors
    /// When neither file can be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).or_else(|first| {
            std::fs::File::open(crate::sink::partial_path(path))
                .map_err(|_| format!("reading {}: {first}", path.display()))
        })?;
        Ok(EventStream::new(BufReader::new(file)))
    }
}

impl<R: BufRead> EventStream<R> {
    /// Streams events out of `reader`.
    #[must_use]
    pub fn new(reader: R) -> Self {
        EventStream {
            reader,
            buf: Vec::new(),
            line: 0,
            stop: None,
        }
    }

    /// Drains the stream into its valid prefix: every event up to the
    /// first damaged line, and how many non-blank lines and bytes the
    /// input holds from that line's first byte on.
    ///
    /// # Errors
    /// Only when reading fails; damage is what salvage is for.
    pub fn salvage(mut self) -> Result<Salvage, String> {
        let mut salvage = Salvage::default();
        while let Some(item) = self.next() {
            match item {
                Ok(e) => salvage.events.push(e),
                Err(e) if self.stop == Some(Stop::Unreadable) => return Err(e),
                Err(_) => {
                    salvage.dropped_lines = 1;
                    salvage.dropped_bytes = count_u64(self.buf.len());
                    while self.read_line().map_err(|e| self.read_error(&e))? {
                        salvage.dropped_lines +=
                            u64::from(!matches!(line_text(&self.buf), Ok(None)));
                        salvage.dropped_bytes += count_u64(self.buf.len());
                    }
                }
            }
        }
        Ok(salvage)
    }

    /// Reads the next line, terminator included, into `buf`; `false` at
    /// the end of the input.
    fn read_line(&mut self) -> std::io::Result<bool> {
        self.buf.clear();
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        self.line += u64::from(n > 0);
        Ok(n > 0)
    }

    fn read_error(&self, e: &std::io::Error) -> String {
        format!("trace line {}: read: {e}", self.line + 1)
    }
}

impl<R: BufRead> Iterator for EventStream<R> {
    type Item = Result<TraceEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.stop.is_none() {
            match self.read_line() {
                Ok(false) => return None,
                Ok(true) => {
                    let event = match line_text(&self.buf) {
                        Ok(None) => continue,
                        Ok(Some(line)) => {
                            serde_json::from_str::<TraceEvent>(line).map_err(|e| e.to_string())
                        }
                        Err(e) => Err(e.to_string()),
                    };
                    if event.is_err() {
                        self.stop = Some(Stop::Damaged);
                    }
                    return Some(event.map_err(|e| format!("trace line {}: {e}", self.line)));
                }
                Err(e) => {
                    self.stop = Some(Stop::Unreadable);
                    return Some(Err(self.read_error(&e)));
                }
            }
        }
        None
    }
}

/// A line's text without its terminator; `None` for a blank line.
fn line_text(line: &[u8]) -> Result<Option<&str>, std::str::Utf8Error> {
    let text = std::str::from_utf8(line)?;
    let text = text.strip_suffix('\n').unwrap_or(text);
    let text = text.strip_suffix('\r').unwrap_or(text);
    Ok((!text.trim().is_empty()).then_some(text))
}

/// The number of catalog types a trace references (1 + the highest
/// machine-type index seen on any event; 0 for a type-free trace).
#[must_use]
pub fn infer_n_types(events: &[TraceEvent]) -> usize {
    events.iter().map(event_type_bound).max().unwrap_or(0)
}

/// The catalog width implied by one event: 1 + its machine-type index, or
/// 0 for type-free events. [`crate::Metrics::update`] widens its per-type
/// vectors to it; `max`-folding it over an [`EventStream`] is the
/// streaming counterpart of [`infer_n_types`] (`bshm watch` reports the
/// width that way without holding the trace in memory).
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

/// Verifies that the busy-machine gauge a trace folds into
/// ([`Metrics::gauge_timeline`]) agrees *exactly* with the
/// schedule-derived reference at every point of either grid.
///
/// Both are piecewise-constant with transitions only at job
/// arrival/departure times, so agreeing at all grid points of both sides
/// means the step functions are identical.
///
/// # Errors
/// Describes the first disagreeing time point.
pub fn cross_check(metrics: &Metrics, reference: &MachineTimeline) -> Result<(), String> {
    let gauge = &metrics.gauge_timeline;
    let ref_types = reference.busy.first().map_or(0, Vec::len);
    let rep_types = gauge.first().map_or(0, |g| g.busy.len());
    if !gauge.is_empty() && !reference.busy.is_empty() && ref_types != rep_types {
        return Err(format!(
            "type count mismatch: trace has {rep_types}, schedule timeline has {ref_types}"
        ));
    }
    let n = ref_types.max(rep_types);
    let widen = |v: &[u32]| {
        let mut v = v.to_vec();
        v.resize(n.max(v.len()), 0);
        v
    };
    let check = |t: TimePoint, want: &[u32]| {
        let got = metrics.gauge_at(t);
        if widen(&got) == widen(want) {
            Ok(())
        } else {
            Err(format!(
                "at t={t}: trace says {got:?}, schedule timeline says {want:?}"
            ))
        }
    };
    for (i, &t) in reference.grid.iter().enumerate() {
        // The last grid point opens no segment; the reference is zero there.
        match reference
            .busy
            .get(i)
            .filter(|_| i + 1 < reference.grid.len())
        {
            Some(row) => check(t, row)?,
            None => check(t, &vec![0; ref_types])?,
        }
    }
    for g in gauge {
        check(g.t, &reference.at(g.t))?;
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
            probe.record(&TraceEvent::Arrival {
                t,
                job: job.id,
                size: job.size,
            });
            if active[mi] == 0 {
                opened_at[mi] = t;
                probe.record(&TraceEvent::MachineOpen {
                    t,
                    machine: m,
                    machine_type: ty,
                });
            }
            active[mi] += 1;
            load[mi] += job.size;
            probe.record(&TraceEvent::Placement {
                t,
                job: job.id,
                machine: m,
                machine_type: ty,
                opened: first,
                decision_ns: 0,
                load: load[mi],
                capacity: mt.capacity,
            });
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
            probe.record(&TraceEvent::Departure {
                t,
                job: job.id,
                machine: m,
            });
            active[mi] -= 1;
            load[mi] -= job.size;
            if active[mi] == 0 {
                probe.record(&TraceEvent::CostAccrual {
                    t,
                    machine: m,
                    machine_type: ty,
                    busy: t - opened_at[mi],
                    rate: mt.rate,
                });
                probe.record(&TraceEvent::MachineClose {
                    t,
                    machine: m,
                    machine_type: ty,
                    opened_at: opened_at[mi],
                });
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
        let replay = metrics_from_events("offline", &c.events, inst.catalog().len());
        let reference = machine_timeline(&s, &inst);
        cross_check(&replay, &reference).unwrap();
        // Spot checks, including the idle gap on the small machine.
        assert_eq!(replay.gauge_at(0), vec![1, 1]);
        assert_eq!(replay.gauge_at(17), vec![0, 1]);
        assert_eq!(replay.gauge_at(25), vec![0, 0]);
        assert_eq!(replay.gauge_at(35), vec![1, 0]);
        assert_eq!(replay.gauge_at(40), vec![0, 0]);
        // Before the first transition there is no row yet.
        assert_eq!(
            metrics_from_events("x", &[], 2).gauge_at(3),
            Vec::<u32>::new()
        );
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
        let replay = metrics_from_events("broken", &broken, inst.catalog().len());
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
        cross_check(&m, &machine_timeline(&s, &inst)).unwrap();
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
        let text = jsonl(&c.events);
        let streamed: Result<Vec<TraceEvent>, String> = EventStream::new(text.as_bytes()).collect();
        assert_eq!(streamed.unwrap(), c.events);
        // Blank lines are skipped and `\r\n` ends a line like `\n`.
        let padded = format!("\n{}\n \r\n", text.replace('\n', "\r\n"));
        assert_eq!(parse_jsonl(&padded).unwrap(), c.events);
    }

    #[test]
    fn event_stream_stops_at_first_malformed_line() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let mut text = jsonl(&c.events[..3]);
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
    fn strict_and_salvage_reads_share_one_torn_tail_rule() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let text = jsonl(&c.events[..3]);
        // A final line that parses without its `\n` is kept by both reads.
        let unterminated = text.strip_suffix('\n').unwrap();
        assert_eq!(parse_jsonl(unterminated).unwrap(), c.events[..3]);
        let kept = EventStream::new(unterminated.as_bytes()).salvage().unwrap();
        assert_eq!(kept.events, c.events[..3]);
        assert_eq!((kept.dropped_lines, kept.dropped_bytes), (0, 0));
        // A half line is damage: the strict read fails on it, and salvage
        // keeps the prefix and accounts for every byte of the tear.
        let last = serde_json::to_string(&c.events[3]).unwrap();
        let torn = format!("{text}{}", &last[..last.len() / 2]);
        assert!(parse_jsonl(&torn).unwrap_err().contains("trace line 4"));
        let cut = EventStream::new(torn.as_bytes()).salvage().unwrap();
        assert_eq!(cut.events, c.events[..3]);
        assert_eq!(cut.dropped_lines, 1);
        assert_eq!(cut.dropped_bytes, (last.len() / 2) as u64);
    }

    #[test]
    fn a_tail_torn_inside_a_character_is_damage_not_a_read_error() {
        let (inst, s) = setup();
        let mut c = Collector::default();
        synthesize(&s, &inst, &mut c);
        let mut bytes = jsonl(&c.events[..5]).into_bytes();
        let intact = bytes.len();
        // The first byte of a two-byte UTF-8 character, then the end.
        bytes.extend_from_slice(b"{\"Arrival\":{\"t\":9,\"job\":1,\"size\":\xc3");
        let err = EventStream::new(&bytes[..])
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.starts_with("trace line 6: "), "{err}");
        assert!(!err.contains("read:"), "{err}");
        let s = EventStream::new(&bytes[..]).salvage().unwrap();
        assert_eq!(s.events, c.events[..5]);
        assert_eq!(s.dropped_lines, 1);
        assert_eq!(s.dropped_bytes, (bytes.len() - intact) as u64);
        // Damage is final: later lines are dropped and counted, blank
        // ones only as bytes.
        bytes.extend_from_slice(b"\n\n");
        bytes.extend_from_slice(jsonl(&c.events[5..7]).as_bytes());
        let s = EventStream::new(&bytes[..]).salvage().unwrap();
        assert_eq!(s.events, c.events[..5]);
        assert_eq!(s.dropped_lines, 3);
        assert_eq!(s.dropped_bytes, (bytes.len() - intact) as u64);
    }

    fn jsonl(events: &[TraceEvent]) -> String {
        events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect()
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
        std::fs::write(&partial, jsonl(&c.events)).unwrap();
        // Only the .partial twin exists: the stream still opens.
        let streamed: Vec<TraceEvent> = EventStream::open(&path)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, c.events);
        let _ = std::fs::remove_file(&partial);
        let err = EventStream::open(&path).unwrap_err();
        assert!(
            err.starts_with(&format!("reading {}: ", path.display())),
            "{err}"
        );
    }
}
