//! The [`Probe`] trait: where instrumented code reports events.

use crate::event::TraceEvent;

/// A sink for [`TraceEvent`]s.
///
/// Instrumented code (the simulator driver, the fault engine, the
/// offline-schedule synthesizer, [`crate::GapProbe`]) builds each event
/// as a [`TraceEvent`] literal and hands it to [`Probe::record`]; that is
/// the one way to emit an event.
///
/// Instrumentation sites are expected to guard on [`Probe::enabled`]:
/// with [`NoProbe`] that guard is a monomorphized `false`, so disabled
/// probing compiles down to nothing.
pub trait Probe {
    /// Whether this probe wants events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. The event is borrowed; clone to keep it.
    fn record(&mut self, event: &TraceEvent);

    /// Called once when the run completes; flush buffers here.
    fn finish(&mut self) {}
}

impl<P: Probe + ?Sized> Probe for &mut P {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }
    fn finish(&mut self) {
        (**self).finish();
    }
}

/// The no-op probe: [`Probe::enabled`] is `false`, so instrumented code
/// skips event construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _event: &TraceEvent) {}
}

/// A probe that keeps every event in memory — for tests and replay
/// round-trips.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Probe for Collector {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// An adapter that zeroes the wall-clock fields (`decision_ns` on
/// `Placement`, `recovery_ns` on `JobRecovery`) before forwarding to the
/// wrapped probe.
///
/// Those fields are live timings, so two otherwise-identical runs never
/// produce byte-identical traces. Wrapping both probes in `Deterministic`
/// makes byte-level trace comparison meaningful — the fault layer's
/// empty-plan equivalence and checkpoint-determinism proofs rely on it.
#[derive(Clone, Debug, Default)]
pub struct Deterministic<P>(
    /// The probe receiving the normalized events.
    pub P,
);

impl<P: Probe> Probe for Deterministic<P> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Placement {
                t,
                job,
                machine,
                machine_type,
                opened,
                decision_ns: _,
                load,
                capacity,
            } => self.0.record(&TraceEvent::Placement {
                t,
                job,
                machine,
                machine_type,
                opened,
                decision_ns: 0,
                load,
                capacity,
            }),
            TraceEvent::JobRecovery {
                t,
                job,
                from,
                to,
                machine_type,
                recovery_ns: _,
            } => self.0.record(&TraceEvent::JobRecovery {
                t,
                job,
                from,
                to,
                machine_type,
                recovery_ns: 0,
            }),
            ref other => self.0.record(other),
        }
    }

    fn finish(&mut self) {
        self.0.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::parse_jsonl;
    use bshm_core::job::JobId;

    #[test]
    fn deterministic_zeroes_wall_clock_fields() {
        let mut d = Deterministic(Collector::default());
        assert!(d.enabled());
        let trace = parse_jsonl(concat!(
            r#"{"Placement":{"t":1,"job":0,"machine":0,"machine_type":0,"opened":true,"decision_ns":999,"load":2,"capacity":4}}"#,
            "\n",
            r#"{"JobRecovery":{"t":2,"job":0,"from":0,"to":1,"machine_type":0,"recovery_ns":999}}"#,
            "\n",
            r#"{"Arrival":{"t":3,"job":1,"size":1}}"#,
            "\n",
        ))
        .unwrap();
        for e in &trace {
            d.record(e);
        }
        d.finish();
        match &d.0.events[0] {
            TraceEvent::Placement { decision_ns, .. } => assert_eq!(*decision_ns, 0),
            e => panic!("unexpected {e:?}"),
        }
        match &d.0.events[1] {
            TraceEvent::JobRecovery { recovery_ns, .. } => assert_eq!(*recovery_ns, 0),
            e => panic!("unexpected {e:?}"),
        }
        assert_eq!(d.0.events[2], trace[2]);
        assert_eq!(d.0.events.len(), 3);
    }

    #[test]
    fn no_probe_is_disabled() {
        assert!(!NoProbe.enabled());
        // And a &mut forwards.
        let mut c = Collector::default();
        let r = &mut c;
        assert!(r.enabled());
        r.record(&TraceEvent::Arrival {
            t: 0,
            job: JobId(1),
            size: 1,
        });
        assert_eq!(c.events.len(), 1);
    }
}
