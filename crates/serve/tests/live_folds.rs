//! The live per-step folds agree with the from-scratch rescans.
//!
//! A tenant's `STEP` feeds only the new batch to its SLO fold and gap
//! gauge and appends only the batch to its durable log. This test drives
//! a session over every tenant kind — including a seeded-fault tenant,
//! a `KILL` with its supervised restore, and the ladder's rung-2
//! algorithm rebase — and after every `STEP` checks the live state
//! against the rescans: the SLO report against `evaluate_slo`, the gap
//! ratio bit-for-bit against `compute_gap_timeline`, and the published
//! log byte-for-byte against a full re-encoding of the history.

use bshm_obs::compute_gap_timeline;
use bshm_obs::sink::partial_path;
use bshm_obs::slo::SloSpec;
use bshm_serve::{builtin_factory, Service, ServiceConfig, Tenant};
use std::path::PathBuf;

const TENANTS: [&str; 4] = ["dec", "inc", "saw", "flt"];

fn config() -> ServiceConfig {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bshm-serve-live-folds-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut c = ServiceConfig::new(dir);
    c.batch_events = 16;
    c.queue_capacity = 4;
    c.patience = 1;
    // Narrow windows so the faulted tenant's crashes pressure the ladder
    // within the session.
    c.slo = SloSpec::parse("window:16;gap:20000:2;storm:1;drops:1").unwrap();
    c
}

fn encode_log(tenant: &Tenant) -> String {
    tenant
        .events()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect()
}

/// Every live-versus-rescan check, for the tenant just stepped (`gap_on`:
/// whether gap gauges were enabled when the step ran). Returns whether a
/// live gap ratio was compared.
fn check_live_state(
    service: &Service,
    slo: &SloSpec,
    gap_on: bool,
    name: &str,
    step: usize,
) -> bool {
    let tenant = service.tenant(name).unwrap();
    if tenant.processed() == 0 {
        // The step's own ladder move rebased the tenant: history, folds
        // and log all start over.
        assert!(tenant.events().is_empty() && tenant.live_health().is_none());
        assert!(!tenant.log_path().exists() && !partial_path(tenant.log_path()).exists());
        return false;
    }
    let live = tenant
        .live_health()
        .unwrap_or_else(|| panic!("{name} step {step}: no live SLO fold"));
    assert_eq!(
        format!("{live:?}"),
        format!("{:?}", tenant.evaluate_slo(slo)),
        "{name} step {step}: live SLO report"
    );
    let catalog = tenant.spec().build_instance().unwrap().catalog().clone();
    let want = if gap_on {
        compute_gap_timeline(tenant.events(), &catalog).final_ratio()
    } else {
        None
    };
    assert_eq!(
        tenant.gap_ratio().map(f64::to_bits),
        want.map(f64::to_bits),
        "{name} step {step}: gap ratio"
    );
    let on_disk = std::fs::read_to_string(tenant.log_path()).unwrap();
    assert!(
        on_disk == encode_log(tenant),
        "{name} step {step}: published log differs from a full re-encoding"
    );
    assert!(
        !partial_path(tenant.log_path()).exists(),
        "{name} step {step}: a .partial log remains"
    );
    want.is_some()
}

#[test]
fn live_folds_equal_the_rescans_on_every_step() {
    let c = config();
    let slo = c.slo.clone();
    let mut service = Service::new(c.clone(), builtin_factory()).unwrap();
    for line in [
        "ADMIT dec dec-online 4 dec:160:11",
        "ADMIT inc inc-online 3 inc:160:12",
        "ADMIT saw gen-online 2 saw:160:13",
        "ADMIT flt best-fit 5 dec:160:14 seeded:41:40",
    ] {
        let reply = service.handle_line(line);
        assert!(reply.starts_with("OK admitted"), "{line} -> {reply}");
    }
    let (mut steps, mut killed, mut restored, mut gap_checks) = (0usize, false, false, 0);
    let mut active: Vec<&str> = TENANTS.to_vec();
    while !active.is_empty() {
        active.retain(|&name| {
            if !killed && steps >= 4 && name == "inc" {
                let reply = service.handle_line("KILL inc");
                assert!(reply.starts_with("OK killed"), "{reply}");
                killed = true;
            }
            let submitted = service.handle_line(&format!("SUBMIT {name} 1"));
            if submitted.contains("was shed") {
                return false;
            }
            assert!(submitted.starts_with("OK queued"), "{name}: {submitted}");
            let gap_on = service.ladder().gap_gauges_enabled();
            let reply = service.handle_line(&format!("STEP {name}"));
            if reply.contains("was shed") {
                return false;
            }
            assert!(reply.starts_with("OK stepped"), "{name}: {reply}");
            restored |= reply.contains(" restored=true ");
            steps += 1;
            gap_checks += usize::from(check_live_state(&service, &slo, gap_on, name, steps));
            !reply.contains(" done=true ")
        });
        assert!(steps < 1_000, "the session should finish");
    }
    let rungs: Vec<u64> = service
        .ladder()
        .transitions()
        .iter()
        .map(|tr| tr.to_rung)
        .collect();
    assert!(
        killed && restored,
        "the session must cover a kill and restore"
    );
    assert!(
        gap_checks >= 4,
        "only {gap_checks} live gap ratios compared"
    );
    let crashed = service
        .tenant("flt")
        .unwrap()
        .events()
        .iter()
        .any(|e| matches!(e, bshm_obs::TraceEvent::MachineCrash { .. }));
    assert!(crashed, "the faulted tenant must see crashes");
    assert!(
        rungs.contains(&2),
        "the session must cover the rung-2 rebase (transitions to {rungs:?})"
    );
    assert!(service.handle_line("DRAIN").starts_with("OK drained"));
    std::fs::remove_dir_all(&c.data_dir).ok();
}
