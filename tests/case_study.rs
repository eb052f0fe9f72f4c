//! Integration test: the paper's §IV-C case study — *allow unlock car door
//! only in emergencies* — end to end, in both SACK deployment modes.

use std::sync::Arc;

use sack_apparmor::{AppArmor, PolicyDb};
use sack_core::Sack;
use sack_kernel::kernel::{Kernel, KernelBuilder};
use sack_kernel::lsm::SecurityModule;
use sack_sds::sensors::SensorFrame;
use sack_sds::service::{standard_detectors, SdsService};
use sack_sds::traces::highway_crash;
use sack_vehicle::car::CarHardware;
use sack_vehicle::ivi::{standard_manifests, IviApp, IviError, IviSystem};
use sack_vehicle::policies::{
    VEHICLE_APPARMOR_PROFILES, VEHICLE_ENHANCED_POLICY, VEHICLE_SACK_POLICY,
};
use std::time::Duration;

struct CaseStudy {
    kernel: Arc<Kernel>,
    sack: Arc<Sack>,
    hw: CarHardware,
    ivi: IviSystem,
    apps: Vec<IviApp>,
}

impl CaseStudy {
    fn rescue(&self) -> &IviApp {
        &self.apps[2]
    }

    fn media(&self) -> &IviApp {
        &self.apps[0]
    }
}

fn setup_independent() -> CaseStudy {
    let sack = Sack::independent(VEHICLE_SACK_POLICY).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    finish_setup(kernel, sack)
}

fn setup_enhanced() -> CaseStudy {
    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    let apparmor = AppArmor::new(db);
    let sack = Sack::enhanced_apparmor(VEHICLE_ENHANCED_POLICY, Arc::clone(&apparmor)).unwrap();
    let kernel = KernelBuilder::new()
        .security_module(Arc::clone(&sack) as Arc<dyn SecurityModule>)
        .security_module(Arc::clone(&apparmor) as Arc<dyn SecurityModule>)
        .boot();
    sack.attach(&kernel).unwrap();
    finish_setup(kernel, sack)
}

fn finish_setup(kernel: Arc<Kernel>, sack: Arc<Sack>) -> CaseStudy {
    let hw = CarHardware::install(&kernel, 4, 4).unwrap();
    let mut ivi = IviSystem::new(Arc::clone(&kernel));
    let apps = standard_manifests()
        .into_iter()
        .map(|m| ivi.install_app(m).unwrap())
        .collect();
    CaseStudy {
        kernel,
        sack,
        hw,
        ivi,
        apps,
    }
}

fn crash_then_rescue(case: CaseStudy) {
    // Normal situation: nobody can unlock, not even the rescue daemon.
    assert!(matches!(
        case.rescue().unlock_door(0),
        Err(IviError::Kernel(_))
    ));
    assert!(case.hw.all_doors_locked());

    // The SDS replays a highway drive ending in a crash.
    let mut sds = SdsService::spawn(&case.kernel, standard_detectors()).unwrap();
    let report = sds.run_trace(&case.kernel, &highway_crash(8));
    assert!(report.events.contains(&"crash".to_string()));
    assert_eq!(case.sack.current_state_name(), "emergency");

    // Break the glass: doors and windows open for evacuation.
    for i in 0..4 {
        case.rescue().unlock_door(i).unwrap();
        case.rescue().open_window(i, 100).unwrap();
    }
    assert!(!case.hw.all_doors_locked());
    assert!(case.hw.windows().iter().all(|w| w.position() == 100));

    // A co-located app without the permission still cannot.
    assert!(case.media().unlock_door(0).is_err());

    // Resolution retracts the permission.
    sds.send_event("emergency_resolved").unwrap();
    assert_eq!(case.sack.current_state_name(), "parking_with_driver");
    assert!(case.rescue().unlock_door(0).is_err());
    sds.shutdown();
}

#[test]
fn independent_sack_case_study() {
    crash_then_rescue(setup_independent());
}

#[test]
fn enhanced_apparmor_case_study() {
    crash_then_rescue(setup_enhanced());
}

#[test]
fn framework_audit_captures_denied_and_allowed() {
    let case = setup_independent();
    let _ = case.media().unlock_door(0); // framework denies
    let _ = case.media().set_volume(50); // framework allows, kernel decides
    let log = case.ivi.audit_log();
    assert_eq!(log.len(), 2);
    assert!(!log[0].framework_allowed);
    assert!(log[1].framework_allowed);
}

#[test]
fn read_permission_survives_every_state() {
    // NORMAL (read access) is granted in all four states of the vehicle
    // policy — driving through the whole Fig. 2 machine must never break
    // the navi app's status reads.
    let case = setup_independent();
    let sds = SdsService::spawn(&case.kernel, standard_detectors()).unwrap();
    let navi = &case.apps[1];
    let mut visited = vec![case.sack.current_state_name()];
    for event in [
        "driver_left",
        "driver_entered",
        "start_driving",
        "crash",
        "emergency_resolved",
    ] {
        sds.send_event(event).unwrap();
        visited.push(case.sack.current_state_name());
        // Plain reads of the device node are covered by NORMAL in every
        // state (an ioctl, even a status query, would rightly need more).
        let state = navi.process().read_to_vec("/dev/car/door0");
        assert!(
            state.is_ok(),
            "read denied in state {}",
            case.sack.current_state_name()
        );
        assert_eq!(state.unwrap(), b"locked\n");
    }
    assert!(visited.contains(&"parking_without_driver".to_string()));
    assert!(visited.contains(&"emergency".to_string()));
    sds.shutdown();
}

#[test]
fn kernel_history_records_the_crash_time() {
    let case = setup_independent();
    let mut sds = SdsService::spawn(&case.kernel, standard_detectors()).unwrap();
    let crash_frame = SensorFrame::parked(Duration::from_secs(42))
        .with_speed(80.0)
        .with_accel(25.0);
    // Drive first so the crash transition exists from the current state.
    sds.send_event("start_driving").unwrap();
    sds.run_trace(&case.kernel, std::slice::from_ref(&crash_frame));
    let active = case.sack.active();
    let history = active.ssm.history();
    let crash = history
        .iter()
        .find(|r| active.ssm.space().event(r.event).name == "crash")
        .expect("crash recorded");
    assert_eq!(crash.at, Duration::from_secs(42));
    sds.shutdown();
}

/// An enhanced transition rewrites AppArmor in one publish: each step of a
/// walk through every vehicle state moves `PolicyDb::revision` by exactly
/// one (every step changes some app's rules), and once every state has been
/// visited, transitions compile nothing.
#[test]
fn enhanced_transitions_publish_once_each() {
    let db = Arc::new(PolicyDb::new());
    db.load_text(VEHICLE_APPARMOR_PROFILES).unwrap();
    let apparmor = AppArmor::new(Arc::clone(&db));
    let sack = Sack::enhanced_apparmor(VEHICLE_ENHANCED_POLICY, apparmor).unwrap();
    let walk = [
        "crash",
        "emergency_resolved",
        "driver_left",
        "driver_entered",
        "start_driving",
        "park",
    ];
    let mut first_lap = 0;
    for lap in 0..2 {
        for event in walk {
            let revision = db.revision();
            sack.deliver_event(event, Duration::ZERO).unwrap();
            assert_eq!(db.revision(), revision + 1, "lap {lap}, `{event}`");
        }
        if lap == 0 {
            first_lap = db.compile_count();
        }
    }
    assert_eq!(db.compile_count(), first_lap, "the second lap compiled");
}
