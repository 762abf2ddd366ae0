//! End-to-end scenarios: the paper's §2.3 stories run against the full
//! system — protocol upload, five-step reconfiguration, validation,
//! rollback, and signal-level proof that the new personality works.

use crate::ncc::Ncc;
use gsp_fpga::device::FpgaDevice;
use gsp_netproto::link::LinkConfig;
use gsp_netproto::scenarios::TransferProtocol;
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::{FaultInjection, Obpc, ReconfigReport};
use gsp_waveform::{WaveformDescriptor, WaveformFrameReport, WaveformRegistry};

/// Configuration of the flagship CDMA→TDMA waveform-change scenario.
#[derive(Clone, Debug)]
pub struct WaveformSwitchConfig {
    /// Is the TDMA bitstream already in the on-board library (§3.2)?
    pub library_hit: bool,
    /// Upload protocol when not a library hit.
    pub upload_protocol: TransferProtocol,
    /// The TC/TM link.
    pub link: LinkConfig,
    /// Inject a configuration fault to exercise rollback.
    pub fault: Option<FaultInjection>,
}

impl Default for WaveformSwitchConfig {
    fn default() -> Self {
        WaveformSwitchConfig {
            library_hit: false,
            upload_protocol: TransferProtocol::Bulk { window: 32 * 1024 },
            link: LinkConfig::geo_default(),
            fault: None,
        }
    }
}

/// Everything the scenario produces.
#[derive(Clone, Debug)]
pub struct WaveformSwitchOutcome {
    /// New personality in service?
    pub success: bool,
    /// Previous personality restored after a failure?
    pub rolled_back: bool,
    /// Bitstream upload time, seconds (0 on library hit).
    pub upload_s: f64,
    /// Command + telemetry round trip, seconds.
    pub command_rtt_s: f64,
    /// Service interruption, milliseconds.
    pub interruption_ms: f64,
    /// Total ground-initiated change latency, seconds.
    pub total_s: f64,
    /// CDMA self-test before the change.
    pub cdma_verified: WaveformFrameReport,
    /// TDMA self-test after the change (or CDMA re-test after rollback).
    pub tdma_verified: WaveformFrameReport,
    /// The OBPC's step-by-step report.
    pub report: ReconfigReport,
}

/// Runs the §2.3 waveform change: an in-service S-UMTS CDMA demodulator is
/// reconfigured into the MF-TDMA personality.
pub fn waveform_switch(cfg: &WaveformSwitchConfig, seed: u64) -> WaveformSwitchOutcome {
    let device = FpgaDevice::virtex_like_1m();
    let cdma = WaveformDescriptor {
        carriers: 1,
        ..WaveformDescriptor::sumts_cdma()
    };
    let tdma = WaveformDescriptor::mf_tdma();
    let registry = WaveformRegistry::builtin();
    let self_test = |d: &WaveformDescriptor, seed: u64| {
        registry
            .self_test(d, seed)
            .expect("builtin personality loads")
    };

    // Ground side.
    let mut ncc = Ncc::new(cfg.link);
    ncc.register_bitstream("cdma.bit", &cdma.bitstream_for(&device));
    ncc.register_bitstream("tdma.bit", &tdma.bitstream_for(&device));

    // Space side: payload with the CDMA personality in service.
    let mut obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
    obpc.memory
        .store("cdma.bit", ncc.design_bytes("cdma.bit").unwrap().to_vec())
        .unwrap();
    let pre = obpc.reconfigure(3, "cdma.bit", None).expect("initial load");
    assert!(pre.success, "initial CDMA load must succeed");
    let cdma_verified = self_test(&cdma, seed);

    // Phase 1: deliver the TDMA bitstream (upload or library hit).
    let upload_s = if cfg.library_hit {
        0.0
    } else {
        let st = ncc
            .upload("tdma.bit", cfg.upload_protocol, seed)
            .expect("catalogued");
        assert!(st.delivered, "upload must complete");
        st.duration_s
    };
    obpc.memory
        .store("tdma.bit", ncc.design_bytes("tdma.bit").unwrap().to_vec())
        .unwrap();

    // Phase 2: the reconfiguration telecommand (1 uplink leg) and its
    // telemetry (1 downlink leg).
    let command_rtt_s = cfg.link.rtt_ns() as f64 / 1e9;

    // Phase 3: the five-step on-board process.
    let report = obpc
        .reconfigure(3, "tdma.bit", cfg.fault)
        .expect("service runs");

    // Phase 4: functional verification of whatever is now in service.
    let tdma_verified = if report.success {
        self_test(&tdma, seed + 1)
    } else {
        self_test(&cdma, seed + 1) // rollback leaves CDMA running
    };

    WaveformSwitchOutcome {
        success: report.success,
        rolled_back: report.rolled_back,
        upload_s,
        command_rtt_s,
        interruption_ms: report.interruption_ns as f64 / 1e6,
        total_s: upload_s + command_rtt_s + report.total_ns() as f64 / 1e9,
        cdma_verified,
        tdma_verified,
        report,
    }
}

/// Downlinks `registry`'s snapshot as one CRC-protected housekeeping
/// frame through the platform TM queue and has the NCC decode it.
/// Returns the decoded snapshot and the encoded frame size in bytes.
fn downlink_housekeeping(registry: &gsp_telemetry::Registry) -> (gsp_telemetry::Snapshot, usize) {
    use gsp_payload::platform::{Platform, Telemetry};

    let mut platform = Platform::new();
    let frame = crate::housekeeping::encode_frame(&registry.snapshot());
    let frame_bytes = frame.len();
    platform.report(Telemetry::Housekeeping { frame });
    let mut ncc = Ncc::new(LinkConfig::geo_default());
    for tm in platform.downlink() {
        ncc.ingest_telemetry(&tm);
    }
    let snapshot = ncc
        .housekeeping()
        .cloned()
        .expect("clean frame must decode");
    (snapshot, frame_bytes)
}

/// Offered traffic load of the live hot-swap soak, as a multiple of
/// uplink capacity.
const SWAP_SOAK_LOAD: f64 = 1.0;
/// SEU rate multiplier for the FDIR injector running under the live
/// hot-swap soak.
const SWAP_SOAK_SEU_RATE_MULTIPLIER: f64 = 3.0;

/// Configuration of the live hot-swap soak (see [`waveform_swap_soak`]).
#[derive(Clone, Debug)]
pub struct WaveformSwapSoakConfig {
    /// Frame ticks to run.
    pub frames: u64,
    /// The personality holding the carrier at boot.
    pub from: gsp_waveform::WaveformDescriptor,
    /// The personality the swap command asks for.
    pub to: gsp_waveform::WaveformDescriptor,
    /// Frame boundary at which the carrier quiesces.
    pub swap_at: u64,
    /// Scripted waveform-processor fault, as a window step index: the
    /// FDIR fault signal goes high `fault_at_step` ticks into the swap
    /// window, forcing a rollback. `None` lets the swap commit.
    pub fault_at_step: Option<u64>,
}

impl WaveformSwapSoakConfig {
    /// The acceptance regime: a CDMA→MF-TDMA hot-swap at mid-run, under
    /// 1.0× offered load, with SEUs at 3× the Table 1 baseline.
    pub fn standard() -> Self {
        WaveformSwapSoakConfig {
            frames: 96,
            from: gsp_waveform::WaveformDescriptor::sumts_cdma(),
            to: gsp_waveform::WaveformDescriptor::mf_tdma(),
            swap_at: 40,
            fault_at_step: None,
        }
    }
}

/// Outcome of the live hot-swap soak with its status downlinked.
#[derive(Clone, Debug)]
pub struct WaveformSwapSoakOutcome {
    /// Everything the swap did (uplink cost, window length, trials,
    /// replay accounting, the measured service interruption).
    pub swap: gsp_waveform::SwapReport,
    /// Controller phase at end of run.
    pub phase: gsp_waveform::SwapPhase,
    /// Name of the personality holding the carrier at end of run.
    pub active: String,
    /// Per-tick waveform frame reports, in tick order — every tick
    /// appears exactly once, swap or no swap (buffered ticks are
    /// replayed, never dropped).
    pub frame_reports: Vec<gsp_waveform::WaveformFrameReport>,
    /// Voice-class (class 0) packets offered by the traffic plane.
    pub voice_offered: u64,
    /// Voice-class packets delivered end to end.
    pub voice_delivered: u64,
    /// Voice-class packets dropped anywhere (aged, switch, shed) — the
    /// acceptance criterion holds this at zero across the swap.
    pub voice_dropped: u64,
    /// What the NCC decoded from the housekeeping frame (`traffic.*`
    /// and `fdir.*` metrics of the soak running underneath).
    pub snapshot: gsp_telemetry::Snapshot,
    /// Encoded housekeeping frame size, bytes.
    pub frame_bytes: usize,
}

/// The live in-orbit waveform exchange: while the FDIR harness offers
/// 1.0× traffic and injects SEUs at 3× the Table 1 baseline on live
/// equipment, a swap command arrives over the N3 stack (descriptor
/// delivered and validated via TFTP), the carrier quiesces at
/// `swap_at`, the old personality is deactivated, the new one runs its
/// confidence window, and the frames that arrived meanwhile are
/// replayed — committed or, if the scripted waveform-processor fault
/// lands mid-window, rolled back onto the old personality with a
/// bitwise-contiguous frame history. Distinct from
/// [`waveform_switch`], which exercises the narrative §2.3
/// reconfiguration story offline; this one keeps the transponder live
/// throughout. Bitwise deterministic per `(config, seed)`.
///
/// The ambient SEUs land on beam equipment and are handled by the FDIR
/// recovery ladder without aborting the swap; only the scripted fault —
/// standing in for a fault addressed at the waveform processor itself —
/// trips the rollback path.
pub fn waveform_swap_soak(cfg: &WaveformSwapSoakConfig, seed: u64) -> WaveformSwapSoakOutcome {
    let registry = gsp_telemetry::Registry::new();

    // The load + fault plane underneath: the FDIR soak harness at the
    // soak's load and SEU rate, stepped tick by tick alongside the
    // waveform plane.
    let mut hcfg = gsp_fdir::HarnessConfig::soak(SWAP_SOAK_SEU_RATE_MULTIPLIER);
    hcfg.load = SWAP_SOAK_LOAD;
    hcfg.frames = cfg.frames;
    hcfg.inject_until = cfg.frames.saturating_sub(cfg.frames / 8);
    let mut harness = gsp_fdir::FdirHarness::with_telemetry(hcfg, seed, &registry);

    // The waveform plane: registry-loaded personality under the
    // hot-swap controller, swap command delivered over TFTP up front
    // (the carrier is live while the wire form crosses the uplink).
    let mut controller =
        gsp_waveform::HotSwapController::new(gsp_waveform::WaveformRegistry::builtin(), &cfg.from)
            .expect("boot personality loads");
    controller
        .command_swap(
            gsp_waveform::SwapCommand::new(&cfg.to, cfg.swap_at),
            seed ^ 0x5A_AB,
        )
        .expect("swap command delivers and validates");

    let mut frame_reports = Vec::with_capacity(cfg.frames as usize);
    for tick in 0..cfg.frames {
        harness.step();
        let fault = cfg
            .fault_at_step
            .map(|s| tick == cfg.swap_at + s)
            .unwrap_or(false);
        frame_reports.extend(controller.step(seed, tick, fault).reports);
    }

    let stats = harness.engine().stats().clone();
    let voice = &stats.classes[0];

    let (snapshot, frame_bytes) = downlink_housekeeping(&registry);

    WaveformSwapSoakOutcome {
        swap: controller.swap_report().clone(),
        phase: controller.phase(),
        active: controller.active_name().to_string(),
        frame_reports,
        voice_offered: voice.offered,
        voice_delivered: voice.delivered,
        voice_dropped: voice.dropped_aged
            + voice.dropped_switch
            + voice.dropped_shed
            + controller.swap_report().handover_dropped,
        snapshot,
        frame_bytes,
    }
}

/// Offered traffic load of the ground-contact soak (fraction of
/// capacity).
const GROUND_SOAK_LOAD: f64 = 0.75;
/// Golden-bitstream size of the ground-contact soak: configuration
/// frames per beam FPGA. 48 frames serialise to ~25 TFTP blocks — more
/// than one clean pass carries, so the re-upload *must* span passes.
const GOLDEN_FRAMES: usize = 48;
/// Background SEU rate multiplier of the ground-contact soak (0 = only
/// the forced fault).
const BACKGROUND_RATE: f64 = 0.0;
/// Contact-plan horizon per upload, nanoseconds: 20 orbits.
const HORIZON_NS: u64 = 40_000_000_000;
/// Beam the forced hard fault lands on at tick 0.
const FAULTED_BEAM: usize = 0;

/// Configuration of the ground-contact soak (see [`ground_contact_soak`]).
#[derive(Clone, Debug)]
pub struct GroundSoakConfig {
    /// Frame ticks to run.
    pub frames: u64,
    /// Link-fade fault injection on the contact plane.
    pub fades: gsp_ground::FadeConfig,
    /// On-board resume-state lifetime, nanoseconds (0 = forever).
    pub resume_expiry_ns: u64,
}

impl GroundSoakConfig {
    /// The standard soak: 256 frames at 0.75 load, a 48-frame golden
    /// image, soak-grade fades, no background SEUs, 20 orbits of plan.
    pub fn standard() -> Self {
        GroundSoakConfig {
            frames: 256,
            fades: gsp_ground::FadeConfig::soak(),
            resume_expiry_ns: 0,
        }
    }
}

/// Everything the ground-contact soak produced.
#[derive(Clone, Debug)]
pub struct GroundSoakOutcome {
    /// The FDIR soak report, upload records included.
    pub report: gsp_fdir::SoakReport,
    /// The pass scheduler's account of the routine ground work
    /// (waveform descriptor + housekeeping dumps) over the same plan.
    pub ground_work: gsp_ground::ScheduleReport,
    /// Contact windows in the compiled plan.
    pub plan_windows: usize,
    /// Fraction of the horizon in contact with any station.
    pub duty_cycle: f64,
    /// Cross-pass resumes across all golden-bitstream uploads.
    pub upload_resumes: u64,
    /// Any upload that crossed at least two stations?
    pub cross_station_resume: bool,
    /// Ticks from the forced hard fault to the beam back in service
    /// (None = never recovered).
    pub recovery_ticks: Option<u64>,
    /// Voice-class packets dropped during the soak.
    pub voice_dropped: u64,
}

/// Runs the ground-segment contact plane end to end: a forced hard
/// fault sends beam 0 down the FDIR ladder to the
/// Reconfigure rung, whose golden-bitstream re-upload now crosses a
/// pass-windowed, Doppler-derated, fade-injected three-station network
/// instead of an always-on GEO pipe. The image is sized not to fit one
/// pass: the TFTP transfer suspends at the stalled block on loss of
/// signal and resumes byte-exact on a later pass — at whichever station
/// rises next — while the quarantined beam's voice traffic reroutes.
/// The same plan also carries the routine ground work through the pass
/// scheduler. Bitwise deterministic per `(config, seed)`.
pub fn ground_contact_soak(cfg: &GroundSoakConfig, seed: u64) -> GroundSoakOutcome {
    use gsp_netproto::BackoffPolicy;

    let contact = gsp_ground::ContactLink::standard(cfg.fades, seed ^ 0x6E0F_17A5);
    let plan = contact.schedule(HORIZON_NS);

    // The uplink: the orbit's zenith channel as the base, a backoff
    // sized for the per-block ~11 ms lockstep, sessions bounded by each
    // contact run's LOS, and enough of them to cross several passes.
    let uplink = gsp_fdir::ReconfigUplink {
        backoff: BackoffPolicy {
            base_ns: 30_000_000,
            max_ns: 120_000_000,
            jitter: 0.25,
            max_attempts: 4,
        },
        link: gsp_ground::orbit::ZENITH_LINK,
        max_sessions: 40,
        session_deadline_ns: 400_000_000,
        contacts: None,
        resume_expiry_ns: 0,
    }
    .over_contacts(plan.clone(), cfg.resume_expiry_ns);

    let harness_cfg = gsp_fdir::HarnessConfig {
        frames: cfg.frames,
        inject_until: cfg.frames.saturating_sub(96),
        load: GROUND_SOAK_LOAD,
        golden_frames: GOLDEN_FRAMES,
        uplink,
        rate_multiplier: BACKGROUND_RATE,
        ..gsp_fdir::HarnessConfig::soak(1.0)
    };
    let mut harness = gsp_fdir::FdirHarness::new(harness_cfg, seed);
    harness.force_hard_fault(FAULTED_BEAM);
    let report = harness.run();

    // The routine ground work over the same contact plane.
    let jobs = [
        gsp_ground::Job {
            id: 0,
            kind: gsp_ground::JobKind::WaveformDescriptor,
            priority: 1,
            bytes: 2 * 1024,
        },
        gsp_ground::Job {
            id: 1,
            kind: gsp_ground::JobKind::HousekeepingDownlink,
            priority: 2,
            bytes: 96 * 1024,
        },
        gsp_ground::Job {
            id: 2,
            kind: gsp_ground::JobKind::HousekeepingDownlink,
            priority: 3,
            bytes: 64 * 1024,
        },
    ];
    let ground_work = gsp_ground::run_schedule(&jobs, &plan, cfg.resume_expiry_ns);

    let upload_resumes = report
        .uploads
        .iter()
        .map(|u| u.outcome.resumed_at_block.len() as u64)
        .sum();
    let cross_station_resume = report
        .uploads
        .iter()
        .any(|u| u.outcome.stations_used.len() >= 2);
    GroundSoakOutcome {
        plan_windows: plan.windows().len(),
        duty_cycle: plan.contact_ns() as f64 / HORIZON_NS as f64,
        upload_resumes,
        cross_station_resume,
        recovery_ticks: report.mttr_ticks.first().copied(),
        voice_dropped: report.voice_dropped,
        ground_work,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_soak_recovers_across_passes_without_dropping_voice() {
        let out = ground_contact_soak(&GroundSoakConfig::standard(), 31);
        assert!(
            out.report.healthy_at_end,
            "the forced hard fault must heal: {:?}",
            out.report
        );
        assert!(
            out.upload_resumes >= 1,
            "a 48-frame image cannot fit one pass: {:?}",
            out.report.uploads
        );
        assert_eq!(out.voice_dropped, 0, "reroute must be lossless");
        assert!(out.recovery_ticks.is_some());
        assert!(
            out.ground_work.unfinished.is_empty(),
            "{:?}",
            out.ground_work
        );
    }

    #[test]
    fn nominal_switch_succeeds_and_verifies() {
        let out = waveform_switch(&WaveformSwitchConfig::default(), 1);
        assert!(out.success && !out.rolled_back);
        assert!(out.cdma_verified.clean(), "CDMA must work before");
        assert!(out.tdma_verified.clean(), "TDMA must work after");
        assert!(
            out.upload_s > 1.0,
            "a 96 KiB bitstream takes seconds on 256 kbps"
        );
        // Interruption is milliseconds — service loss is brief even though
        // the end-to-end change takes seconds (upload dominates).
        assert!(out.interruption_ms < 100.0, "{}", out.interruption_ms);
        assert!(out.total_s > out.upload_s);
    }

    #[test]
    fn library_hit_removes_upload_from_critical_path() {
        let with_upload = waveform_switch(&WaveformSwitchConfig::default(), 2);
        let library = waveform_switch(
            &WaveformSwitchConfig {
                library_hit: true,
                ..WaveformSwitchConfig::default()
            },
            2,
        );
        assert!(library.success);
        assert_eq!(library.upload_s, 0.0);
        assert!(
            library.total_s < with_upload.total_s / 2.0,
            "library {} vs upload {}",
            library.total_s,
            with_upload.total_s
        );
    }

    #[test]
    fn fault_rolls_back_and_cdma_still_works() {
        let out = waveform_switch(
            &WaveformSwitchConfig {
                fault: Some(FaultInjection::CorruptAfterLoad),
                ..WaveformSwitchConfig::default()
            },
            3,
        );
        assert!(!out.success && out.rolled_back);
        assert!(out.tdma_verified.clean(), "rollback must restore service");
    }

    #[test]
    fn design_ids_are_distinct() {
        let modems = [
            WaveformDescriptor::sumts_cdma(),
            WaveformDescriptor {
                carriers: 1,
                ..WaveformDescriptor::sumts_cdma()
            },
            WaveformDescriptor::mf_tdma(),
        ];
        let ids: Vec<u32> = modems.iter().map(WaveformDescriptor::design_id).collect();
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "{ids:x?}");
    }

    #[test]
    fn housekeeping_downlink_reaches_the_ground_intact() {
        let cfg = gsp_payload::chain::ChainConfig {
            esn0_db: Some(12.0),
            ..gsp_payload::chain::ChainConfig::default()
        };
        let registry = gsp_telemetry::Registry::new();
        let mut engine = gsp_payload::pipeline::PipelineEngine::new(cfg);
        engine.set_telemetry(&registry);
        let reports = engine.run_frames(3, 21);
        let (snapshot, frame_bytes) = downlink_housekeeping(&registry);
        // The ground picture agrees with the on-board truth.
        assert_eq!(snapshot.counter("payload.frames"), 3);
        let forwarded: u64 = reports.iter().map(|r| r.packets_forwarded).sum();
        assert_eq!(snapshot.counter("payload.packets.forwarded"), forwarded);
        // Stage histograms arrived with their percentile summaries.
        let demod = snapshot.histogram("payload.demod.ns").expect("demod");
        assert_eq!(demod.count, 3 * 6);
        assert!(demod.p50 > 0 && demod.p50 <= demod.p99);
        assert!(frame_bytes > crate::housekeeping::HK_OVERHEAD);
        // Modem-layer counters ride the same frame.
        assert_eq!(snapshot.counter("modem.tdma.bursts"), 3 * 6);
    }

    #[test]
    fn fdir_soak_downlinks_its_status() {
        let registry = gsp_telemetry::Registry::new();
        let report = gsp_fdir::FdirHarness::with_telemetry(
            gsp_fdir::HarnessConfig::soak(10.0),
            11,
            &registry,
        )
        .run();
        let (snapshot, _) = downlink_housekeeping(&registry);
        // Ground-truth report and downlinked telemetry must agree.
        assert_eq!(snapshot.counter("fdir.detections"), report.detections);
        assert_eq!(snapshot.counter("fdir.transitions"), report.transitions);
        assert_eq!(
            snapshot.counter("fdir.recovery.scrub"),
            report.escalations[0]
        );
        let mttr = snapshot.histogram("fdir.recovery.mttr").unwrap();
        assert_eq!(mttr.count, report.mttr_ticks.len() as u64);
        assert!(report.availability > 0.95);
    }

    #[test]
    fn constellation_soak_downlinks_every_shard_scoped() {
        let registry = gsp_telemetry::Registry::new();
        let cfg = gsp_constellation::ConstellationConfig::standard(3, 1.0);
        let mut engine = gsp_constellation::ConstellationEngine::with_telemetry(cfg, 11, &registry);
        engine.run(64);
        let report = engine.report();
        let (snapshot, _) = downlink_housekeeping(&registry);
        assert!(report.quarantines.is_empty());
        // Every shard's metrics reach the ground under its own scope,
        // and they agree with the ground-truth report.
        for (i, sat) in report.satellites.iter().enumerate() {
            assert_eq!(
                snapshot.counter(&format!("sat{i}.traffic.frames")),
                sat.frames_run
            );
            assert_eq!(
                snapshot.counter(&format!("sat{i}.traffic.voice.delivered")),
                sat.traffic.classes[0].delivered
            );
        }
        let isl_out: u64 = (0..3)
            .map(|i| snapshot.counter(&format!("sat{i}.traffic.isl.out")))
            .sum();
        assert!(isl_out > 0, "ISL traffic must show in telemetry");
    }

    #[test]
    fn corrupted_housekeeping_frame_is_rejected_whole() {
        let registry = gsp_telemetry::Registry::new();
        registry.counter("payload.frames").add(5);
        let mut frame = crate::housekeeping::encode_frame(&registry.snapshot());
        let mid = frame.len() / 2;
        frame[mid] ^= 0x40;
        let mut ncc = Ncc::new(LinkConfig::geo_default());
        let tm = gsp_payload::platform::Telemetry::Housekeeping { frame };
        assert!(!ncc.ingest_telemetry(&tm));
        assert!(ncc.housekeeping().is_none());
        assert_eq!(ncc.housekeeping_stats(), (0, 1));
    }

    #[test]
    fn waveform_swap_soak_commits_live_with_zero_voice_drops() {
        let mut cfg = WaveformSwapSoakConfig::standard();
        cfg.frames = 48;
        cfg.swap_at = 20;
        let out = waveform_swap_soak(&cfg, 5);
        assert_eq!(out.phase, gsp_waveform::SwapPhase::Committed);
        assert_eq!(out.active, "mf-tdma");
        assert!(out.swap.committed && !out.swap.rolled_back);
        assert_eq!(out.voice_dropped, 0, "voice must survive the swap");
        assert!(out.voice_delivered > 0);
        // The ground's picture, decoded from the housekeeping frame,
        // agrees with the on-board truth.
        assert_eq!(
            out.snapshot.counter("traffic.voice.delivered"),
            out.voice_delivered
        );
        assert!(out.swap.interruption_ms() > 0.0);
        // Every tick retired exactly once, in order — buffered frames
        // were replayed, not dropped.
        let ticks: Vec<u64> = out.frame_reports.iter().map(|f| f.tick).collect();
        assert_eq!(ticks, (0..cfg.frames).collect::<Vec<u64>>());
        assert!(out.frame_bytes > crate::housekeeping::HK_OVERHEAD);
    }

    #[test]
    fn waveform_swap_soak_fault_rolls_back_and_reconverges() {
        let mut cfg = WaveformSwapSoakConfig::standard();
        cfg.frames = 48;
        cfg.swap_at = 20;
        cfg.fault_at_step = Some(1);
        let out = waveform_swap_soak(&cfg, 5);
        assert_eq!(out.phase, gsp_waveform::SwapPhase::RolledBack);
        assert_eq!(out.active, "sumts-cdma", "old personality restored");
        assert_eq!(out.voice_dropped, 0, "voice must survive the rollback");

        // After the rollback the history re-converges on the
        // never-swapped run: the waveform plane's reports are identical
        // frame for frame (frames are pure in (seed, tick)).
        let mut no_swap_cfg = cfg.clone();
        no_swap_cfg.fault_at_step = None;
        let mut controller = gsp_waveform::HotSwapController::new(
            gsp_waveform::WaveformRegistry::builtin(),
            &cfg.from,
        )
        .unwrap();
        let baseline: Vec<gsp_waveform::WaveformFrameReport> = (0..cfg.frames)
            .flat_map(|tick| controller.step(5, tick, false).reports)
            .collect();
        assert_eq!(out.frame_reports, baseline);
    }

    #[test]
    fn waveform_swap_soak_is_reproducible() {
        let mut cfg = WaveformSwapSoakConfig::standard();
        cfg.frames = 48;
        cfg.swap_at = 16;
        let a = waveform_swap_soak(&cfg, 9);
        let b = waveform_swap_soak(&cfg, 9);
        assert_eq!(a.frame_reports, b.frame_reports);
        assert_eq!(a.swap, b.swap);
        assert_eq!(a.snapshot, b.snapshot);
    }

    #[test]
    fn tftp_upload_is_much_slower() {
        let bulk = waveform_switch(&WaveformSwitchConfig::default(), 4);
        let tftp = waveform_switch(
            &WaveformSwitchConfig {
                upload_protocol: TransferProtocol::Tftp,
                ..WaveformSwitchConfig::default()
            },
            4,
        );
        assert!(tftp.success);
        assert!(
            tftp.upload_s > 3.0 * bulk.upload_s,
            "TFTP {} vs bulk {}",
            tftp.upload_s,
            bulk.upload_s
        );
    }
}
