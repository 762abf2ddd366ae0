//! End-to-end integration: the full CDMA→TDMA story across every layer —
//! NCC catalogue, protocol upload, platform telecommands, OBPC five-step
//! service, fabric CRC validation, waveform self-test, and the Fig. 2
//! traffic chain afterwards.

use gsp_core::scenario::{waveform_switch, WaveformSwitchConfig};
use gsp_fpga::device::FpgaDevice;
use gsp_netproto::scenarios::TransferProtocol;
use gsp_payload::chain::{run_mf_tdma_frame, ChainConfig};
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::{FaultInjection, Obpc};
use gsp_payload::platform::{Platform, Telecommand, Telemetry};
use gsp_waveform::WaveformDescriptor;

#[test]
fn flagship_scenario_all_variants_behave() {
    // Nominal.
    let nominal = waveform_switch(&WaveformSwitchConfig::default(), 100);
    assert!(nominal.success && !nominal.rolled_back);
    assert!(nominal.cdma_verified.clean() && nominal.tdma_verified.clean());

    // TFTP pays the stop-and-wait tax but still succeeds.
    let tftp = waveform_switch(
        &WaveformSwitchConfig {
            upload_protocol: TransferProtocol::Tftp,
            ..WaveformSwitchConfig::default()
        },
        100,
    );
    assert!(tftp.success);
    assert!(tftp.upload_s > 5.0 * nominal.upload_s);

    // Library hit collapses the critical path to the command RTT + ms.
    let lib = waveform_switch(
        &WaveformSwitchConfig {
            library_hit: true,
            ..WaveformSwitchConfig::default()
        },
        100,
    );
    assert!(lib.success && lib.total_s < 1.0);

    // Fault → rollback leaves CDMA serving.
    let fault = waveform_switch(
        &WaveformSwitchConfig {
            library_hit: true,
            fault: Some(FaultInjection::CorruptAfterLoad),
            ..WaveformSwitchConfig::default()
        },
        100,
    );
    assert!(!fault.success && fault.rolled_back && fault.tdma_verified.clean());
}

#[test]
fn telecommand_driven_switch_then_traffic() {
    // Drive the change purely through the platform TC/TM interface, then
    // verify the payload chain still moves packets.
    let device = FpgaDevice::virtex_like_1m();
    let cdma = WaveformDescriptor {
        carriers: 1,
        ..WaveformDescriptor::sumts_cdma()
    };
    let tdma = WaveformDescriptor::mf_tdma();
    let mut obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
    let mut platform = Platform::new();

    platform.uplink(Telecommand::StoreBitstream {
        name: "cdma.bit".into(),
        data: cdma.bitstream_for(&device).serialise().to_vec(),
    });
    platform.uplink(Telecommand::Reconfigure {
        equipment: 3,
        name: "cdma.bit".into(),
    });
    platform.uplink(Telecommand::StoreBitstream {
        name: "tdma.bit".into(),
        data: tdma.bitstream_for(&device).serialise().to_vec(),
    });
    platform.uplink(Telecommand::Reconfigure {
        equipment: 3,
        name: "tdma.bit".into(),
    });
    platform.uplink(Telecommand::Validate { equipment: 3 });
    platform.uplink(Telecommand::StatusRequest { equipment: 3 });
    obpc.service_platform(&mut platform);

    let tm = platform.downlink();
    assert_eq!(tm.len(), 6);
    assert!(matches!(
        tm[1],
        Telemetry::ReconfigDone { success: true, .. }
    ));
    assert!(matches!(
        tm[3],
        Telemetry::ReconfigDone { success: true, .. }
    ));
    assert!(matches!(
        tm[4],
        Telemetry::ValidationReport { crc_ok: true, .. }
    ));
    match &tm[5] {
        Telemetry::Status {
            running, design_id, ..
        } => {
            assert!(*running);
            assert_eq!(*design_id, Some(tdma.design_id()));
        }
        other => panic!("unexpected telemetry {other:?}"),
    }

    // And the new personality carries traffic through Fig. 2.
    let report = run_mf_tdma_frame(&ChainConfig::default(), 55);
    assert!(report.all_clean());
    assert_eq!(report.packets_forwarded, 6);
}

#[test]
fn repeated_switches_are_stable() {
    // Ten back-and-forth reconfigurations: no state leaks, every cycle
    // validates, and interruption time stays bounded.
    let device = FpgaDevice::virtex_like_1m();
    let cdma = WaveformDescriptor {
        carriers: 1,
        ..WaveformDescriptor::sumts_cdma()
    };
    let tdma = WaveformDescriptor::mf_tdma();
    let mut obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
    obpc.memory
        .store("cdma.bit", cdma.bitstream_for(&device).serialise().to_vec())
        .unwrap();
    obpc.memory
        .store("tdma.bit", tdma.bitstream_for(&device).serialise().to_vec())
        .unwrap();
    for cycle in 0..10 {
        let name = if cycle % 2 == 0 {
            "cdma.bit"
        } else {
            "tdma.bit"
        };
        let rep = obpc.reconfigure(3, name, None).expect("service");
        assert!(rep.success, "cycle {cycle}");
        assert!(rep.interruption_ns < 50_000_000, "cycle {cycle}");
        let (ok, _) = obpc.validate(3).unwrap();
        assert!(ok, "cycle {cycle}");
    }
}
