//! Integration: radiation hits a *running* payload FPGA and the §4.3
//! machinery recovers it — read-back detection, partial-reconfiguration
//! repair, scrubbing — while the OBPC's golden copy anchors everything.

use gsp_fpga::device::FpgaDevice;
use gsp_fpga::mitigation::{detect_and_repair, ReadbackStrategy, Scrubber};
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::Obpc;
use gsp_radiation::environment::{PoissonArrivals, RadiationEnvironment};
use gsp_waveform::WaveformDescriptor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn obpc_with_tdma() -> Obpc {
    let device = FpgaDevice::virtex_like_1m();
    let tdma = WaveformDescriptor::mf_tdma();
    let mut obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
    obpc.memory
        .store("tdma.bit", tdma.bitstream_for(&device).serialise().to_vec())
        .unwrap();
    assert!(obpc.reconfigure(3, "tdma.bit", None).unwrap().success);
    obpc
}

#[test]
fn upsets_detected_and_repaired_in_service() {
    let mut obpc = obpc_with_tdma();
    let mut rng = StdRng::seed_from_u64(5);
    // A flare afternoon: 20 upsets land on the DEMOD FPGA.
    {
        let fab = obpc.equipments[3].fpga.as_mut().unwrap();
        for _ in 0..20 {
            fab.inject_random_upset(&mut rng);
        }
    }
    // The validation service notices.
    let (ok, _) = obpc.validate(3).unwrap();
    assert!(!ok, "validation must flag the corruption");

    // Read-back CRC detection + partial-reconfiguration repair, from the
    // retained golden bitstream, with the equipment still powered.
    let golden = obpc.active_bitstream(3).unwrap().clone();
    let fab = obpc.equipments[3].fpga.as_mut().unwrap();
    let (repaired, port_ns) =
        detect_and_repair(fab, &golden, ReadbackStrategy::CrcCompare).unwrap();
    assert!((1..=20).contains(&repaired));
    assert!(port_ns > 0);
    assert!(fab.function_correct(&golden));
    let (ok_after, crc) = obpc.validate(3).unwrap();
    assert!(ok_after);
    assert_eq!(crc, golden.global_crc);
}

#[test]
fn scrubbing_keeps_pace_with_poisson_arrivals() {
    // Event-driven 30 flare-days: frame-stepped scrubbing bounds the
    // exposure window of every upset.
    let mut obpc = obpc_with_tdma();
    let golden = obpc.active_bitstream(3).unwrap().clone();
    let fab = obpc.equipments[3].fpga.as_mut().unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let rate =
        RadiationEnvironment::solar_flare().seu_rate_per_second(1e-7, fab.device().config_bits());
    let arrivals = PoissonArrivals::new(rate).arrivals_in_window(30.0 * 86_400.0, &mut rng);
    assert!(
        arrivals.len() > 10,
        "flare month should produce many upsets"
    );

    let mut scrubber = Scrubber::new(3_600);
    for (i, _t) in arrivals.iter().enumerate() {
        fab.inject_random_upset(&mut rng);
        // One full scrub pass between arrivals (hourly pace vs ~9 h mean
        // inter-arrival at these rates).
        scrubber.scrub_full(fab, &golden).unwrap();
        assert!(
            fab.diff_frames(&golden).is_empty(),
            "arrival {i}: scrub must clear the upset"
        );
    }
    assert!(fab.function_correct(&golden));
    assert_eq!(scrubber.passes(), arrivals.len() as u64);
}

#[test]
fn unscrubbed_monolithic_device_can_only_fully_reload() {
    // The §4.4 caveat: a global-reload-only part cannot repair in place;
    // recovery requires the full power-off cycle (service interruption).
    use gsp_fpga::bitstream::Bitstream;
    use gsp_fpga::fabric::{FabricError, FpgaFabric};
    let dev = FpgaDevice::monolithic_600k();
    let bs = Bitstream::synthesise(9, &dev, dev.frames);
    let mut fab = FpgaFabric::new(dev);
    fab.configure_full(&bs).unwrap();
    fab.power_on();
    let mut rng = StdRng::seed_from_u64(7);
    fab.inject_random_upset(&mut rng);
    // No partial path.
    assert_eq!(
        fab.configure_frame(0, &bs.frames[0]),
        Err(FabricError::NoPartialReconfig)
    );
    // Full reload requires the power-off (service loss) first.
    assert!(matches!(
        fab.configure_full(&bs),
        Err(FabricError::WrongState { .. })
    ));
    fab.power_off();
    fab.configure_full(&bs).unwrap();
    fab.power_on();
    assert_eq!(fab.global_crc(), bs.global_crc);
}
