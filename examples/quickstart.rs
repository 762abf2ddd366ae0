//! Quickstart: build the regenerative payload, load the MF-TDMA
//! personality onto the DEMOD FPGA through the §3.1 five-step service,
//! and pass one frame of traffic through the full Fig. 2 chain.
//!
//! ```text
//! cargo run -p gsp-examples --bin quickstart
//! ```

use gsp_core::{WaveformDescriptor, WaveformRegistry};
use gsp_fpga::device::FpgaDevice;
use gsp_payload::chain::{run_mf_tdma_frame, ChainConfig};
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::Obpc;

fn main() {
    println!("== gsp quickstart: a generic satellite payload ==\n");

    // 1. The payload: ADC + six FPGA-hosted digital equipments (Fig. 2).
    let equipments = standard_payload();
    println!("payload equipments:");
    for e in &equipments {
        println!(
            "  [{}] {:<10} {}",
            e.id,
            e.kind.name(),
            e.fpga
                .as_ref()
                .map(|f| f.device().name)
                .unwrap_or("(fixed function)")
        );
    }

    // 2. Ground prepares the MF-TDMA demodulator bitstream.
    let device = FpgaDevice::virtex_like_1m();
    let tdma = WaveformDescriptor::mf_tdma();
    let placement = gsp_fpga::resources::place(tdma.gates(), &device).expect("personality fits");
    println!(
        "\nTDMA personality: {} gates -> {} CLBs, {} frames, {}%o utilisation",
        tdma.gates(),
        placement.clbs,
        placement.frames_used,
        placement.utilisation_ppt
    );
    let bitstream = tdma.bitstream_for(&device);

    // 3. The on-board controller runs the five-step reconfiguration.
    let mut obpc = Obpc::new(OnboardMemory::new(8 << 20, true), equipments);
    obpc.memory
        .store("tdma.bit", bitstream.serialise().to_vec())
        .expect("memory fits");
    let report = obpc.reconfigure(3, "tdma.bit", None).expect("service runs");
    println!("\nreconfiguration of equipment 3 (DEMOD):");
    for step in &report.steps {
        println!(
            "  {:<38} {:>9.3} ms",
            step.label,
            step.duration_ns as f64 / 1e6
        );
    }
    println!(
        "  -> success = {}, service interruption = {:.2} ms",
        report.success,
        report.interruption_ns as f64 / 1e6
    );

    // 4. Validate (the §3.2 CRC auto-test) and self-test the waveform.
    let (crc_ok, crc) = obpc.validate(3).expect("validation runs");
    println!("\nvalidation service: CRC-24 = {crc:#08x}, matches golden = {crc_ok}");
    let st = WaveformRegistry::builtin()
        .self_test(&tdma, 42)
        .expect("builtin personality loads");
    println!(
        "waveform self-test: acquired = {}/{} carriers, bit errors = {}/{}",
        st.acquired, st.carriers, st.bit_errors, st.info_bits
    );

    // 5. Pass an MF-TDMA frame through the whole receive chain.
    let chain = run_mf_tdma_frame(
        &ChainConfig {
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        },
        7,
    );
    println!("\nFig. 2 chain, one frame at Es/N0 = 14 dB:");
    for c in &chain.carriers {
        println!(
            "  carrier {}: detected = {}, crc_ok = {}, bit errors = {}",
            c.carrier, c.detected, c.crc_ok, c.bit_errors
        );
    }
    println!(
        "  packets switched = {}, frame BER = {:.2e}",
        chain.packets_forwarded,
        chain.ber()
    );
}
