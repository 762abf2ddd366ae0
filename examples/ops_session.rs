//! The operations link of Fig. 1 end to end: a ground session of
//! telecommands — bitstream store, reconfiguration, validation, status —
//! carried as controlled-mode TM/TC transfer frames over the simulated GEO
//! link, executed by the on-board processor controller, telemetry flowing
//! back the same way.
//!
//! ```text
//! cargo run -p gsp-examples --bin ops_session
//! ```

use gsp_core::ops::run_ops_session;
use gsp_core::WaveformDescriptor;
use gsp_fpga::device::FpgaDevice;
use gsp_netproto::link::LinkConfig;
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::Obpc;
use gsp_payload::platform::{Telecommand, Telemetry};

fn main() {
    let device = FpgaDevice::virtex_like_1m();
    let bitstream = WaveformDescriptor::mf_tdma().bitstream_for(&device);
    println!("== operations session over the TC/TM link ==\n");
    println!(
        "uplinking: tdma.bit ({} bytes serialised) + 3 commands",
        bitstream.serialise().len()
    );

    let commands = vec![
        Telecommand::StoreBitstream {
            name: "tdma.bit".into(),
            data: bitstream.serialise().to_vec(),
        },
        Telecommand::Reconfigure {
            equipment: 3,
            name: "tdma.bit".into(),
        },
        Telecommand::Validate { equipment: 3 },
        Telecommand::StatusRequest { equipment: 3 },
    ];
    let link = LinkConfig {
        ber: 1e-6, // a slightly rainy day
        ..LinkConfig::geo_default()
    };
    let obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
    let (telemetry, stats, obpc) = run_ops_session(commands, 4, obpc, link, 2003);

    println!("\ntelemetry received at the NCC:");
    for tm in &telemetry {
        match tm {
            Telemetry::BitstreamStored { name, bytes } => {
                println!("  stored '{name}' ({bytes} bytes) in on-board memory")
            }
            Telemetry::ReconfigDone {
                equipment,
                crc24,
                success,
                interruption_ns,
            } => println!(
                "  equipment {equipment} reconfigured: success={success}, CRC-24={crc24:#08x}, interruption {:.2} ms",
                *interruption_ns as f64 / 1e6
            ),
            Telemetry::ValidationReport {
                equipment, crc_ok, ..
            } => println!("  validation of equipment {equipment}: crc_ok={crc_ok}"),
            Telemetry::Status {
                equipment,
                running,
                design_id,
            } => println!(
                "  status of equipment {equipment}: running={running}, design={design_id:?}"
            ),
            Telemetry::CommandFailed { reason } => println!("  COMMAND FAILED: {reason}"),
            Telemetry::Housekeeping { frame } => {
                println!("  housekeeping frame ({} bytes)", frame.len())
            }
        }
    }
    println!(
        "\nsession: {:.2} s simulated, {} frames up / {} frames down, {} lost to BER",
        stats.end_ns as f64 / 1e9,
        stats.frames_sent[0],
        stats.frames_sent[1],
        stats.frames_lost[0] + stats.frames_lost[1],
    );
    println!(
        "equipment 3 in service: {}, design {:?}",
        obpc.equipments[3].in_service(),
        obpc.equipments[3].design_id()
    );
}
