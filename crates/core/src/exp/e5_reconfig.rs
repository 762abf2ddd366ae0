//! E5 — the §3.1 five-step reconfiguration service: latency breakdown,
//! service interruption, the §3.2 library ablation, and rollback.

use crate::ops::run_ops_session;
use crate::scenario::{waveform_switch, WaveformSwitchConfig};
use crate::table::ExpTable;
use gsp_fpga::device::FpgaDevice;
use gsp_netproto::link::LinkConfig;
use gsp_netproto::scenarios::TransferProtocol;
use gsp_payload::equipment::standard_payload;
use gsp_payload::memory::OnboardMemory;
use gsp_payload::obpc::{FaultInjection, Obpc};
use gsp_payload::platform::{Telecommand, Telemetry};
use gsp_waveform::WaveformDescriptor;

/// Regenerates the reconfiguration-latency table.
pub fn e5_reconfig(seed: u64) -> ExpTable {
    let mut t = ExpTable::new(
        "E5 — CDMA→TDMA reconfiguration latency (paper §3.1/§3.2)",
        &[
            "Variant",
            "Upload (s)",
            "Cmd RTT (s)",
            "Interruption (ms)",
            "Total (s)",
            "Outcome",
        ],
    );
    let variants: Vec<(&str, WaveformSwitchConfig)> = vec![
        (
            "bulk upload (FTP/SCPS-FP, 32 kB win)",
            WaveformSwitchConfig::default(),
        ),
        (
            "TFTP upload",
            WaveformSwitchConfig {
                upload_protocol: TransferProtocol::Tftp,
                ..WaveformSwitchConfig::default()
            },
        ),
        (
            "on-board library hit",
            WaveformSwitchConfig {
                library_hit: true,
                ..WaveformSwitchConfig::default()
            },
        ),
        (
            "fault injected -> rollback",
            WaveformSwitchConfig {
                library_hit: true,
                fault: Some(FaultInjection::CorruptAfterLoad),
                ..WaveformSwitchConfig::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let out = waveform_switch(&cfg, seed);
        let outcome = if out.success {
            "new design in service"
        } else if out.rolled_back {
            "rolled back to previous"
        } else {
            "FAILED"
        };
        t.row(vec![
            label.to_string(),
            format!("{:.2}", out.upload_s),
            format!("{:.2}", out.command_rtt_s),
            format!("{:.2}", out.interruption_ms),
            format!("{:.2}", out.total_s),
            outcome.to_string(),
        ]);
    }
    // Fifth variant: the whole change driven as telecommands over the
    // real N1 controlled-mode stack (ops link), bitstream included.
    {
        let device = FpgaDevice::virtex_like_1m();
        let commands = vec![
            Telecommand::StoreBitstream {
                name: "tdma.bit".into(),
                data: WaveformDescriptor::mf_tdma()
                    .bitstream_for(&device)
                    .serialise()
                    .to_vec(),
            },
            Telecommand::Reconfigure {
                equipment: 3,
                name: "tdma.bit".into(),
            },
            Telecommand::Validate { equipment: 3 },
        ];
        let obpc = Obpc::new(OnboardMemory::new(8 << 20, true), standard_payload());
        let (tm, stats, _) = run_ops_session(commands, 3, obpc, LinkConfig::geo_default(), seed);
        let success = matches!(
            tm.get(1),
            Some(Telemetry::ReconfigDone { success: true, .. })
        );
        let interruption_ms = match tm.get(1) {
            Some(Telemetry::ReconfigDone {
                interruption_ns, ..
            }) => *interruption_ns as f64 / 1e6,
            _ => f64::NAN,
        };
        let total_s = stats.end_ns as f64 / 1e9;
        t.row(vec![
            "TC ops link (controlled frames)".to_string(),
            format!("{:.2}", total_s - 0.25 - interruption_ms / 1e3),
            "0.25".to_string(),
            format!("{interruption_ms:.2}"),
            format!("{total_s:.2}"),
            if success {
                "new design in service".to_string()
            } else {
                "FAILED".to_string()
            },
        ]);
    }
    t.note("steps: stage | switch off | load via port | CRC validate | switch on (paper §3.1)");
    t.note("paper §3.2: the library 'allows to reduce time transfers between the ground and the satellite'");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_beats_upload_and_rollback_reported() {
        let t = e5_reconfig(3);
        let bulk_total: f64 = t.cell(0, 4).parse().unwrap();
        let tftp_total: f64 = t.cell(1, 4).parse().unwrap();
        let lib_total: f64 = t.cell(2, 4).parse().unwrap();
        assert!(lib_total < bulk_total && bulk_total < tftp_total);
        assert_eq!(t.cell(2, 1), "0.00");
        assert_eq!(t.cell(3, 5), "rolled back to previous");
        // Interruption stays in the tens-of-ms class in every variant.
        for r in 0..t.rows.len() {
            let intr: f64 = t.cell(r, 3).parse().unwrap();
            assert!(intr < 100.0, "row {r}: {intr} ms");
        }
        // The ops-link variant completes and lands in the same class as the
        // bulk upload (go-back-N over the same 256 kbps uplink).
        assert_eq!(t.cell(4, 5), "new design in service");
        let ops_total: f64 = t.cell(4, 4).parse().unwrap();
        assert!(ops_total > 3.0 && ops_total < 60.0, "ops total {ops_total}");
    }
}
