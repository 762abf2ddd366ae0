//! The platform of Fig. 1: TC in, TM out, clock/frequency references.
//!
//! "Equipment's located at the platform level are mainly antennas, solar
//! panels and processors controlling the satellite payload (generation of
//! clock and frequency references used by equipment's) and interpreting
//! commands (TC) given to the satellite by an operation center and
//! transmitting information through a telemetry channel (TM)."

use std::collections::VecDeque;

/// A telecommand from the NCC to the spacecraft.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Telecommand {
    /// Store a (serialised) bitstream into on-board memory under a name.
    StoreBitstream {
        /// Memory slot name.
        name: String,
        /// Serialised bitstream bytes.
        data: Vec<u8>,
    },
    /// Run the reconfiguration service: load `name` onto `equipment`.
    Reconfigure {
        /// Target equipment index.
        equipment: usize,
        /// Bitstream name in on-board memory.
        name: String,
    },
    /// Run the validation service on an equipment's FPGA.
    Validate {
        /// Target equipment index.
        equipment: usize,
    },
    /// Remove a bitstream from on-board memory.
    DropBitstream {
        /// Memory slot name.
        name: String,
    },
    /// Ping for an equipment status report.
    StatusRequest {
        /// Target equipment index.
        equipment: usize,
    },
}

/// Telemetry from the spacecraft to the NCC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Telemetry {
    /// Bitstream stored (name, bytes, library hit count).
    BitstreamStored {
        /// Slot name.
        name: String,
        /// Stored size.
        bytes: usize,
    },
    /// Reconfiguration outcome (§3.1 step 4: "send back telemetry to
    /// attest the new configuration (e.g. CRC…)").
    ReconfigDone {
        /// Target equipment.
        equipment: usize,
        /// Global CRC-24 of the live configuration.
        crc24: u32,
        /// Whether validation passed and services resumed.
        success: bool,
        /// Service interruption in nanoseconds.
        interruption_ns: u64,
    },
    /// Validation outcome.
    ValidationReport {
        /// Target equipment.
        equipment: usize,
        /// CRC matched the expected configuration.
        crc_ok: bool,
        /// Global CRC observed.
        crc24: u32,
    },
    /// A command failed.
    CommandFailed {
        /// Human-readable reason.
        reason: String,
    },
    /// Equipment status.
    Status {
        /// Target equipment.
        equipment: usize,
        /// Powered and running?
        running: bool,
        /// Loaded design, if any.
        design_id: Option<u32>,
    },
    /// A housekeeping frame: a metrics snapshot of the observability
    /// plane, encoded as a CRC-protected payload of JSON lines (see
    /// `gsp_core::housekeeping`).
    Housekeeping {
        /// Encoded housekeeping frame bytes.
        frame: Vec<u8>,
    },
}

/// The platform processor: command and telemetry queues plus the reference
/// generators' health.
#[derive(Debug, Default)]
pub struct Platform {
    tc_queue: VecDeque<Telecommand>,
    tm_queue: VecDeque<Telemetry>,
    /// Master clock lock state.
    pub clock_locked: bool,
    /// Frequency-reference lock state.
    pub frequency_locked: bool,
}

impl Platform {
    /// New platform with references locked.
    pub fn new() -> Self {
        Platform {
            tc_queue: VecDeque::new(),
            tm_queue: VecDeque::new(),
            clock_locked: true,
            frequency_locked: true,
        }
    }

    /// Accepts an uplinked telecommand.
    pub fn uplink(&mut self, tc: Telecommand) {
        self.tc_queue.push_back(tc);
    }

    /// Next telecommand for the on-board processor controller.
    pub fn next_command(&mut self) -> Option<Telecommand> {
        self.tc_queue.pop_front()
    }

    /// Queues telemetry for downlink.
    pub fn report(&mut self, tm: Telemetry) {
        self.tm_queue.push_back(tm);
    }

    /// Drains all pending telemetry (the downlink pass).
    pub fn downlink(&mut self) -> Vec<Telemetry> {
        self.tm_queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_queue_is_fifo() {
        let mut p = Platform::new();
        p.uplink(Telecommand::StatusRequest { equipment: 1 });
        p.uplink(Telecommand::StatusRequest { equipment: 2 });
        assert_eq!(
            p.next_command(),
            Some(Telecommand::StatusRequest { equipment: 1 })
        );
        assert_eq!(
            p.next_command(),
            Some(Telecommand::StatusRequest { equipment: 2 })
        );
        assert_eq!(p.next_command(), None);
    }

    #[test]
    fn telemetry_drains_in_order() {
        let mut p = Platform::new();
        p.report(Telemetry::Status {
            equipment: 0,
            running: true,
            design_id: Some(1),
        });
        p.report(Telemetry::CommandFailed { reason: "x".into() });
        let tm = p.downlink();
        assert_eq!(tm.len(), 2);
        assert!(p.downlink().is_empty());
        assert!(matches!(tm[0], Telemetry::Status { .. }));
    }

    #[test]
    fn references_start_locked() {
        let p = Platform::new();
        assert!(p.clock_locked && p.frequency_locked);
    }
}
