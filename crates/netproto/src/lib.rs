//! # gsp-netproto — the reconfiguration communication architecture (Fig. 4)
//!
//! The paper proposes "an internet based architecture with existing
//! standard protocols … organized around three levels":
//!
//! * **N1 — transfer system** ([`frames`]): TM/TC transfer frames on
//!   virtual channels, with the two §3.3 modes — *express* (fire-and-
//!   forget, "adapted to the transfer of small test in the
//!   question/response mode") and *controlled* (go-back-N ARQ, "well
//!   suited to the reliable transfer of data configuration");
//! * **N2 — data system** ([`ip`], [`tcp`], [`ipsec`]): an IP-like network
//!   layer, UDP-like datagrams, a window-based TCP-lite whose window can be
//!   opened up for the GEO bandwidth-delay product (RFC 2488, the paper's
//!   ref [8→9]), and an IPsec-ESP-like confidentiality wrapper ("a
//!   ciphering code is performed on-board … possibly itself
//!   reconfigurable");
//! * **N3 — reconfiguration system** ([`tftp`], [`bulk`], [`cops`]): TFTP
//!   with its 512-byte stop-and-wait blocks ("it has to be used only for
//!   small transfer for efficiency reason"), an FTP/SCPS-FP-like streaming
//!   bulk transfer for bitstreams, a CCSDS SCPS-FP-class rate-based
//!   transfer with NAK repair ([`scpsfp`]), and a COPS-like policy
//!   protocol for reconfiguration directives.
//!
//! Everything runs over [`sim`]'s discrete-event engine and [`link`]'s
//! GEO channel (serialisation + ~125 ms one-way propagation + BER-driven
//! frame loss), so protocol timing comes out in real (simulated) seconds —
//! the data behind experiment E4. For non-GEO variants, a [`contact`]
//! schedule gates the engine on pass windows: outside a window (or when
//! a window closes mid-serialisation) frames are lost outright, and each
//! window carries its own Doppler/elevation-derated channel.
//!
//! Every decoder reads through [`gsp_coding::wire::Reader`] and returns
//! `None` on malformed input; frames carry [`gsp_coding::Crc`]'s CRC-16.
//!
//! ```
//! use gsp_netproto::{simulate_transfer, LinkConfig, TransferProtocol};
//!
//! // A 96 KiB bitstream over the GEO link: TFTP pays one RTT per 512 B.
//! let link = LinkConfig::geo_default();
//! let tftp = simulate_transfer(TransferProtocol::Tftp, 96 * 1024, link, 1);
//! let bulk = simulate_transfer(TransferProtocol::Bulk { window: 32 * 1024 }, 96 * 1024, link, 1);
//! assert!(tftp.delivered && bulk.delivered);
//! assert!(tftp.duration_s > 5.0 * bulk.duration_s);
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod bulk;
pub mod contact;
pub mod cops;
pub mod frames;
pub mod ip;
pub mod ipsec;
pub mod link;
pub mod scenarios;
pub mod scpsfp;
pub mod sim;
pub mod tcp;
pub mod tftp;

pub use backoff::BackoffPolicy;
pub use contact::{ContactSchedule, ContactWindow};
pub use link::LinkConfig;
pub use scenarios::{simulate_transfer, TransferProtocol, TransferStats};
pub use sim::{Agent, Io, Side, Sim, SimStats};
