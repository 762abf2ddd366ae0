//! # gsp-bench — benchmark & experiment harness
//!
//! Four kinds of targets:
//!
//! * **`exp <id|all> [--full]`** — regenerates one paper table/figure/
//!   claim (DESIGN.md §3) by printing the tables the matching
//!   `gsp_core::exp` driver produces; `all` runs every experiment
//!   (E1–E12, F2). `--full` selects the full Monte-Carlo trial counts
//!   (the defaults keep runtimes in seconds).
//! * **`bench <name> [--seed N] [--out PATH]`** — runs one of the
//!   [`bench`](mod@bench) modules and writes its `BENCH_<name>.json`
//!   [`report::Artefact`].
//! * **`perf_gate`** — evaluates every bench's declared [`gate::Gate`]s
//!   against the committed artefacts and a live smoke run, and checks the
//!   committed artefacts for drift from the code.
//! * **Criterion benches** (`benches/`) — throughput of the hot kernels:
//!   DSP primitives, Viterbi/turbo decoding, modem inner loops, FPGA
//!   scrubbing/read-back, the Fig. 2 payload chain, and protocol
//!   simulated-time per megabyte.

pub mod bench;
pub mod gate;
pub mod report;

/// The shared experiment seed (override with GSP_SEED).
pub fn seed_from_env() -> u64 {
    std::env::var("GSP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20030422) // IPDPS 2003 vintage
}
