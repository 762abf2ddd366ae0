//! CI regression gate over every bench's committed artefact.
//!
//! For each bench in [`gsp_bench::bench::ALL`] it loads
//! `BENCH_<name>.json` from the working directory, runs the bench's live
//! smoke (seed from `GSP_SEED`), evaluates every declared gate, and
//! checks the committed artefact for drift from the code (see
//! [`gsp_bench::bench::Drift`]). It prints one line per check, exits 1
//! when any failed, and prints `perf_gate: OK` otherwise. It takes no
//! options: every threshold is declared beside its bench.

use gsp_bench::bench::ALL;
use gsp_bench::gate::check;
use gsp_bench::report::{die, Args, Artefact};

fn main() {
    const USAGE: &str = "perf_gate (no arguments; seed from GSP_SEED)";
    if !Args::from_env(USAGE, &[], &[]).positional.is_empty() {
        die(USAGE, "unexpected argument");
    }
    let seed = gsp_bench::seed_from_env();
    let mut failures = 0;
    let mut report = |file: &str, result: Result<String, String>| match result {
        Ok(line) => println!("ok   {file} {line}"),
        Err(line) => {
            println!("FAIL {file} {line}");
            failures += 1;
        }
    };
    for bench in &ALL {
        let file = bench.file();
        let committed = match Artefact::load(&file) {
            Ok(doc) => doc,
            Err(e) => {
                report(&file, Err(e));
                continue;
            }
        };
        let live = (bench.smoke)(seed);
        for gate in bench.gates {
            report(&file, check(gate, &committed, &live));
        }
        report(&file, bench.check_drift(&committed));
    }
    if failures > 0 {
        eprintln!("perf_gate: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("perf_gate: OK");
}
