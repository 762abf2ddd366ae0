//! `bench <name> [--seed N] [--out PATH]`: runs one telemetry bench and
//! writes its artefact (default `BENCH_<name>.json`). Names: payload,
//! traffic, fdir, constellation, waveform, ground. Seed defaults to
//! `GSP_SEED`.

use gsp_bench::report::{die, Args};

const USAGE: &str =
    "bench <payload|traffic|fdir|constellation|waveform|ground> [--seed N] [--out PATH]";

fn main() {
    let args = Args::from_env(USAGE, &["--seed", "--out"], &[]);
    let [name] = &args.positional[..] else {
        die(USAGE, "expected exactly one bench name");
    };
    let bench = gsp_bench::bench::find(name)
        .unwrap_or_else(|| die(USAGE, &format!("unknown bench {name:?}")));
    let seed = args
        .value("--seed")
        .unwrap_or_else(|e| die(USAGE, &e))
        .unwrap_or_else(gsp_bench::seed_from_env);
    let out: String = args
        .value("--out")
        .unwrap_or_else(|e| die(USAGE, &e))
        .unwrap_or_else(|| bench.file());
    let doc = (bench.run)(seed, true).document();
    if let Err(e) = std::fs::write(&out, &doc) {
        die(USAGE, &format!("cannot write {out}: {e}"));
    }
    println!("wrote {out} ({} bytes)", doc.len());
}
