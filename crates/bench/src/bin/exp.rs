//! `exp <id|all> [--full]`: prints the tables of one experiment (E1–E12,
//! F2), or of every experiment with `all`. Seed from `GSP_SEED`.

use gsp_bench::report::{die, Args};
use gsp_core::exp::{self, Scale};
use gsp_core::ExpTable;

const USAGE: &str = "exp <e1|e2|...|e12|f2|all> [--full]";

fn tables(id: &str, scale: Scale, seed: u64) -> Option<Vec<ExpTable>> {
    Some(match id {
        "e1" => vec![exp::e1_table1()],
        "e2" => vec![exp::e2_gates()],
        "e3" => vec![exp::e3_waveforms(scale, seed)],
        "e4" => vec![exp::e4_protocols(seed)],
        "e5" => vec![exp::e5_reconfig(seed)],
        "e6" => vec![
            exp::e6_tmr(scale, seed),
            exp::e6_readback(),
            exp::e6_scrub(scale, seed),
            exp::e6_maintenance(seed),
        ],
        "e7" => vec![exp::e7_environment(), exp::e7_latchup(scale, seed)],
        "e8" => vec![exp::e8_coding(scale, seed)],
        "e9" => vec![exp::e9_acquisition(scale, seed)],
        "e10" => vec![exp::e10_timing(scale, seed)],
        "e11" => vec![exp::e11_partition()],
        "e12" => vec![exp::e12_regeneration(seed)],
        "f2" => vec![exp::f2_payload(seed)],
        "all" => exp::run_all(scale, seed),
        _ => return None,
    })
}

fn main() {
    let args = Args::from_env(USAGE, &[], &["--full"]);
    let [id] = &args.positional[..] else {
        die(USAGE, "expected exactly one experiment id");
    };
    let scale = if args.flag("--full") {
        Scale::Full
    } else {
        Scale::Smoke
    };
    let tables = tables(id, scale, gsp_bench::seed_from_env())
        .unwrap_or_else(|| die(USAGE, &format!("unknown experiment {id:?}")));
    for t in tables {
        println!("{t}");
    }
}
