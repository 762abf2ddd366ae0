//! Each example binary's stdout, byte for byte, against its committed
//! `<name>.golden`.
//!
//! The examples print simulated outcomes only (no wall-clock figure), so
//! their output is the same for every run, build profile and kernel
//! backend. To regenerate a golden after an intended change, run
//! `cargo run -p gsp-examples --bin <name> > examples/tests/<name>.golden`
//! and commit the diff with its reason.

use std::process::Command;

/// Runs the built binary at `exe` and compares its stdout with `golden`.
fn check(name: &str, exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("example binary runs");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let live = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    for (n, (l, g)) in live.lines().zip(golden.lines()).enumerate() {
        assert_eq!(l, g, "{name} line {} differs from the golden", n + 1);
    }
    assert_eq!(live, golden, "{name} output differs from the golden");
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!(stringify!($name), ".golden")),
            );
        }
    )*};
}

golden!(
    quickstart,
    waveform_switch,
    seu_campaign,
    reconfig_upload,
    ber_study,
    ops_session,
);
