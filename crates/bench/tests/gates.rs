//! The artefact reader/writer and every declared gate, against the
//! committed `BENCH_*.json` files and mutated copies of them.

use gsp_bench::bench::{self, ALL};
use gsp_bench::gate::{check, Rule};
use gsp_bench::report::{Args, Artefact, Layout};

fn committed(name: &str) -> String {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `text` with the value of the first `"key":` after `anchor` replaced.
fn set(text: &str, anchor: &str, key: &str, value: &str) -> String {
    let from = text.find(anchor).unwrap_or_else(|| panic!("no {anchor}"));
    let needle = format!("\"{key}\":");
    let at = from + text[from..].find(&needle).expect("key after anchor") + needle.len();
    let end = at + text[at..].find([',', '}', '\n']).expect("value end");
    format!("{}{value}{}", &text[..at], &text[end..])
}

/// The keys of the gates of bench `name` that fail.
fn failing(name: &str, committed: &str, live: &str) -> Vec<&'static str> {
    let bench = bench::find(name).expect("bench");
    let (c, l) = (
        Artefact::parse(committed).expect("committed parses"),
        Artefact::parse(live).expect("live parses"),
    );
    bench
        .gates
        .iter()
        .filter(|g| check(g, &c, &l).is_err())
        .map(|g| g.key)
        .collect()
}

/// Gates failing when only the committed artefact is edited.
fn committed_edit(name: &str, anchor: &str, key: &str, value: &str) -> Vec<&'static str> {
    let text = committed(name);
    failing(name, &set(&text, anchor, key, value), &text)
}

/// Gates failing when only the live artefact is edited.
fn live_edit(name: &str, anchor: &str, key: &str, value: &str) -> Vec<&'static str> {
    let text = committed(name);
    failing(name, &text, &set(&text, anchor, key, value))
}

#[test]
fn committed_artefacts_round_trip_byte_for_byte() {
    for b in &ALL {
        let text = committed(b.name);
        let doc = Artefact::parse(&text).expect("parses");
        assert_eq!(doc.document(), text, "{}", b.file());
    }
}

#[test]
fn writer_and_reader_round_trip() {
    let metric = |name: &str, p50: u64| Artefact::object().with("name", name).with("p50", p50);
    let doc = Artefact::header(false)
        .with("seed", 7u64)
        .with("ratio", 2.0)
        .with("none", None::<u64>)
        .with("label", "a \"quoted\" \\ label")
        .line("inline", vec![1u64, 2, 3])
        .line(
            "swaps",
            Artefact::rows([
                Artefact::object().with("voice_dropped", 0u64),
                Artefact::object().with("voice_dropped", 1u64),
            ]),
        )
        .line(
            "metrics",
            Artefact::Array(vec![metric("a.b", 5), metric("c", 9)], Layout::Indented),
        )
        .line(
            "nested",
            Artefact::object().with("deep", Artefact::object().with("x", true)),
        );
    let text = doc.document();
    assert!(text.contains("\"ratio\":2.0,\"none\":null"));
    assert!(text.contains("\n\"swaps\":[\n{\"voice_dropped\":0},\n{\"voice_dropped\":1}\n]"));
    assert!(text.contains("\"metrics\":[\n  {\"name\":\"a.b\",\"p50\":5},\n  {"));
    let back = Artefact::parse(&text).expect("parses");
    assert_eq!(back, doc);
    assert_eq!(back.document(), text);

    let read =
        |path: &str| -> Vec<String> { back.read(path).iter().map(|v| v.to_string()).collect() };
    assert_eq!(read("seed"), ["7"]);
    assert_eq!(read("swaps[*].voice_dropped"), ["0", "1"]);
    assert_eq!(read("metrics[a.b].p50"), ["5"]);
    assert_eq!(read("nested.deep.x"), ["true"]);
    assert!(read("missing").is_empty() && read("metrics[nope].p50").is_empty());
    assert_eq!(read("label"), ["\"a \\\"quoted\\\" \\\\ label\""]);
    for bad in [
        "",
        "{\"a\":}",
        "{\"a\":1} x",
        "[1,",
        "\"\\é\"",
        "{\"a\" 1}",
        "é",
    ] {
        assert!(Artefact::parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn every_committed_artefact_passes_its_gates() {
    for b in &ALL {
        let text = committed(b.name);
        assert_eq!(
            failing(b.name, &text, &text),
            Vec::<&str>::new(),
            "{}",
            b.file()
        );
    }
}

/// `perf_gate`'s drift check of bench `name` against its committed
/// artefact, under whichever kernel backend the process selected — so the
/// suite, run once per forced backend, pins artefact identity per backend.
/// One test per bench keeps the debug-profile run parallel; `payload` has
/// none because its artefact is all wall-clock (`Drift::Measured`).
fn drift_holds(name: &str) {
    let bench = bench::find(name).expect("bench");
    let doc = Artefact::parse(&committed(name)).expect("committed parses");
    if let Err(e) = bench.check_drift(&doc) {
        panic!("{}: {e}", bench.file());
    }
}

#[test]
fn drift_traffic() {
    drift_holds("traffic");
}

#[test]
fn drift_fdir() {
    drift_holds("fdir");
}

#[test]
fn drift_constellation() {
    drift_holds("constellation");
}

#[test]
fn drift_waveform() {
    drift_holds("waveform");
}

#[test]
fn drift_ground() {
    drift_holds("ground");
}

#[test]
fn ratchets_fail_just_past_their_factor() {
    // Payload frame p50: committed 1622703 ns, limit 1.5x = 2434054.5.
    let frame = "\"name\":\"payload.frame.ns\"";
    assert!(live_edit("payload", frame, "p50", "2434054").is_empty());
    assert_eq!(
        live_edit("payload", frame, "p50", "2434055"),
        ["metrics[payload.frame.ns].p50"]
    );
    // Tick ratchets clamp the committed value to >= 1.
    assert_eq!(
        live_edit("traffic", "\"name\":\"traffic.packet.latency\"", "p50", "2"),
        ["metrics[traffic.packet.latency].p50"]
    );
    let mttr = "\"name\":\"fdir.recovery.mttr\"";
    assert!(live_edit("fdir", mttr, "p50", "10").is_empty());
    assert_eq!(
        live_edit("fdir", mttr, "p50", "11"),
        ["metrics[fdir.recovery.mttr].p50"]
    );
    assert_eq!(
        live_edit("waveform", "\"interruption_ms\":{", "p50", "224.4"),
        ["interruption_ms.p50"]
    );
    assert!(live_edit("ground", "{", "recovery_ticks", "18").is_empty());
    assert_eq!(
        live_edit("ground", "{", "recovery_ticks", "19"),
        ["recovery_ticks"]
    );
    // A live soak that never recovered has no number to compare.
    assert_eq!(
        live_edit("ground", "{", "recovery_ticks", "null"),
        ["recovery_ticks"]
    );
}

#[test]
fn payload_scaling_and_kernel_floors() {
    assert_eq!(
        committed_edit("payload", "\"scaling\"", "modeled_ratio", "2.4"),
        ["scaling.modeled_ratio"]
    );
    assert_eq!(
        live_edit("payload", "\"scaling\"", "modeled_ratio", "2.4"),
        ["scaling.modeled_ratio"]
    );
    // The committed measured ratio (1.03x) counts only on a >= 8-core host.
    assert_eq!(
        committed_edit("payload", "{", "host_parallelism", "8"),
        ["scaling.measured_ratio"]
    );
    assert_eq!(
        committed_edit("payload", "\"kernels\"", "decode_speedup", "1.4"),
        ["kernels.decode_speedup"]
    );
    let no_simd = set(&committed("payload"), "\"kernels\"", "host_simd", "false");
    let no_simd_slow = set(&no_simd, "\"kernels\"", "decode_speedup", "1.4");
    assert!(failing("payload", &no_simd_slow, &committed("payload")).is_empty());
    let no_kernels = committed("payload").replace("\"kernels\":", "\"kernel\":");
    assert_eq!(
        failing("payload", &no_kernels, &committed("payload")),
        ["kernels.decode_speedup"]
    );
}

#[test]
fn constellation_scale_quarantine_and_identity() {
    assert_eq!(
        committed_edit("constellation", "\"scaling\"", "modeled_ratio", "2.4"),
        ["scaling.modeled_ratio"]
    );
    assert_eq!(
        committed_edit("constellation", "{", "host_parallelism", "8"),
        ["scaling.measured_ratio"]
    );
    assert_eq!(
        committed_edit("constellation", "\"scaling\"", "satellites", "3"),
        ["scaling.satellites"]
    );
    assert_eq!(
        committed_edit("constellation", "\"sweep\"", "terminals_total", "1999999"),
        ["sweep[*].terminals_total"]
    );
    assert_eq!(
        committed_edit("constellation", "\"quarantine\"", "voice_dropped", "1"),
        ["quarantine.voice_dropped"]
    );
    assert_eq!(
        live_edit("constellation", "\"sweep\"", "reports_identical", "false"),
        ["sweep[*].reports_identical"]
    );
}

#[test]
fn waveform_losslessness_commit_and_rollback() {
    // The second swap event alone drops a voice packet.
    assert_eq!(
        committed_edit(
            "waveform",
            "\n{\"label\":\"mf-tdma->sumts-cdma\"",
            "voice_dropped",
            "1"
        ),
        ["swaps[*].voice_dropped"]
    );
    assert_eq!(
        committed_edit("waveform", "\"rollback\"", "rolled_back", "false"),
        ["rollback.rolled_back"]
    );
    assert_eq!(
        live_edit("waveform", "\"swaps\"", "committed", "false"),
        ["swaps[*].committed"]
    );
    assert_eq!(
        live_edit("waveform", "{", "voice_dropped", "1"),
        ["voice_dropped"]
    );
}

#[test]
fn ground_cross_pass_story() {
    assert_eq!(
        committed_edit("ground", "{", "upload_resumes", "0"),
        ["upload_resumes"]
    );
    assert_eq!(
        committed_edit("ground", "{", "cross_station_resume", "false"),
        ["cross_station_resume"]
    );
    assert_eq!(
        live_edit("ground", "{", "cross_station_resume", "false"),
        ["cross_station_resume"]
    );
    assert_eq!(
        committed_edit("ground", "{", "voice_dropped", "1"),
        ["voice_dropped"]
    );
    assert_eq!(
        live_edit("ground", "{", "voice_dropped", "1"),
        ["voice_dropped"]
    );
    assert_eq!(
        committed_edit("ground", "{", "mean_pass_utilization", "0.09"),
        ["mean_pass_utilization"]
    );
}

#[test]
fn a_missing_key_fails_its_gate() {
    let text = committed("ground");
    let renamed = text.replacen("\"recovery_ticks\":", "\"recovery_tick\":", 1);
    assert_eq!(failing("ground", &renamed, &text), ["recovery_ticks"]);
    assert_eq!(
        failing("ground", &text, "{}"),
        ["cross_station_resume", "voice_dropped", "recovery_ticks"]
    );
}

#[test]
fn smoke_artefacts_carry_every_key_their_gates_read() {
    let seed = gsp_bench::seed_from_env();
    for b in &ALL {
        let live = (b.smoke)(seed);
        for g in b.gates {
            if g.live || matches!(g.rule, Rule::Ratchet(_)) {
                assert!(
                    !live.read(g.key).is_empty(),
                    "{} smoke lacks {}",
                    b.name,
                    g.key
                );
            }
        }
    }
}

#[test]
fn the_parser_rejects_unknown_options_and_bad_values() {
    let parse =
        |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()), &["--seed"], &["--full"]);
    let ok = parse(&["traffic", "--seed", "42", "--full"]).expect("valid");
    assert_eq!(ok.positional, ["traffic"]);
    assert_eq!(ok.value::<u64>("--seed"), Ok(Some(42)));
    assert!(ok.flag("--full") && !ok.flag("--out"));
    assert_eq!(parse(&["--sed", "42"]).unwrap_err(), "unknown option --sed");
    assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
    assert_eq!(
        parse(&["--full", "--full"]).unwrap_err(),
        "--full given twice"
    );
    let bad = parse(&["--seed", "4x2"]).expect("parses");
    assert_eq!(
        bad.value::<u64>("--seed").unwrap_err(),
        "--seed: cannot parse \"4x2\""
    );
}
