//! The six telemetry benches behind the committed `BENCH_<name>.json`
//! artefacts. Each module exposes `run(seed, wall)` (the committed
//! artefact; `wall = false` omits the host- and wall-clock-dependent
//! fields), `smoke(seed)` (the short live run its gates re-measure, in
//! the same schema) and `GATES` (its gated quantities, as data).

pub mod constellation;
pub mod fdir;
pub mod ground;
pub mod payload;
pub mod traffic;
pub mod waveform;

use crate::gate::Gate;
use crate::report::Artefact;

/// How `perf_gate` checks a committed artefact against the code.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drift {
    /// `run(seed, false)` equals the committed file minus
    /// `host_parallelism`.
    Committed,
    /// Two `run(seed, false)` calls are identical (the committed file
    /// holds wall-clock fields).
    Repeat,
    /// Every field is a wall-clock measurement; nothing to compare.
    Measured,
}

/// One bench: its name, entry points, gates and drift check.
pub struct Bench {
    /// `payload`, `traffic`, ...; the artefact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Produces the committed artefact.
    pub run: fn(u64, bool) -> Artefact,
    /// Produces the live values the gates re-measure.
    pub smoke: fn(u64) -> Artefact,
    /// The gated quantities.
    pub gates: &'static [Gate],
    /// How the committed artefact is checked for drift.
    pub drift: Drift,
}

impl Bench {
    /// The committed artefact's file name.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Checks the committed artefact against the current code (see
    /// [`Drift`]), at the committed seed.
    pub fn check_drift(&self, committed: &Artefact) -> Result<String, String> {
        if self.drift == Drift::Measured {
            return Ok("drift: wall-clock artefact, not regenerated".into());
        }
        let seed = match committed.read("seed")[..] {
            [Artefact::Int(s)] => u64::try_from(*s).map_err(|e| format!("seed: {e}"))?,
            _ => return Err("seed: missing from the committed artefact".into()),
        };
        let got = (self.run)(seed, false).to_string();
        let (what, want) = if self.drift == Drift::Committed {
            let mut want = committed.clone();
            want.remove("host_parallelism");
            ("regenerated artefact vs committed", want.to_string())
        } else {
            ("two regenerations", (self.run)(seed, false).to_string())
        };
        if want == got {
            return Ok(format!("drift: {what} identical (seed {seed})"));
        }
        let same = want.lines().zip(got.lines()).take_while(|(a, b)| a == b);
        Err(format!(
            "drift: {what} differ from line {} (seed {seed})",
            same.count() + 1
        ))
    }
}

/// Every bench, in gate order.
pub const ALL: [Bench; 6] = [
    Bench {
        name: "payload",
        run: payload::run,
        smoke: payload::smoke,
        gates: payload::GATES,
        drift: Drift::Measured,
    },
    Bench {
        name: "traffic",
        run: traffic::run,
        smoke: traffic::smoke,
        gates: traffic::GATES,
        drift: Drift::Committed,
    },
    Bench {
        name: "fdir",
        run: fdir::run,
        smoke: fdir::smoke,
        gates: fdir::GATES,
        drift: Drift::Committed,
    },
    Bench {
        name: "constellation",
        run: constellation::run,
        smoke: constellation::smoke,
        gates: constellation::GATES,
        drift: Drift::Repeat,
    },
    Bench {
        name: "waveform",
        run: waveform::run,
        smoke: waveform::smoke,
        gates: waveform::GATES,
        drift: Drift::Committed,
    },
    Bench {
        name: "ground",
        run: ground::run,
        smoke: ground::smoke,
        gates: ground::GATES,
        drift: Drift::Committed,
    },
];

/// The bench called `name`.
pub fn find(name: &str) -> Option<&'static Bench> {
    ALL.iter().find(|b| b.name == name)
}
