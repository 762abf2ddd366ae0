use super::*;
use std::collections::BTreeSet;

fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_declarations_meet_the_limits() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!(seen.insert(m.name), "{} declared twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let widest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        for leaf in w.leaves() {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == *leaf && m.unit == "ns/step"));
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let Json::Obj(top) = Json::parse(&text) else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |k: &str| &top.iter().find(|(key, _)| key == k).expect("key").1;
    let workloads: Vec<String> = field("workloads")
        .items()
        .iter()
        .map(|w| w.str("name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);

    let declared = |k: &str| -> Vec<(String, String, String, Option<f64>)> {
        field(k)
            .items()
            .iter()
            .map(|m| {
                (
                    m.str("name"),
                    m.str("unit"),
                    m.str("better"),
                    m.num("bound"),
                )
            })
            .collect()
    };
    let ours = |ms: &[Metric]| -> Vec<(String, String, String, Option<f64>)> {
        ms.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(END_TO_END));
    assert_eq!(declared("per_layer"), ours(PER_LAYER));
}

#[test]
fn tiny_runs_emit_every_metric_and_their_layers_sum_to_the_step() {
    let start = Instant::now();
    for w in Workload::ALL {
        let mut outcome =
            run(w, 7, 0.0, true, &Sizes::TINY).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(outcome.attempted() > 0);
        assert_eq!(outcome.failed(), 0, "{}", w.name());

        let layers = outcome.per_layer().expect("traced");
        let step = layers["bench.step_mean_ns"];
        let sum: f64 = w.leaves().iter().map(|l| layers[l]).sum();
        assert!(
            (sum - step).abs() <= 1e-6 * step,
            "{}: layers sum to {sum}, the mean step is {step}",
            w.name()
        );
        assert!(step > 0.0);
        assert_eq!(emitted(&outcome.json()), names(PER_LAYER), "{}", w.name());
        outcome.tracing = None;
        assert_eq!(emitted(&outcome.json()), names(END_TO_END), "{}", w.name());
        assert!(outcome.e2e().values().all(|&v| v > 0.0), "{}", w.name());
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        elapsed < 60.0,
        "tiny runs of all four workloads took {elapsed:.1} s"
    );
}

fn names(ms: &[Metric]) -> Vec<String> {
    ms.iter().map(|m| m.name.to_string()).collect()
}

/// The metric names of a result line, checking its shape on the way.
fn emitted(line: &str) -> Vec<String> {
    let Json::Obj(top) = Json::parse(line) else {
        panic!("result is not an object: {line}");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(top[0].1, Json::Bool(true));
    let Json::Obj(metrics) = &top[3].1 else {
        panic!("metrics is not an object");
    };
    for (name, m) in metrics {
        assert!(m.num("value").is_some_and(f64::is_finite), "{name}");
        assert!(!m.str("unit").is_empty());
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn a_round_that_differs_fails_the_determinism_check() {
    let first = Round {
        digest: 1,
        ..Round::default()
    };
    let drifted = Round {
        digest: 2,
        ..Round::default()
    };
    let err = same_outputs(&[first], &drifted, "production").expect_err("digests differ");
    assert_eq!(err.check, "determinism");
}

#[test]
fn arguments_parse_and_bad_ones_are_refused() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = parse("--workload swap_soak --seed 3 --seconds 1.5 --trace 1").expect("valid");
    assert_eq!(a.workload, Workload::SwapSoak);
    assert_eq!((a.seed, a.seconds, a.trace), (3, 1.5, true));
    for bad in [
        "--seed 3",
        "--workload nope",
        "--workload regen_frame --trace 2",
        "--workload regen_frame --seconds -1",
        "--workload regen_frame --verbose 1",
        "--workload",
    ] {
        assert!(parse(bad).is_err(), "{bad} was accepted");
    }
}

/// Just enough JSON to read `BENCHMARK.json` and the result line.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after the JSON value");
        v
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> String {
        match self.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string");
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad token {n:?}"))),
                }
            }
        }
    }
}
