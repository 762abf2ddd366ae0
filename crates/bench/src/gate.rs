//! Regression gates declared as data beside each bench, and the one
//! function that evaluates them.
//!
//! A [`Gate`] names a key path in its bench's committed artefact and a
//! [`Rule`] for the value there. `Ratchet` compares the bench's live
//! smoke value against the committed one; `AtLeast` and `Equals` hold
//! every committed value the path reaches, and the smoke's values too
//! when the gate is [`Gate::live`]. A gate may carry a condition on
//! another committed key (e.g. only when `host_parallelism >= 8`); the
//! condition's key must still exist.

use crate::report::Artefact;
use std::fmt;

/// What a gated value must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// The live value is at most the committed value (clamped to ≥ 1)
    /// times this factor.
    Ratchet(f64),
    /// Every value is a number at least this large.
    AtLeast(f64),
    /// Every value is written as exactly this JSON token (`"0"`,
    /// `"true"`).
    Equals(&'static str),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Ratchet(factor) => write!(f, "<= {factor}x committed"),
            Rule::AtLeast(min) => write!(f, ">= {min}"),
            Rule::Equals(want) => write!(f, "== {want}"),
        }
    }
}

/// One gated quantity of a bench's artefact.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// Key path into the artefact (see [`Artefact::read`]).
    pub key: &'static str,
    /// What the value must satisfy.
    pub rule: Rule,
    /// Whether `AtLeast`/`Equals` also hold the live smoke's values.
    pub live: bool,
    /// Apply the rule only when this committed key satisfies this rule.
    pub when: Option<(&'static str, Rule)>,
}

impl Gate {
    /// A gate on the committed artefact (and, for `Ratchet`, the smoke).
    pub const fn new(key: &'static str, rule: Rule) -> Self {
        Gate {
            key,
            rule,
            live: false,
            when: None,
        }
    }

    /// Also holds the live smoke's values to the rule.
    pub const fn live(self) -> Self {
        Gate { live: true, ..self }
    }

    /// Applies the rule only when committed `key` satisfies `rule`.
    pub const fn when(self, key: &'static str, rule: Rule) -> Self {
        Gate {
            when: Some((key, rule)),
            ..self
        }
    }
}

/// Every value `key` reaches in `doc`, or an error when there is none.
fn values<'a>(doc: &'a Artefact, key: &str, side: &str) -> Result<Vec<&'a Artefact>, String> {
    let found = doc.read(key);
    if found.is_empty() {
        Err(format!("{key}: missing from the {side} artefact"))
    } else {
        Ok(found)
    }
}

fn number(v: &Artefact, key: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("{key}: {v} is not a number"))
}

/// Checks `rule` on every value; `Err` names the first violation.
fn hold(rule: &Rule, key: &str, found: &[&Artefact], side: &str) -> Result<(), String> {
    for v in found {
        let ok = match rule {
            Rule::AtLeast(min) => number(v, key)? >= *min,
            Rule::Equals(want) => v.to_string() == *want,
            Rule::Ratchet(_) => unreachable!("ratchets compare two artefacts"),
        };
        if !ok {
            return Err(format!("{key}: {side} value {v}, want {rule}"));
        }
    }
    Ok(())
}

/// Evaluates one gate against the committed artefact and the live smoke.
/// `Ok` and `Err` both carry the one-line report.
pub fn check(gate: &Gate, committed: &Artefact, live: &Artefact) -> Result<String, String> {
    let key = gate.key;
    let found = values(committed, key, "committed")?;
    if let Some((cond_key, cond)) = &gate.when {
        let cond_found = values(committed, cond_key, "committed")?;
        if hold(cond, cond_key, &cond_found, "committed").is_err() {
            return Ok(format!("{key}: skipped, {cond_key} is {}", cond_found[0]));
        }
    }
    match &gate.rule {
        Rule::Ratchet(factor) => {
            let base = number(found[0], key)?;
            let now = number(values(live, key, "live")?[0], key)?;
            let ratio = now / base.max(1.0);
            let line =
                format!("{key}: live {now} vs committed {base} ({ratio:.2}x, limit {factor}x)");
            if now <= base.max(1.0) * factor {
                Ok(line)
            } else {
                Err(line)
            }
        }
        rule => {
            hold(rule, key, &found, "committed")?;
            let context = if gate.live {
                let context = live_context(rule, live, key);
                hold(rule, key, &values(live, key, "live")?, "live")
                    .map_err(|line| line + &context)?;
                context
            } else {
                String::new()
            };
            let shown: Vec<String> = found.iter().map(|v| v.to_string()).collect();
            let side = if gate.live {
                "committed and live"
            } else {
                "committed"
            };
            Ok(format!(
                "{key}: {} {rule} ({side}){context}",
                shown.join(",")
            ))
        }
    }
}

/// For a live numeric floor, the live value's enclosing object (when
/// there is one), so the line shows what the value was computed from —
/// e.g. the serial and parallel sides of a modeled ratio.
fn live_context(rule: &Rule, live: &Artefact, key: &str) -> String {
    let parent = match (rule, key.rsplit_once('.')) {
        (Rule::AtLeast(_), Some((parent, _))) => parent,
        _ => return String::new(),
    };
    match live.read(parent)[..] {
        [object] => format!("; live {parent}: {object}"),
        _ => String::new(),
    }
}
