//! The expected-verdict table and its checker.
//!
//! `expected/verdicts.json` holds one `ok | fault` class per enumerated
//! instance of the full campaign, keyed by `(program, pass, match)`. The
//! class, not the exact label, is compared: whether a seeded bug surfaces
//! as a crash or as a semantic change legitimately shifts with the seed.
//! A few instances are `either`: whether the trial budget exposes them
//! depends on the seed (README.md lists them and why); they must still
//! reach a verdict.

use crate::spec::Workload;
use std::collections::BTreeMap;

const TABLE: &str = include_str!("../expected/verdicts.json");

/// `(program, pass, match description)` — unique per enumerated instance.
type Key = (String, String, String);

/// What one verified instance reported.
pub struct Observed<'a> {
    pub program: &'a str,
    pub pass: &'a str,
    pub match_description: &'a str,
    /// The report's label ("ok", "crash", "pipeline error", …).
    pub label: &'a str,
    pub is_fault: bool,
}

/// The string literals of one line, unescaped, in order.
fn string_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut s = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => s.push('\n'),
                    Some(other) => s.push(other),
                    None => break,
                },
                c => s.push(c),
            }
        }
        out.push(s);
    }
    out
}

fn key(program: &str, pass: &str, m: &str) -> Key {
    (program.to_string(), pass.to_string(), m.to_string())
}

/// The table rows that belong to `workload`, as `key → expects a fault`
/// (`None`: either class).
fn expected_for(workload: &Workload) -> BTreeMap<Key, Option<bool>> {
    let rows: Vec<Vec<String>> = TABLE
        .lines()
        .map(string_literals)
        .filter(|lits| lits.len() == 8 && lits[0] == "program")
        .collect();
    rows.iter()
        .filter(|r| workload.covers(&r[1], &r[3]))
        .map(|r| {
            let class = (r[7] != "either").then_some(r[7] == "fault");
            (key(&r[1], &r[3], &r[5]), class)
        })
        .collect()
}

/// Number of instances whose class differs from the table. A pipeline
/// error or an inconclusive verdict is neither `ok` nor `fault`, so it
/// always counts; so does an instance missing from or extra to the table —
/// a change in match enumeration cannot pass silently.
pub fn mismatches(workload: &Workload, observed: &[Observed<'_>]) -> usize {
    let mut expected = expected_for(workload);
    let wrong = observed
        .iter()
        .filter(|o| {
            let decided = o.is_fault || o.label == "ok";
            let agrees = match expected.remove(&key(o.program, o.pass, o.match_description)) {
                Some(class) => class.is_none_or(|fault| fault == o.is_fault),
                None => false,
            };
            !(decided && agrees)
        })
        .count();
    // What is left of the table was never observed.
    wrong + expected.len()
}

/// The table text for a set of observations (the `--emit-verdicts` mode
/// that generated `expected/verdicts.json`, reviewed by hand afterwards).
pub fn render(observed: &[Observed<'_>]) -> String {
    use crate::util::quote;
    let mut out = String::from("{\"instances\": [\n");
    for (i, o) in observed.iter().enumerate() {
        out.push_str(&format!(
            "{{\"program\": {}, \"pass\": {}, \"match\": {}, \"class\": {}}}{}\n",
            quote(o.program),
            quote(o.pass),
            quote(o.match_description),
            quote(if o.is_fault { "fault" } else { "ok" }),
            if i + 1 < observed.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}
