//! The standing detection matrix: the Table-2 campaign, exactly as the
//! benchmark's `table2_cold` workload runs it, checked row by row
//! against the benchmark's expected-verdict table. Sound instances must
//! come out `ok`, seeded bugs `fault`, the few seed-dependent `either`
//! rows must still reach a verdict, and a row missing from or extra to
//! the table fails — so a refactor cannot trade away detection power or
//! shift match enumeration silently.

use fuzzyflow::fuzz::Json;
use fuzzyflow::prelude::*;
use fuzzyflow::session::NullSink;
use std::collections::BTreeMap;

mod common;

const TABLE: &str = include_str!("../benchmark/expected/verdicts.json");

/// `(program, pass, match description)` → expects a fault (`None`:
/// either class).
fn expected() -> BTreeMap<(String, String, String), Option<bool>> {
    let table = Json::parse(TABLE).expect("verdict table parses");
    let rows = table
        .get("instances")
        .and_then(Json::as_arr)
        .expect("table has an instances array");
    let field = |row: &Json, name: &str| {
        row.get(name)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("row without '{name}': {row:?}"))
            .to_string()
    };
    rows.iter()
        .map(|row| {
            let class = match field(row, "class").as_str() {
                "ok" => Some(false),
                "fault" => Some(true),
                "either" => None,
                other => panic!("unknown class '{other}'"),
            };
            let key = (
                field(row, "program"),
                field(row, "pass"),
                field(row, "match"),
            );
            (key, class)
        })
        .collect()
}

#[test]
fn table2_campaign_matches_the_expected_verdicts() {
    let mut campaign = Campaign::new("detection_matrix")
        .with_transformations(common::table2_passes())
        .with_verify(
            VerifyConfig::new()
                .with_trials(80)
                .with_size_max(10)
                .with_seed(0xBEEF)
                .with_trial_threads(1),
        )
        .with_threads(1);
    for (name, sdfg, bindings) in common::table2_programs() {
        campaign = campaign.with_workload(name, sdfg, bindings);
    }
    let report = campaign.session().run(&NullSink);
    assert_eq!(report.status, StopReason::Completed);

    let mut expected = expected();
    let rows = expected.len();
    let mut wrong = Vec::new();
    for i in &report.instances {
        let key = (
            i.workload.clone(),
            i.transformation.clone(),
            i.match_description.clone(),
        );
        let what = format!("{} × {} @ {}", key.0, key.1, key.2);
        let decided = i.is_fault() || i.label == "ok";
        match expected.remove(&key) {
            None => wrong.push(format!("{what}: not in the table")),
            Some(_) if !decided => wrong.push(format!("{what}: no verdict ({})", i.label)),
            Some(Some(fault)) if fault != i.is_fault() => wrong.push(format!(
                "{what}: expected {}, got {}",
                if fault { "fault" } else { "ok" },
                i.label
            )),
            Some(_) => {}
        }
    }
    wrong.extend(
        expected
            .keys()
            .map(|(p, t, m)| format!("{p} × {t} @ {m}: in the table, never enumerated")),
    );
    assert!(
        wrong.is_empty(),
        "{} of {rows} rows disagree:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
