//! Size ratchet: the workspace's crate count, non-test lines per crate
//! and in total, and the largest file's non-test lines must stay within
//! `budgets.json`. A number over its budget fails (the code grew), and so
//! does a number more than 2 % under it (the code shrank, so lower the
//! budget to record the deletion and keep it from growing back).
//!
//! A file's non-test lines are its lines before its first `#[cfg(test)]`.

use fuzzyflow::fuzz::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Slack under a budget before the ratchet asks for it to be lowered.
const SLACK: f64 = 0.02;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Lines of `text` before its first `#[cfg(test)]` line.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

/// Adds every `.rs` file under `dir` to `files` as `(path, non-test lines)`.
fn walk(dir: &Path, files: &mut Vec<(PathBuf, usize)>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            files.push((path, non_test_lines(&text)));
        }
    }
}

/// Checks `actual` against `budget`: at most the budget, and no more
/// than [`SLACK`] under it.
fn check(what: &str, actual: usize, budget: usize, failures: &mut Vec<String>) {
    if actual > budget {
        failures.push(format!("{what}: {actual} is over its budget of {budget}"));
    } else if (actual as f64) < budget as f64 * (1.0 - SLACK) {
        failures.push(format!(
            "{what}: {actual} is more than 2 % under its budget of {budget}; \
             lower the budget in budgets.json"
        ));
    }
}

fn budget(json: &Json, key: &str) -> usize {
    json.get(key)
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("budgets.json: missing count '{key}'"))
}

#[test]
fn sizes_stay_within_their_budgets() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("budgets.json")).expect("budgets.json");
    let budgets = Json::parse(&text).expect("budgets.json parses");
    let Some(Json::Obj(crate_budgets)) = budgets.get("crate_lines") else {
        panic!("budgets.json: missing object 'crate_lines'");
    };

    let mut per_crate = BTreeMap::new();
    let mut largest: (usize, PathBuf) = (0, PathBuf::new());
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let mut files = Vec::new();
        walk(&dir.join("src"), &mut files);
        for (path, lines) in &files {
            if *lines > largest.0 {
                largest = (*lines, path.clone());
            }
        }
        per_crate.insert(name, files.iter().map(|(_, n)| n).sum::<usize>());
    }

    let mut failures = Vec::new();
    check(
        "crate count",
        per_crate.len(),
        budget(&budgets, "crates"),
        &mut failures,
    );
    check(
        "non-test lines under crates/*/src",
        per_crate.values().sum(),
        budget(&budgets, "total_lines"),
        &mut failures,
    );
    check(
        &format!("largest file ({})", largest.1.display()),
        largest.0,
        budget(&budgets, "largest_file_lines"),
        &mut failures,
    );
    for (name, &lines) in &per_crate {
        match crate_budgets.get(name).and_then(Json::as_usize) {
            Some(b) => check(&format!("crates/{name}"), lines, b, &mut failures),
            None => failures.push(format!("crates/{name}: no budget in budgets.json")),
        }
    }
    for name in crate_budgets.keys() {
        if !per_crate.contains_key(name) {
            failures.push(format!("crates/{name}: budgeted but gone; drop its budget"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
