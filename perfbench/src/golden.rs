//! Exact-repeat counts: simulated work that must read the same on every
//! run of the same code.
//!
//! Each workload reports the seed-independent counts of its fixed probes
//! (cells per design, events per op kind on a fixed op script, retired
//! instructions and gate cycles per kernel × design, simulators per yield
//! trial). They are compared, key by key, with `perfbench/golden.json`;
//! any difference is a model change and fails the run. Every run prints
//! its counts as `count <name> <value>` lines; after a deliberate model
//! change, the entry is updated from them.

use std::collections::BTreeMap;
use std::path::Path;

use sfq_serve::Json;

/// Observed counts, keyed by a dotted name such as `cells.hiperrf`.
pub type Counts = BTreeMap<String, u64>;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read golden counts {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("golden counts {} are not JSON: {e}", path.display()))
}

/// Compares `observed` with the golden entry `entry`; returns one message
/// per differing, missing or unexpected count.
pub fn check(path: &Path, entry: &str, observed: &Counts) -> Vec<String> {
    let doc = match load(path) {
        Ok(doc) => doc,
        Err(e) => return vec![e],
    };
    let Some(Json::Obj(pairs)) = doc.get(entry) else {
        return vec![format!("golden counts have no entry `{entry}`")];
    };
    let mut problems = Vec::new();
    let mut expected = BTreeMap::new();
    for (k, v) in pairs {
        match v.as_u64() {
            Some(v) => {
                expected.insert(k.clone(), v);
            }
            None => problems.push(format!("golden `{entry}.{k}` is not a count")),
        }
    }
    for (k, &want) in &expected {
        match observed.get(k) {
            Some(&got) if got == want => {}
            Some(&got) => problems.push(format!("count {k}: {got}, golden {want}")),
            None => problems.push(format!("count {k}: not measured, golden {want}")),
        }
    }
    for (k, got) in observed {
        if !expected.contains_key(k) {
            problems.push(format!("count {k}: {got}, not in golden `{entry}`"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expectation_is_caught() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("golden-unit-{}.json", std::process::id()));
        let observed: Counts = [("cells.ndro".to_string(), 10), ("x".to_string(), 3)].into();
        std::fs::write(&path, r#"{"w": {"cells.ndro": 10, "x": 3}}"#).unwrap();
        assert!(check(&path, "w", &observed).is_empty());

        std::fs::write(&path, r#"{"w": {"cells.ndro": 11, "x": 3}}"#).unwrap();
        let problems = check(&path, "w", &observed);
        assert_eq!(problems, ["count cells.ndro: 10, golden 11"]);

        let mut extra = observed.clone();
        extra.insert("y".to_string(), 1);
        assert_eq!(check(&path, "w", &extra).len(), 2);
        assert_eq!(check(&path, "other", &observed).len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
