//! `--compare OLD NEW`: a per-layer delta table between two trace
//! files written by traced runs.

use tsocc_bench::json::{self, Value};

fn load(path: &str) -> Result<Value, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn metrics(doc: &Value) -> Vec<(String, f64, String)> {
    let Some(Value::Obj(fields)) = doc.get("metrics") else {
        return Vec::new();
    };
    fields
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), value, unit))
        })
        .collect()
}

fn describe(doc: &Value) -> String {
    let field = |k: &str| {
        doc.get(k)
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                Value::Num(n) => n.clone(),
                other => format!("{other:?}"),
            })
            .unwrap_or_default()
    };
    let host = doc.get("host");
    let commit = host
        .and_then(|h| h.get("commit"))
        .and_then(Value::as_str)
        .unwrap_or("?");
    let nproc = host
        .and_then(|h| h.get("nproc"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    format!(
        "{} seed {} commit {commit} nproc {nproc}",
        field("workload"),
        field("seed")
    )
}

/// Counts print as integers, everything else with six decimals.
fn number(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Prints the per-layer delta table of two trace files.
pub fn run(old_path: &str, new_path: &str) -> Result<(), String> {
    let old = load(old_path)?;
    let new = load(new_path)?;
    println!("old: {}", describe(&old));
    println!("new: {}", describe(&new));
    let old_m = metrics(&old);
    let new_m = metrics(&new);
    if new_m.is_empty() {
        return Err(format!("{new_path} has no metrics"));
    }
    println!(
        "{:<34} {:>14} {:>16} {:>16} {:>9}",
        "metric", "unit", "old", "new", "delta %"
    );
    for (name, v_new, unit) in &new_m {
        let v_old = old_m.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v);
        let (old_s, pct) = match v_old {
            Some(o) if o != 0.0 => (number(o), format!("{:+.2}", (v_new - o) / o * 100.0)),
            Some(o) => (number(o), "-".to_string()),
            None => ("absent".to_string(), "-".to_string()),
        };
        println!(
            "{name:<34} {unit:>14} {old_s:>16} {:>16} {pct:>9}",
            number(*v_new)
        );
    }
    Ok(())
}
