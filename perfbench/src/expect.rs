//! Expected outputs at the default seed: one `key<TAB>value` line per
//! sim point or campaign job. The values are exact simulated outcomes,
//! so any difference is a correctness failure, never noise.

use std::collections::BTreeMap;

use tsocc::RunStats;

/// The expected value of every point or job of one workload (empty
/// when the run's seed is not the default one: then only completion
/// and the absence of violations are checked).
#[derive(Default)]
pub struct Expectations {
    map: BTreeMap<String, String>,
}

/// The committed expectations of `workload`.
pub fn committed(workload: &str) -> &'static str {
    match workload {
        "suite-16c" => include_str!("../expected/suite-16c.tsv"),
        "scale-128c" => include_str!("../expected/scale-128c.tsv"),
        "verify-campaign" => include_str!("../expected/verify-campaign.tsv"),
        _ => "",
    }
}

impl Expectations {
    /// Parses `key<TAB>value` lines.
    pub fn parse(src: &str) -> Result<Expectations, String> {
        let mut map = BTreeMap::new();
        for (n, line) in src.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let (k, v) = line
                .split_once('\t')
                .ok_or_else(|| format!("expectation line {} has no tab", n + 1))?;
            map.insert(k.to_string(), v.to_string());
        }
        Ok(Expectations { map })
    }

    /// Whether there is anything to compare against.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `actual` is what `key` should produce; a mismatch or a
    /// missing key is reported on stderr. Always true when empty.
    pub fn check(&self, key: &str, actual: &str) -> bool {
        if self.map.is_empty() {
            return true;
        }
        match self.map.get(key) {
            Some(want) if want == actual => true,
            want => {
                eprintln!("MISMATCH {key}: expected {want:?}, got {actual:?}");
                false
            }
        }
    }

    /// Replaces the expected value of `key` (used to tamper with one
    /// expectation in the self-test).
    #[cfg(test)]
    pub fn set(&mut self, key: &str, value: &str) {
        self.map.insert(key.to_string(), value.to_string());
    }
}

/// FNV-1a over a string.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A point's simulated outcome: headline counters plus a hash of the
/// whole `Debug` form, which pins every simulated field and leaves out
/// the host-side scheduler and degradation counters.
pub fn run_stats_value(stats: &RunStats) -> String {
    format!(
        "cycles={} instructions={} flits={} debug_fnv={:016x}",
        stats.cycles,
        stats.instructions,
        stats.total_flits(),
        fnv(&format!("{stats:?}"))
    )
}
