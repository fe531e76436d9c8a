//! Engine performance-snapshot rows and their JSON round-trip.
//!
//! The `perf_snapshot` binary measures wall-clock engine throughput and
//! writes `BENCH_engine.json`; CI re-reads those files to compare runs.
//! Both directions live here — a hand-rolled emitter and parser for the
//! one fixed shape we produce (the container has no serde) — so the
//! format is defined in exactly one place and the round-trip is testable.

use std::fmt::Write as _;

/// One measured run of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scenario name (`ring_1mib`, `pairs64`).
    pub scenario: String,
    /// Median wall time, milliseconds (3 decimals survive the JSON).
    pub wall_ms: f64,
    /// Events the run dispatched.
    pub events: u64,
    /// `events / wall_ms`, rounded to whole events in the JSON.
    pub events_per_sec: f64,
    /// The engine's `(time, kind)` event-stream digest.
    pub digest: u64,
}

/// A full snapshot file: header plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Benchmark family tag (`engine_throughput`).
    pub bench: String,
    /// Simulation seed all rows used.
    pub seed: u64,
    /// Cores the measuring host offered.
    pub host_cores: usize,
    /// Measured rows, in sweep order.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// Serialize in the committed `BENCH_engine.json` shape.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scenario\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, \
                 \"events_per_sec\": {:.0}, \"digest\": \"{:#018x}\"}}",
                r.scenario, r.wall_ms, r.events, r.events_per_sec, r.digest,
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a snapshot previously written by [`Snapshot::to_json`].
    ///
    /// Not a general JSON parser: it accepts the one shape this module
    /// emits (string values without escapes, one row per line) and
    /// reports anything else as an error.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot {
            bench: string_field(text, "bench")?,
            seed: num_field(text, "seed")?,
            host_cores: num_field(text, "host_cores")? as usize,
            rows: Vec::new(),
        };
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with("{\"scenario\"") {
                continue;
            }
            let digest_hex = string_field(line, "digest")?;
            let digest = u64::from_str_radix(
                digest_hex
                    .strip_prefix("0x")
                    .ok_or_else(|| format!("digest without 0x prefix: {digest_hex}"))?,
                16,
            )
            .map_err(|e| format!("bad digest {digest_hex}: {e}"))?;
            snap.rows.push(Row {
                scenario: string_field(line, "scenario")?,
                wall_ms: float_field(line, "wall_ms")?,
                events: num_field(line, "events")?,
                events_per_sec: float_field(line, "events_per_sec")?,
                digest,
            });
        }
        Ok(snap)
    }
}

/// The raw token after `"key": `, up to the next `,`, `}` or newline.
fn raw_field(text: &str, key: &str) -> Result<String, String> {
    let tag = format!("\"{key}\":");
    let at = text
        .find(&tag)
        .ok_or_else(|| format!("missing field {key}"))?;
    let rest = text[at + tag.len()..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Ok(rest[..end].trim().to_string())
}

fn string_field(text: &str, key: &str) -> Result<String, String> {
    let raw = raw_field(text, key)?;
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("field {key} is not a string: {raw}"))
}

fn num_field(text: &str, key: &str) -> Result<u64, String> {
    let raw = raw_field(text, key)?;
    raw.parse().map_err(|e| format!("field {key}: {e}"))
}

fn float_field(text: &str, key: &str) -> Result<f64, String> {
    let raw = raw_field(text, key)?;
    raw.parse().map_err(|e| format!("field {key}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            bench: "engine_throughput".into(),
            seed: 42,
            host_cores: 2,
            rows: vec![
                Row {
                    scenario: "ring_1mib".into(),
                    // Values at emission precision (3 decimals / whole
                    // events) so the f64s survive the text round-trip.
                    wall_ms: 12.125,
                    events: 1_234_567,
                    events_per_sec: 101_820_000.0,
                    digest: 0xd76b_ef7d_1b3f_c15a,
                },
                Row {
                    scenario: "pairs64".into(),
                    wall_ms: 3.5,
                    events: 99,
                    events_per_sec: 28_286.0,
                    digest: 0x0000_0000_0000_0001,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let parsed = Snapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // And the emission itself is a fixed point.
        assert_eq!(parsed.to_json(), snap.to_json());
    }

    #[test]
    fn empty_rows_round_trip() {
        let snap = Snapshot {
            bench: "engine_throughput".into(),
            seed: 7,
            host_cores: 64,
            rows: Vec::new(),
        };
        assert_eq!(Snapshot::parse(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("not json at all").is_err());
        let broken = sample()
            .to_json()
            .replace("\"digest\": \"0x", "\"digest\": \"zz");
        assert!(Snapshot::parse(&broken).is_err());
    }
}
