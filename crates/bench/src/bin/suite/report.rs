//! Result files: the environment stamp, the JSON one run writes, the
//! check of that output against BENCHMARK.json, and `--compare`.

use std::process::Command;

use crate::harness::Spec;
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, FAIL_FRAC, FAIL_FRAC_BOUND, PER_LAYER};
use crate::stats::{compare, Bound, Verdict};
use crate::workloads::SPECS;

/// Result-file layout version; `--compare` refuses others.
const SCHEMA: f64 = 1.0;

/// One pass (untraced or traced) of one workload.
pub struct PassResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind `op_p50_us` / `op_p99_us` (untraced pass).
    pub latency_samples: usize,
}

impl PassResult {
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metrics_json(&self) -> Json {
        self.metrics_json_where(|_| true)
    }

    fn metrics_json_where(&self, keep: impl Fn(&str) -> bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter(|m| keep(m.name))
                .map(|m| {
                    let v = Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]);
                    (m.name.to_owned(), v)
                })
                .collect(),
        )
    }

    fn to_json(&self, keep: impl Fn(&str) -> bool) -> Json {
        Json::obj(vec![
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (FAIL_FRAC.name, Json::Num(self.fail_frac())),
            ("latency_samples", Json::Num(self.latency_samples as f64)),
            ("metrics", self.metrics_json_where(keep)),
        ])
    }
}

pub struct WorkloadResult {
    pub spec: &'static Spec,
    /// Untraced pass: every end-to-end metric (the driver's line carries
    /// them all); the table and the result file keep the cells
    /// [`Spec::reports`].
    pub end_to_end: PassResult,
    pub per_layer: Option<PassResult>,
}

/// Where and how a run was made. A run whose process could not be
/// pinned is recorded but marked not comparable.
pub struct Env {
    pub host_cpus: usize,
    pub pinned_core: Option<usize>,
    pub seed: u64,
    pub window_s: f64,
    pub rung_s: f64,
    pub rounds: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

impl Env {
    pub fn to_json(&self) -> Json {
        let git_rev = command_line("git", &["rev-parse", "HEAD"]);
        let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
        // Every knob value, by printing the defaults the workloads build
        // on; the suite names no knob type.
        let defaults = Json::obj(vec![
            (
                "QpConfig",
                Json::Str(format!("{:?}", iwarp::QpConfig::default())),
            ),
            (
                "SocketConfig",
                Json::Str(format!("{:?}", iwarp_socket::SocketConfig::default())),
            ),
            (
                "DeviceConfig",
                Json::Str(format!("{:?}", iwarp::DeviceConfig::default())),
            ),
            (
                "RdConfig",
                Json::Str(format!("{:?}", simnet::rdgram::RdConfig::default())),
            ),
            (
                "WireConfig",
                Json::Str(format!("{:?}", simnet::WireConfig::default())),
            ),
        ]);
        Json::obj(vec![
            ("git_rev", git_rev.map_or(Json::Null, Json::Str)),
            ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
            (
                "rustc",
                command_line("rustc", &["-V"]).map_or(Json::Null, Json::Str),
            ),
            ("host_cpus", Json::Num(self.host_cpus as f64)),
            ("pinned", Json::Bool(self.pinned_core.is_some())),
            (
                "pinned_core",
                self.pinned_core.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("comparable", Json::Bool(self.pinned_core.is_some())),
            ("seed", Json::Num(self.seed as f64)),
            ("window_s", Json::Num(self.window_s)),
            ("ladder_rung_s", Json::Num(self.rung_s)),
            ("rounds_per_pass", Json::Num(self.rounds as f64)),
            ("defaults", defaults),
        ])
    }
}

pub fn result_json(env: &Env, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(r.spec.name)),
                ("why", Json::str(r.spec.why)),
                ("end_to_end", r.end_to_end.to_json(|m| r.spec.reports(m))),
                (
                    "per_layer",
                    r.per_layer
                        .as_ref()
                        .map_or(Json::Null, |p| p.to_json(|_| true)),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("suite", Json::str("iwarp-suite")),
        ("schema", Json::Num(SCHEMA)),
        ("env", env.to_json()),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The entries of one of BENCHMARK.json's lists, by name.
fn listed<'a>(bench: &'a Json, key: &str) -> Vec<(&'a str, &'a Json)> {
    bench
        .get(key)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|e| Some((e.get("name")?.as_str()?, e)))
        .collect()
}

/// The names BENCHMARK.json promises, checked both ways against the
/// catalogue this binary reports from, with their units and directions.
pub fn check_benchmark_json(bench: &Json) -> Result<(), String> {
    type Ours = Vec<(&'static str, Option<(&'static str, bool)>)>;
    let workloads: Ours = SPECS.iter().map(|s| (s.name, None)).collect();
    let end_to_end: Ours = END_TO_END
        .iter()
        .map(|d| (d.name, Some((d.unit, d.lower_is_better))))
        .collect();
    let per_layer: Ours = PER_LAYER
        .iter()
        .map(|d| (d.name, Some((d.unit, d.lower_is_better))))
        .collect();
    for (key, ours) in [
        ("workloads", workloads),
        ("end_to_end", end_to_end),
        ("per_layer", per_layer),
    ] {
        let theirs = listed(bench, key);
        let missing: Vec<&str> = ours
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !theirs.iter().any(|(t, _)| t == n))
            .collect();
        let extra: Vec<&str> = theirs
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| !ours.iter().any(|(n, _)| n == t))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "BENCHMARK.json {key}: not listed there {missing:?}, not reported here {extra:?}"
            ));
        }
        for (name, entry) in theirs {
            let Some((_, Some((unit, lower)))) = ours.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            let better = if *lower { "lower" } else { "higher" };
            if entry.get("unit").and_then(Json::as_str) != Some(unit)
                || entry.get("better").and_then(Json::as_str) != Some(better)
            {
                return Err(format!(
                    "BENCHMARK.json {key} {name}: expected unit {unit:?}, better {better:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Each pass that ran carries exactly the catalogue's names.
pub fn check_output(results: &[WorkloadResult]) -> Result<(), String> {
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layer_names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    for r in results {
        let passes = [
            (Some(&r.end_to_end), &e2e_names),
            (r.per_layer.as_ref(), &layer_names),
        ];
        for (pass, want) in passes {
            let Some(pass) = pass else { continue };
            let got: Vec<&str> = pass.metrics.iter().map(|m| m.name).collect();
            if got != *want {
                return Err(format!(
                    "{}: reported {got:?}, catalogue has {want:?}",
                    r.spec.name
                ));
            }
            if let Some(bad) = pass.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!(
                    "{} {}: value is not a number",
                    r.spec.name, bad.name
                ));
            }
        }
    }
    Ok(())
}

/// One side of `--compare`: end-to-end values per (workload, metric)
/// gathered over the side's files.
struct Side {
    values: Vec<((String, String), Vec<f64>)>,
}

impl Side {
    fn load(paths: &str) -> Result<Self, String> {
        let mut values: Vec<((String, String), Vec<f64>)> = Vec::new();
        for path in paths.split(',') {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if doc.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
                return Err(format!("{path}: not a suite result of schema {SCHEMA}"));
            }
            let comparable = doc
                .get("env")
                .and_then(|e| e.get("comparable"))
                .and_then(Json::as_bool);
            if comparable != Some(true) {
                return Err(format!(
                    "{path}: run was not pinned to one core; not comparable"
                ));
            }
            for w in doc.get("workloads").map_or(&[][..], Json::as_arr) {
                let Some(name) = w.get("name").and_then(Json::as_str) else {
                    continue;
                };
                let pass = w.get("end_to_end");
                let metrics = pass.and_then(|p| p.get("metrics"));
                let listed = metrics
                    .map_or(&[][..], Json::as_obj)
                    .iter()
                    .map(|(metric, v)| (metric.as_str(), v.get("value")));
                let fail_frac = pass.map(|p| (FAIL_FRAC.name, p.get(FAIL_FRAC.name)));
                for (metric, value) in listed.chain(fail_frac) {
                    let Some(value) = value.and_then(Json::as_f64) else {
                        continue;
                    };
                    let key = (name.to_owned(), metric.to_owned());
                    match values.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, vs)) => vs.push(value),
                        None => values.push((key, vec![value])),
                    }
                }
            }
        }
        Ok(Self { values })
    }

    fn get(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        self.values
            .iter()
            .find(|((w, m), _)| w == workload && m == metric)
            .map(|(_, v)| v.as_slice())
    }
}

/// `--compare A[,A2…] B[,B2…]`: prints one line per (workload,
/// end-to-end metric) cell the workload reports and returns whether any
/// cell is `worse`. Bounds are BENCHMARK.json's shares of A's median;
/// `fail_frac` is judged against its absolute bound.
pub fn compare_files(a_paths: &str, b_paths: &str, bench: &Json) -> Result<bool, String> {
    let (a, b) = (Side::load(a_paths)?, Side::load(b_paths)?);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "delta", "bound"
    );
    let mut any_worse = false;
    for spec in &SPECS {
        let cells = END_TO_END.iter().chain([&FAIL_FRAC]);
        for def in cells.filter(|d| spec.reports(d.name)) {
            let (Some(va), Some(vb)) = (a.get(spec.name, def.name), b.get(spec.name, def.name))
            else {
                continue;
            };
            let bound = if def.name == FAIL_FRAC.name {
                Bound::Abs(FAIL_FRAC_BOUND)
            } else {
                listed(bench, "end_to_end")
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .and_then(|(_, e)| e.get("bound")?.as_f64())
                    .map(Bound::Share)
                    .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?
            };
            let c = compare(va, vb, def.lower_is_better, bound);
            any_worse |= c.verdict == Verdict::Worse;
            // Shares print as percentages, absolute bounds in the unit.
            let (limit, show): (f64, fn(f64) -> String) = match bound {
                Bound::Share(share) => (share, |x| format!("{:+.2}%", x * 100.0)),
                Bound::Abs(abs) => (abs, |x| format!("{x:+.4}")),
            };
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8} {:>8} {:>8} {:>8}  {}",
                spec.name,
                def.name,
                c.median_a,
                c.median_b,
                &show(c.spread_a)[1..],
                &show(c.spread_b)[1..],
                show(c.worse_by),
                &show(limit)[1..],
                c.verdict.as_str()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed BENCHMARK.json names exactly what this binary
    /// reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let bench = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        check_benchmark_json(&bench).unwrap();
        let paths = bench.get("paths").unwrap().as_arr();
        assert_eq!(paths, [Json::str("crates/bench/src/bin/suite")]);
    }

    /// The issue's table: 35 (workload, metric) cells, memory on
    /// `sip_1k` only, latency only where one message is one operation.
    #[test]
    fn each_workload_reports_its_own_cells() {
        let cells = |spec: &Spec| {
            let all = END_TO_END.iter().chain([&FAIL_FRAC]);
            all.filter(|d| spec.reports(d.name)).count()
        };
        assert_eq!(SPECS.iter().map(cells).sum::<usize>(), 35);
        for spec in &SPECS {
            assert_eq!(
                spec.reports("mem_bytes_per_call"),
                spec.name == "sip_1k",
                "{}",
                spec.name
            );
            assert!(spec.reports("ops_per_s") != spec.reports("goodput_MBps"));
            assert!(spec
                .cells
                .iter()
                .all(|c| END_TO_END.iter().any(|d| d.name == *c)));
        }
    }

    /// The directory builds two ways (as `iwarp-bench --bin suite` and
    /// from its own manifest, which BENCHMARK.json's command uses): both
    /// must generate the same code from the same crates.
    #[test]
    fn own_manifest_follows_the_workspace() {
        let section = |text: &'static str, header: &str| -> Vec<&'static str> {
            let lines = text.lines().skip_while(|l| l.trim() != header).skip(1);
            lines
                .take_while(|l| !l.starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let own = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let profile = section(own, "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(profile, section(root, "[profile.release]"));
        let package = section(include_str!("../../../Cargo.toml"), "[dependencies]");
        for dep in section(own, "[dependencies]") {
            let name = dep.split(' ').next().unwrap();
            assert!(
                package.iter().any(|d| d.split(' ').next() == Some(name)),
                "{name} is not a dependency of iwarp-bench"
            );
        }
    }

    #[test]
    fn a_missing_or_renamed_metric_is_reported() {
        let mut bench = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let Json::Obj(pairs) = &mut bench else {
            panic!()
        };
        let e2e = &mut pairs.iter_mut().find(|(k, _)| k == "end_to_end").unwrap().1;
        let Json::Arr(items) = e2e else { panic!() };
        items.pop();
        let msg = check_benchmark_json(&bench).unwrap_err();
        assert!(msg.contains("not listed there"), "{msg}");
    }

    #[test]
    fn output_with_a_metric_missing_is_refused() {
        let full = |defs: Vec<(&'static str, &'static str)>| PassResult {
            metrics: defs
                .into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    value: 1.0,
                    unit,
                })
                .collect(),
            attempted: 1,
            failed: 0,
            latency_samples: 1,
        };
        let mut r = WorkloadResult {
            spec: &SPECS[0],
            end_to_end: full(END_TO_END.iter().map(|d| (d.name, d.unit)).collect()),
            per_layer: None,
        };
        check_output(std::slice::from_ref(&r)).unwrap();
        r.end_to_end.metrics.remove(2);
        assert!(check_output(&[r]).is_err());
    }
}
