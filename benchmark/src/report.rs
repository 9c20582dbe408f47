//! The metric vocabulary, the result of one run, and the files and tables
//! made from it. `BENCHMARK.json` at the repository root repeats the tables
//! below; a unit test keeps the two equal.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the virtual disk would see. Measured with tracing off.
///
/// Every bound is wider than the issue's 0.10: in the sandbox the bounds were
/// tuned in, one CPU-bound thread's speed itself moves by a third between
/// ten-second windows, and a bound has to stay three times above the
/// run-to-run spread it is checked against (README, "Steadiness").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("rebuild_stripes_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers (the crates), from the traced pass. Reported, not gated.
pub const PER_LAYER: [MetricDef; 48] = [
    // End-to-end by nature, but their spread between runs of one commit is
    // wider than the widest bound allowed (0.25), so they are reported here.
    layer("write_p99_us", "us", Lower),
    layer("read_p99_us", "us", Lower),
    layer("erasure.encode_us", "us", Lower),
    layer("erasure.modify_us", "us", Lower),
    layer("erasure.decode_us", "us", Lower),
    layer("erasure.encode_mib_per_s", "MiB/s", Higher),
    layer("wire.encode_us", "us", Lower),
    layer("wire.decode_us", "us", Lower),
    layer("wire.bytes_per_op", "bytes", Lower),
    layer("store.crc32_mib_per_s", "MiB/s", Higher),
    layer("store.append_sync_us", "us", Lower),
    layer("store.syncs_per_op", "count", Lower),
    layer("store.records_per_sync", "count", Higher),
    layer("store.fsync_p50_us", "us", Lower),
    layer("store.log_bytes_per_user_byte", "ratio", Lower),
    layer("store.commit_wait_us", "us", Lower),
    layer("store.records_per_sweep_read", "count", Lower),
    layer("core.sim_op_us", "us", Lower),
    layer("core.msgs_per_op", "count", Lower),
    layer("core.disk_writes_per_op", "count", Lower),
    layer("core.disk_reads_per_op", "count", Lower),
    layer("core.payload_bytes_per_op", "bytes", Lower),
    layer("core.write_order_p50_us", "us", Lower),
    layer("core.write_store_p50_us", "us", Lower),
    layer("core.quorum_rounds_mean", "count", Lower),
    layer("core.reads_recovered_share", "ratio", Lower),
    layer("core.sweep_recovered_share", "ratio", Lower),
    layer("core.aborted_share", "ratio", Lower),
    layer("net.frames_per_op", "count", Lower),
    layer("net.bytes_per_op", "bytes", Lower),
    layer("net.frames_per_syscall", "count", Higher),
    layer("net.pool_miss_share", "ratio", Lower),
    layer("net.admin_rtt_us", "us", Lower),
    layer("net.volatile_write_p50_us", "us", Lower),
    layer("net.volatile_read_p50_us", "us", Lower),
    layer("runtime.write_p50_us", "us", Lower),
    layer("runtime.read_p50_us", "us", Lower),
    layer("repair.scrub_p50_us", "us", Lower),
    layer("repair.scrub_p99_us", "us", Lower),
    layer("repair.retried", "count", Lower),
    layer("repair.failed", "count", Lower),
    layer("repair.net_bytes_per_rebuilt_byte", "ratio", Lower),
    layer("repair.sweep_recovered_share", "ratio", Lower),
    layer("env.fsync_us", "us", Lower),
    layer("e2e.unattributed_us", "us", Lower),
    layer("trace.write_p50_us", "us", Lower),
    layer("trace.ops_per_s", "1/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One measured metric. `note` carries what belongs beside the number:
/// the sample count of a percentile, the min–max of the slices.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub note: String,
}

/// The outcome of one workload in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every output checked matched what was last written.
    pub correct: bool,
    pub first_failure: Option<String>,
    pub metrics: Vec<Measured>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Measured {
            name,
            value,
            note: note.into(),
        });
    }

    /// The names [`defs`] lists for this pass that were not measured, and
    /// the measured names it does not list. Both must be empty.
    pub fn vocabulary_errors(&self) -> Vec<String> {
        let defs = defs(self.traced);
        let mut errors = Vec::new();
        for d in defs {
            if !self.metrics.iter().any(|m| m.name == d.name) {
                errors.push(format!("metric {} was not measured", d.name));
            }
        }
        for m in &self.metrics {
            if !defs.iter().any(|d| d.name == m.name) {
                errors.push(format!("metric {} is not in the vocabulary", m.name));
            }
        }
        errors
    }

    fn unit_of(&self, name: &str) -> &'static str {
        defs(self.traced)
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    }

    /// The table printed for people: every metric by name with its unit.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "== {} ({}) — ops_attempted {}  ops_failed {}  correct {}\n",
            self.workload,
            if self.traced {
                "traced pass"
            } else {
                "tracing off"
            },
            self.attempted,
            self.failed,
            self.correct
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<34} {:>16.4} {:<6} {}\n",
                m.name,
                m.value,
                self.unit_of(m.name),
                m.note
            ));
        }
        if let Some(f) = &self.first_failure {
            out.push_str(&format!("first failure: {f}\n"));
        }
        out
    }

    /// The one-line object the driver reads from the last line of stdout.
    pub fn contract_line(&self) -> String {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(self.unit_of(m.name))),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }

    /// This report as it appears under `workloads.<name>` in a result file.
    pub fn to_json(&self) -> Json {
        let metrics = Json::obj(self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(self.unit_of(m.name))),
                    ("note", Json::str(m.note.clone())),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "first_failure",
                self.first_failure.clone().map_or(Json::Null, Json::Str),
            ),
            ("metrics", metrics),
        ])
    }
}

/// A result file: what the numbers depend on, then one entry per workload
/// and pass (`end_to_end` from tracing-off runs, `per_layer` from traced).
pub fn result_file(env: Json, run: Json, reports: &[Report]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for r in reports {
        let pass = if r.traced { "per_layer" } else { "end_to_end" };
        let entry = match workloads.iter_mut().find(|(name, _)| name == r.workload) {
            Some((_, entry)) => entry,
            None => {
                workloads.push((r.workload.to_string(), Json::Obj(Vec::new())));
                &mut workloads.last_mut().expect("just pushed").1
            }
        };
        if let Json::Obj(pairs) = entry {
            pairs.push((pass.to_string(), r.to_json()));
        }
    }
    Json::obj([
        ("env", env),
        ("run", run),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// Adds `from`'s workload passes to `into` (same commit, same settings: the
/// first file's `env` and `run` stand for both).
pub fn merge_result_files(mut into: Json, from: &Json) -> Json {
    let extra = from.get("workloads").map_or(&[][..], Json::entries);
    if let Json::Obj(top) = &mut into {
        if let Some((_, Json::Obj(workloads))) = top.iter_mut().find(|(k, _)| k == "workloads") {
            for (name, passes) in extra {
                match workloads.iter_mut().find(|(n, _)| n == name) {
                    Some((_, Json::Obj(existing))) => {
                        existing.extend(passes.entries().iter().cloned())
                    }
                    _ => workloads.push((name.clone(), passes.clone())),
                }
            }
        }
    }
    into
}

/// One row of the `--compare` table.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative =
    /// better), in the metric's own direction.
    pub worse_by: f64,
    pub bound: f64,
}

impl Comparison {
    pub fn within_bound(&self) -> bool {
        self.worse_by <= self.bound
    }
}

/// Compares the end-to-end metrics of two result files, `a` the baseline.
///
/// # Errors
///
/// A message when a file lacks a workload or metric the other has, or
/// records failed or incorrect operations.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Comparison>, String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .ok_or("no \"workloads\" object")?
            .entries()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, entry_a) in &wa {
        let entry_b = wb
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e)
            .ok_or_else(|| format!("workload {name} is missing from the second file"))?;
        let pass = |entry: &Json, which: &str| -> Result<Json, String> {
            let e2e = entry
                .get("end_to_end")
                .ok_or_else(|| format!("{which} file: {name} has no end_to_end pass"))?;
            let failed = e2e
                .get("ops_failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let correct = e2e.get("correct").and_then(Json::as_bool).unwrap_or(false);
            if failed != 0.0 || !correct {
                return Err(format!(
                    "{which} file: {name} has ops_failed = {failed}, correct = {correct}"
                ));
            }
            Ok(e2e.clone())
        };
        let (pa, pb) = (pass(entry_a, "first")?, pass(entry_b, "second")?);
        for def in &END_TO_END {
            let value = |p: &Json, which: &str| -> Result<f64, String> {
                p.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{which} file: {name} lacks {}", def.name))
            };
            let (va, vb) = (value(&pa, "first")?, value(&pb, "second")?);
            let worse_by = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            rows.push(Comparison {
                workload: name.clone(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by,
                bound: def.bound.expect("end-to-end metrics have bounds"),
            });
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            return Err(format!("workload {name} is missing from the first file"));
        }
    }
    Ok(rows)
}

pub fn render_comparison(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<22} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.within_bound() { "" } else { "  EXCEEDS" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::workload::WORKLOADS;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} is used twice", d.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|d| d.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the code.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert_eq!(j.entries().len(), 2);
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (j, d) in items.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(j, "better"), d.better.as_str(), "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS as f64)
        );
        assert_eq!(list("paths"), vec![Json::str("benchmark")]);
    }

    fn report(workload: &'static str, scale: f64, failed: u64) -> Report {
        let mut r = Report {
            workload,
            traced: false,
            attempted: 1000,
            failed,
            correct: failed == 0,
            first_failure: None,
            metrics: Vec::new(),
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            r.push(d.name, (i as f64 + 1.5) * scale, "n=10");
        }
        r
    }

    fn file(reports: &[Report]) -> Json {
        let doc = result_file(Json::obj([("arch", Json::str("x"))]), Json::Null, reports);
        parse(&doc.render_pretty()).expect("result files parse back")
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        let base = file(&[
            report("stripe_write_512", 1.0, 0),
            report("rebuild_4k", 2.0, 0),
        ]);
        let rows = compare(&base, &base).unwrap();
        assert_eq!(rows.len(), 2 * END_TO_END.len());
        assert!(rows.iter().all(|r| r.worse_by == 0.0 && r.within_bound()));

        // 8 % bigger everywhere: worse for "lower" metrics, better for
        // "higher" ones; inside every bound.
        let up8 = file(&[
            report("stripe_write_512", 1.08, 0),
            report("rebuild_4k", 2.16, 0),
        ]);
        let rows = compare(&base, &up8).unwrap();
        assert!(rows.iter().all(Comparison::within_bound));
        let ops = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert!((ops.worse_by + 0.08).abs() < 1e-9, "{ops:?}");
        let p50 = rows.iter().find(|r| r.metric == "write_p50_us").unwrap();
        assert!((p50.worse_by - 0.08).abs() < 1e-9, "{p50:?}");

        // 30 % bigger: every "lower is better" bound is exceeded, and no
        // "higher is better" one.
        let up30 = file(&[
            report("stripe_write_512", 1.3, 0),
            report("rebuild_4k", 2.6, 0),
        ]);
        let rows = compare(&base, &up30).unwrap();
        let exceeded: Vec<_> = rows
            .iter()
            .filter(|r| !r.within_bound())
            .map(|r| r.metric)
            .collect();
        assert!(exceeded.contains(&"write_p50_us") && exceeded.contains(&"setup_s"));
        assert!(!exceeded.contains(&"ops_per_s") && !exceeded.contains(&"rebuild_stripes_per_s"));
        assert!(render_comparison(&rows).contains("EXCEEDS"));
    }

    #[test]
    fn merged_parts_equal_one_file() {
        let mut traced = report("rebuild_4k", 1.0, 0);
        traced.traced = true;
        traced.metrics.clear();
        let parts = [
            report("block_mix_4k", 1.0, 0),
            report("rebuild_4k", 2.0, 0),
            traced,
        ];
        let whole = file(&parts);
        let merged = parts[1..].iter().fold(file(&parts[..1]), |acc, r| {
            merge_result_files(acc, &file(std::slice::from_ref(r)))
        });
        assert_eq!(merged, whole);
    }

    #[test]
    fn compare_refuses_failed_ops_and_mismatched_files() {
        let good = file(&[report("block_mix_4k", 1.0, 0)]);
        let failed = file(&[report("block_mix_4k", 1.0, 3)]);
        assert!(compare(&good, &failed).unwrap_err().contains("ops_failed"));
        assert!(compare(&failed, &good).unwrap_err().contains("ops_failed"));
        let other = file(&[report("rebuild_4k", 1.0, 0)]);
        assert!(compare(&good, &other).unwrap_err().contains("missing"));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = report("block_mix_4k", 1.0, 0);
        let line = r.contract_line();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().entries();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert!(r.vocabulary_errors().is_empty());
    }
}
