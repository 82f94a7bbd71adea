//! End-to-end benchmark of the `fro` facade.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <text_local|text_remote|star_htap> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Every workload is a closed loop over
//! the public API only, generated from `--seed`, with the default
//! `ExecConfig` and `ReducePolicy::Auto`; every output is checked.
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics, their times scaled to a reference host speed by a kernel
//! timed between operations; with `--trace 1` half the run is untraced
//! and half traced, and it carries the per-layer metrics (see
//! `src/metrics.rs` and `README.md`). Spans of a traced run are written
//! to `perfbench/out/`. The process exits non-zero when an operation
//! failed or an output check did not hold.

mod metrics;
mod star;
mod text;
mod trace;
mod util;

use fro::core::optimizer::Optimized;
use fro::prelude::*;
use fro_testkit::workloads::StarParams;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1990;
/// Seconds measured when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const WORKLOADS: [&str; 3] = ["text_local", "text_remote", "star_htap"];

/// Data sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    pub depts: usize,
    pub emps_per_dept: usize,
    pub star: StarParams,
    /// Steps an appended fact row lives before its delete.
    pub window: usize,
}

impl Scale {
    /// About 10k employees in 500 departments; a 23k-row fact table.
    fn full() -> Scale {
        Scale {
            depts: 500,
            emps_per_dept: 20,
            star: StarParams {
                dims: 3,
                match_keys: 200,
                good_rows: 2_000,
                hot_keys: 50,
                hot_dup: 20,
                junk_rows: 7_000,
                wide_keys: 0,
                snowflake: true,
            },
            window: 16,
        }
    }
}

/// Faults the self-test injects; never set from the command line.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inject {
    /// Issue one failing query outside the timed mix.
    pub fail: bool,
    /// Drop a row from the first checked result.
    pub wrong: bool,
}

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setups: usize,
    pub scale: Scale,
    pub inject: Inject,
}

/// Operations attempted and failed, with the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(o.notes.into_iter().take(room));
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Timed operations behind the latency quantiles.
    pub samples: usize,
    /// Further human-readable result lines.
    pub report: Vec<String>,
    pub spans: Vec<trace::Span>,
}

/// Optimizer and engine counters of the traced reads.
#[derive(Debug, Default)]
pub struct PlanCounters {
    pub reads: u64,
    pub cache: CacheStats,
    pub pairs_examined: u64,
    pub reduce_applied: u64,
    pub exec: ExecStats,
}

impl PlanCounters {
    pub fn absorb(&mut self, o: &Optimized, stats: &ExecStats) {
        self.reads += 1;
        self.cache.merge(&o.cache);
        self.pairs_examined += o.pairs_examined;
        self.reduce_applied += o.reduction.applied.len() as u64;
        self.exec.merge(stats);
    }

    /// The counters as means per read; the hit ratio over all lookups.
    pub fn insert_metrics(&self, m: &mut BTreeMap<&'static str, f64>) {
        let per_read = |x: u64| util::ratio(x as f64, self.reads as f64);
        let lookups = self.cache.hits + self.cache.misses;
        let s = &self.exec;
        for (name, value) in [
            (
                "optimizer.cache_hit_ratio",
                util::ratio(self.cache.hits as f64, lookups as f64),
            ),
            ("optimizer.cache_stale", per_read(self.cache.stale)),
            ("optimizer.pairs_examined", per_read(self.pairs_examined)),
            ("optimizer.reduce_applied", per_read(self.reduce_applied)),
            ("exec.tuples_retrieved", per_read(s.tuples_retrieved)),
            ("exec.comparisons", per_read(s.comparisons)),
            ("exec.hash_build_rows", per_read(s.hash_build_rows)),
            ("exec.rows_materialized", per_read(s.rows_materialized)),
            ("exec.rows_pipelined", per_read(s.rows_pipelined)),
            ("exec.rows_reduced", per_read(s.rows_reduced)),
            ("exec.rows_output", per_read(s.rows_output)),
            ("exec.morsels_skipped", per_read(s.morsels_skipped)),
        ] {
            m.insert(name, value);
        }
    }
}

/// Insert `metric = median self time of the spans named span` for
/// each pair.
pub fn insert_self_times(
    m: &mut BTreeMap<&'static str, f64>,
    spans: &[trace::Span],
    pairs: &[(&'static str, &str)],
) {
    let selfs = trace::self_times(spans);
    for &(metric, span) in pairs {
        m.insert(metric, trace::median_self_ms(spans, &selfs, span));
    }
}

/// What [`repeat_setup`] kept and measured.
pub struct Setups<S> {
    /// The last set-up.
    pub kept: S,
    /// Median set-up time at the reference host speed, in seconds.
    pub setup_s: f64,
    /// Median wall-clock set-up time, in seconds.
    pub wall_setup_s: f64,
    /// RSS growth of the first set-up, in bytes.
    pub load_growth: f64,
}

/// Set a workload up `run.setups` times, each after dropping the last,
/// and keep the last. Each set-up's time is scaled to the reference host
/// speed by the median of five kernel passes just before it and five
/// just after.
pub fn repeat_setup<S>(
    run: &Run,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<Setups<S>, String> {
    let (mut scaled, mut wall) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut load_growth = 0.0;
    for k in 0..run.setups.max(1) {
        drop(kept.take());
        let mut kernels: Vec<f64> = (0..5).map(|_| util::kernel_ms()).collect();
        let rss0 = util::proc_status_kib("VmRSS");
        let t = Instant::now();
        kept = Some(setup()?);
        let secs = t.elapsed().as_secs_f64();
        if k == 0 {
            load_growth = util::proc_status_kib("VmRSS").saturating_sub(rss0) as f64 * 1024.0;
        }
        kernels.extend((0..5).map(|_| util::kernel_ms()));
        wall.push(secs);
        scaled.push(secs * util::REFERENCE_KERNEL_MS / util::median(&kernels));
    }
    Ok(Setups {
        kept: kept.expect("set up at least once"),
        setup_s: util::median(&scaled),
        wall_setup_s: util::median(&wall),
        load_growth,
    })
}

/// Insert the end-to-end read metrics at the reference host speed, and
/// report the wall-clock figures beside them. Per operation, `latencies`
/// is the read's time, `busy` the time spent inside calls and `kernels`
/// the kernel time measured after it, all in ms.
pub fn insert_read_metrics(
    out: &mut Outcome,
    latencies: &[f64],
    busy: &[f64],
    kernels: &[f64],
    wall_setup_s: f64,
) {
    let factors = util::speed_factors(kernels);
    let scale = |v: &[f64]| -> Vec<f64> { v.iter().zip(&factors).map(|(x, f)| x * f).collect() };
    let rate = |busy: &[f64]| util::ratio(busy.len() as f64 * 1e3, busy.iter().sum());
    let scaled = scale(latencies);
    out.metrics
        .insert("query_p50_ms", util::quantile(&scaled, 0.5));
    out.metrics
        .insert("query_p90_ms", util::quantile(&scaled, 0.9));
    out.metrics.insert("queries_per_s", rate(&scale(busy)));
    out.report.push(format!(
        "wall clock: query_p50_ms={:.4} query_p90_ms={:.4} queries_per_s={:.4} setup_s={:.4}; \
         kernel median {:.4} ms (reference {} ms)",
        util::quantile(latencies, 0.5),
        util::quantile(latencies, 0.9),
        rate(busy),
        wall_setup_s,
        util::median(kernels),
        util::REFERENCE_KERNEL_MS,
    ));
    out.samples = latencies.len();
}

/// Execute `plan` with the materializing, row-at-a-time engine: a
/// second opinion on results that bypasses `Session` and `Prepared`.
pub fn second_engine(plan: &PhysPlan, storage: &Storage) -> Result<Relation, String> {
    let cfg = ExecConfig {
        mode: fro::exec::ExecMode::Materializing,
        columnar: false,
        ..ExecConfig::default()
    };
    execute_with(plan, storage, &mut ExecStats::new(), &cfg).map_err(|e| e.to_string())
}

/// Count one check that `got` and `want` are the same set of rows.
pub fn expect_set_eq(
    got: Result<Relation, String>,
    want: Result<Relation, String>,
    what: &str,
    tally: &mut Tally,
) {
    match (got, want) {
        (Ok(g), Ok(w)) if g.set_eq(&w) => tally.ok(),
        (Ok(g), Ok(w)) => tally.fail(format!("{what}: {} rows, expected {}", g.len(), w.len())),
        (Err(e), _) | (_, Err(e)) => tally.fail(format!("{what}: {e}")),
    }
}

/// Run one workload. Fills in `peak_rss_mb`, and 0 for every per-layer
/// metric of a layer the workload bypasses.
pub fn run_workload(workload: &str, run: &Run) -> Outcome {
    let mut out = match workload {
        "text_local" => text::run(run, false),
        "text_remote" => text::run(run, true),
        "star_htap" => star::run(run),
        other => unreachable!("workload {other} was validated"),
    };
    if run.trace {
        if let Err(e) = trace::check(&out.spans) {
            out.tally.fail(format!("trace: {e}"));
        }
        for m in metrics::PER_LAYER {
            out.metrics.entry(m.name).or_insert(0.0);
        }
    } else {
        out.metrics.insert(
            "peak_rss_mb",
            util::proc_status_kib("VmHWM") as f64 / 1024.0,
        );
    }
    out
}

/// The metric names this mode must report.
pub fn expected_metrics(trace: bool) -> Vec<&'static str> {
    if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its unit.
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let mut metrics = String::new();
    for (i, name) in expected_metrics(trace).into_iter().enumerate() {
        // A run that failed before it measured reports -1.
        let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() { value } else { -1.0 };
        let unit = metrics::unit_of(name).expect("listed metric");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.tally.failed == 0 && out.tally.attempted > 0,
        out.tally.attempted,
        out.tally.failed,
    )
}

/// Facts about the host and the configuration, for reading the figures.
/// Every workload runs one client on one load thread; `text_remote`
/// adds the server's connection thread.
fn host_json(workload: &str, run: &Run) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let session = Session::new();
    let server_threads = usize::from(workload == "text_remote");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {cores}, \"profile\": \"{profile}\", \"git_sha\": \"{}\", \
         \"exec_config\": \"{:?}\", \"reduce_policy\": \"{:?}\", \"policy\": \"{:?}\", \
         \"scale\": \"{:?}\", \"clients\": 1, \"load_threads\": 1, \
         \"server_threads\": {server_threads}, \"reference_kernel_ms\": {}}}",
        run.seed,
        run.seconds,
        run.trace,
        util::git_sha(),
        session.exec_config(),
        session.reduce_policy(),
        session.policy(),
        run.scale,
        util::REFERENCE_KERNEL_MS,
    )
}

fn parse_args() -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        setups: SETUPS,
        scale: Scale::full(),
        inject: Inject::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if run.trace {
        run.setups = 1;
    }
    Ok((workload, run))
}

/// Write a traced run's spans under `perfbench/out/`.
fn write_spans(workload: &str, run: &Run, spans: &[trace::Span]) -> String {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-{}.jsonl", run.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)))
    {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn main() {
    let (workload, run) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("fro-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = run_workload(&workload, &run);
    println!("host {}", host_json(&workload, &run));
    println!(
        "error_rate={} ({} failed of {} attempted); {} timed operations",
        util::ratio(out.tally.failed as f64, out.tally.attempted as f64),
        out.tally.failed,
        out.tally.attempted,
        out.samples
    );
    for note in &out.tally.notes {
        println!("failure: {note}");
    }
    for line in &out.report {
        println!("{line}");
    }
    if run.trace {
        let selfs = trace::self_times(&out.spans);
        let totals = trace::layer_totals(&out.spans, &selfs);
        let all: f64 = totals.values().sum();
        for (layer, t) in &totals {
            println!(
                "self time {layer}: {t:.3} ms ({:.1}%)",
                100.0 * util::ratio(*t, all)
            );
        }
        println!("spans: {}", write_spans(&workload, &run, &out.spans));
        for m in metrics::PER_LAYER {
            let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            println!("{} = {v} {} (moves {})", m.name, m.unit, m.moves);
        }
    } else {
        for m in metrics::END_TO_END {
            let v = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
            println!("{} = {v} {}", m.name, m.unit);
        }
    }
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    println!("{}", result_json(&out, run.trace));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod json {
    //! Just enough JSON to read `BENCHMARK.json` and the result line.

    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(m) => m.get(key).unwrap_or(&Json::Null),
                _ => &Json::Null,
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }

        pub fn arr(&self) -> &[Json] {
            match self {
                Json::Arr(a) => a,
                other => panic!("not an array: {other:?}"),
            }
        }

        pub fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(m) => m.keys().map(String::as_str).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
    }

    pub fn parse(src: &str) -> Json {
        let mut p = Parser {
            s: src.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input");
        v
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "at byte {}", self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut m = BTreeMap::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(m);
                    }
                    loop {
                        self.ws();
                        let Json::Str(k) = self.value() else {
                            panic!("key")
                        };
                        self.eat(b':');
                        assert!(m.insert(k, self.value()).is_none(), "duplicate key");
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(m);
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut a = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(a);
                    }
                    loop {
                        a.push(self.value());
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b']' {
                            return Json::Arr(a);
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word: &[u8] = match self.s[self.i] {
                        b't' => b"true",
                        b'f' => b"false",
                        _ => b"null",
                    };
                    assert!(self.s[self.i..].starts_with(word));
                    self.i += word.len();
                    match word {
                        b"true" => Json::Bool(true),
                        b"false" => Json::Bool(false),
                        _ => Json::Null,
                    }
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text}")))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The benchmark's self-test at tiny scale.

    use super::json::{self, Json};
    use super::*;

    fn tiny() -> Scale {
        Scale {
            depts: 20,
            emps_per_dept: 5,
            star: StarParams {
                dims: 3,
                match_keys: 20,
                good_rows: 40,
                hot_keys: 4,
                hot_dup: 3,
                junk_rows: 50,
                wide_keys: 0,
                snowflake: true,
            },
            window: 4,
        }
    }

    fn tiny_run(workload: &str, trace: bool, inject: Inject) -> Outcome {
        let run = Run {
            seed: 7,
            seconds: 0.4,
            trace,
            setups: 2,
            scale: tiny(),
            inject,
        };
        run_workload(workload, &run)
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    #[test]
    fn benchmark_json_matches_the_workloads_and_metric_tables() {
        let b = benchmark_json();
        let names = |key: &str| -> Vec<(String, String)> {
            b.get(key)
                .arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").str().to_string(),
                        m.get("unit").str().to_string(),
                    )
                })
                .collect()
        };
        let workloads: Vec<&str> = b
            .get("workloads")
            .arr()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String)> = metrics::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = metrics::PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    /// Every metric `BENCHMARK.json` names is emitted, with its unit,
    /// and the result line has exactly the four keys.
    #[test]
    fn every_listed_metric_is_emitted_with_its_unit() {
        let b = benchmark_json();
        for workload in WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let out = tiny_run(workload, trace, Inject::default());
                assert_eq!(out.tally.failed, 0, "{workload}: {:?}", out.tally.notes);
                let line = json::parse(&result_json(&out, trace));
                assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
                assert_eq!(line.get("correct"), &Json::Bool(true));
                let metrics = line.get("metrics");
                let listed = b.get(key).arr();
                assert_eq!(metrics.keys().len(), listed.len(), "{workload} {key}");
                for m in listed {
                    let got = metrics.get(m.get("name").str());
                    assert_eq!(got.get("unit"), m.get("unit"), "{workload} {key}");
                    assert!(matches!(got.get("value"), Json::Num(v) if v.is_finite()));
                }
            }
        }
    }

    /// Per-layer self times stay within the traced end-to-end time.
    #[test]
    fn traced_self_times_do_not_exceed_end_to_end() {
        for workload in WORKLOADS {
            let out = tiny_run(workload, true, Inject::default());
            assert!(!out.spans.is_empty(), "{workload}: nothing traced");
            trace::check(&out.spans).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let roots: Vec<f64> = out
                .spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(trace::Span::dur_ms)
                .collect();
            let longest = roots.iter().copied().fold(0.0, f64::max);
            let selfs = trace::self_times(&out.spans);
            let layers: f64 = trace::layer_totals(&out.spans, &selfs).values().sum();
            assert!(
                layers <= roots.iter().sum::<f64>() * (1.0 + 1e-9) + 1e-6,
                "{workload}"
            );
            for m in metrics::PER_LAYER
                .iter()
                .filter(|m| m.unit == "ms" && m.name != "trace.overhead_ms")
            {
                assert!(
                    out.metrics[m.name] <= longest,
                    "{workload}: {} exceeds every request",
                    m.name
                );
            }
        }
    }

    /// A failing query outside the timed mix counts in the error rate
    /// and fails the run.
    #[test]
    fn an_injected_failure_is_counted() {
        let inject = Inject {
            fail: true,
            wrong: false,
        };
        for workload in WORKLOADS {
            let out = tiny_run(workload, false, inject);
            assert_eq!(out.tally.failed, 1, "{workload}: {:?}", out.tally.notes);
            let line = json::parse(&result_json(&out, false));
            assert_eq!(line.get("correct"), &Json::Bool(false));
            assert_eq!(line.get("failed"), &Json::Num(1.0));
        }
    }

    /// A wrong result fails the output check.
    #[test]
    fn a_wrong_result_fails_the_check() {
        let inject = Inject {
            fail: false,
            wrong: true,
        };
        for workload in WORKLOADS {
            let out = tiny_run(workload, false, inject);
            assert!(out.tally.failed >= 1, "{workload}: wrong result passed");
            assert!(json::parse(&result_json(&out, false)).get("correct") == &Json::Bool(false));
        }
    }
}
