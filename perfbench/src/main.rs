//! End-to-end and per-layer benchmark of the xsfq synthesis flow and the
//! synthesis daemon. It drives the system only through public APIs.
//!
//! ```text
//! xsfq-perfbench --workload <flow_suite|flow_signoff|serve_mixed> --seed <n>
//!                --seconds <s> --trace <0|1> --out <output dir>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! the run's sample counts, per-class operation counts, the median time
//! of the host calibration kernel and the first failures. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced, with
//! every time scaled to a reference host (see `host`); with `--trace 1`
//! they are the per-layer set, derived from the spans of a traced replay,
//! which are also written to `<out>/trace-<workload>-<seed>.json` in
//! Chrome trace-event format.
//! Metrics a workload does not exercise read 0 in the per-layer set.

mod flows;
mod host;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use trace::Tracer;

/// End-to-end metrics and units, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("suite_s", "s"),
    ("design_geomean_ms", "ms"),
    ("designs_per_s", "1/s"),
    ("hit_geomean_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("qor_jj_total", "count"),
    ("qor_and_total", "count"),
    ("qor_depth_total", "count"),
    ("qor_jj_reduction_pct", "%"),
    ("qor_jtl_total", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Set-up runs this many times in an untraced run; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 7;

/// The optimize passes of the workloads' scripts.
pub const PASSES: &[&str] = &["c", "b", "rw", "rf", "rwz"];

/// Per-layer metrics and units. `<span>_ms` is the time of that span per
/// sweep (flow workloads) or per round (daemon workload); `<span>_us` is
/// the time per job; both are medians.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("aig.optimize_ms", "ms"),
    ("aig.pass.c_ms", "ms"),
    ("aig.pass.b_ms", "ms"),
    ("aig.pass.rw_ms", "ms"),
    ("aig.pass.rf_ms", "ms"),
    ("aig.pass.rwz_ms", "ms"),
    ("aig.pass.c_commits", "count"),
    ("aig.pass.b_commits", "count"),
    ("aig.pass.rw_commits", "count"),
    ("aig.pass.rf_commits", "count"),
    ("aig.pass.rwz_commits", "count"),
    ("aig.pass_useful_ratio", "ratio"),
    ("aig.read_ms", "ms"),
    ("aig.digest_ms", "ms"),
    ("core.pipeline_ms", "ms"),
    ("core.polarity_ms", "ms"),
    ("core.map_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.report_json_ms", "ms"),
    ("timing.balance_ms", "ms"),
    ("timing.jtl_inserted", "count"),
    ("lint.aig_ms", "ms"),
    ("lint.netlist_ms", "ms"),
    ("lint.timing_ms", "ms"),
    ("netlist.stats_ms", "ms"),
    ("netlist.write_verilog_ms", "ms"),
    ("serve.protocol_us", "us"),
    ("serve.journal_submit_ms", "ms"),
    ("serve.journal_done_ms", "ms"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_put_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.failed", "count"),
    ("serve.residual_hit_ms", "ms"),
    ("serve.residual_miss_ms", "ms"),
    ("exec.voter_t1_speedup", "ratio"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, usize>,
    /// Per operation class: (attempted, failed).
    pub classes: BTreeMap<String, (u64, u64)>,
    pub failures: Vec<String>,
    /// Calibration kernel times (see `host`).
    pub kernel_s: Vec<f64>,
}

impl Outcome {
    /// Count one operation of `class`; a failed one is kept with its
    /// reason, never skipped.
    pub fn check(&mut self, class: &str, ok: bool, why: impl FnOnce() -> String) {
        let entry = self.classes.entry(class.to_string()).or_insert((0, 0));
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{class}: {}", why()));
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_string(), value);
        self.samples.insert(name.to_string(), samples);
    }

    /// The per-layer metrics that are plain functions of the spans.
    pub fn derive_layers(&mut self, tr: &Tracer) {
        for &(name, _) in PER_LAYER {
            if let Some(span) = name.strip_suffix("_ms") {
                let (ms, _) = tr.per_group(span);
                if tr.spans.iter().any(|s| s.name == span) {
                    self.set(name, stats::median(&ms), ms.len());
                }
            } else if let Some(span) = name.strip_suffix("_us") {
                let us = tr.per_job_us(span);
                if !us.is_empty() {
                    self.set(name, stats::median(&us), us.len());
                }
            }
        }
        for pass in PASSES {
            let (_, commits) = tr.per_group(&format!("aig.pass.{pass}"));
            self.set(
                &format!("aig.pass.{pass}_commits"),
                stats::median(&commits),
                commits.len(),
            );
        }
        let runs = tr.counters.get("aig.pass.runs").copied().unwrap_or(0);
        let useful = tr.counters.get("aig.pass.useful").copied().unwrap_or(0);
        self.set(
            "aig.pass_useful_ratio",
            useful as f64 / runs.max(1) as f64,
            runs as usize,
        );
        let (_, jtl) = tr.per_group("timing.balance");
        self.set("timing.jtl_inserted", stats::median(&jtl), jtl.len());
        let spans = tr.spans.len();
        self.set("bench.unattributed_pct", tr.unattributed_pct(), spans);
    }

    /// `(traced - untraced) / untraced` in percent over two sets of
    /// replay wall times of the same work.
    pub fn trace_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let (t, u) = (stats::median(traced), stats::median(untraced));
        self.set(
            "bench.trace_overhead_pct",
            100.0 * (t - u) / u,
            traced.len().min(untraced.len()),
        );
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsfq-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("xsfq-perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    match args.workload.as_str() {
        "flow_suite" => flows::run(flows::Kind::Suite, &args, &mut out, &mut tr),
        "flow_signoff" => flows::run(flows::Kind::Signoff, &args, &mut out, &mut tr),
        "serve_mixed" => serve::run(&args, &mut out, &mut tr),
        other => {
            eprintln!("xsfq-perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    }

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        out.derive_layers(&tr);
        // A layer the workload never calls did no work on it.
        for &(name, _) in PER_LAYER {
            out.metrics.entry(name.to_string()).or_insert(0.0);
        }
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tr.chrome_json()) {
            out.check("trace_export", false, || format!("{}: {e}", path.display()));
        }
    }

    let mut metrics = String::new();
    let mut complete = true;
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let value = out.metrics.get(name).copied().filter(|v| v.is_finite());
        if value.is_none() {
            complete = false;
            out.failures.push(format!("metric {name} missing"));
        }
        let sep = if i == 0 { "" } else { "," };
        write!(
            metrics,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            value.unwrap_or(0.0),
            json_str(unit)
        )
        .expect("write to String");
    }
    let (attempted, failed) = out
        .classes
        .values()
        .fold((0, 0), |(a, f), &(ca, cf)| (a + ca, f + cf));
    for f in &out.failures {
        eprintln!("xsfq-perfbench: FAILED {f}");
    }

    let samples: Vec<String> = out
        .samples
        .iter()
        .filter(|(k, _)| wanted.iter().any(|(n, _)| n == k))
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let classes: Vec<String> = out
        .classes
        .iter()
        .map(|(k, (a, f))| {
            format!(
                "{}:{{\"attempted\":{a},\"succeeded\":{},\"failed\":{f}}}",
                json_str(k),
                a - f
            )
        })
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel_ms = if out.kernel_s.is_empty() {
        0.0
    } else {
        stats::median(&out.kernel_s) * 1e3
    };
    println!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"kernel_ms\":{kernel_ms},\"kernel_runs\":{},\
         \"samples\":{{{}}},\"classes\":{{{}}},\"failures\":[{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        out.kernel_s.len(),
        samples.join(","),
        classes.join(","),
        failures.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        complete && failed == 0,
        attempted.max(1),
    );
}
