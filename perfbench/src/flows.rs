//! The two flow workloads: every registered circuit through
//! `SynthesisFlow`, one design at a time, in repeated sweeps.
//!
//! * `flow_suite` — the paper's configuration (`SynthesisFlow::new()`:
//!   standard script, default pool) on the generated circuits. The AIG
//!   optimize passes do almost all of the work.
//! * `flow_signoff` — the same circuits, pre-optimized during set-up, then
//!   script `c` with full timing balance, SAT verification and Stage lint.
//!   The back-end layers do the work; optimize does almost none.
//!
//! The seed orders every sweep and draws the oracle's input vectors.

use std::hint::black_box;
use std::time::Instant;

use xsfq_aig::opt::{self, Effort};
use xsfq_aig::sim::SeqSim;
use xsfq_aig::Aig;
use xsfq_core::{CheckLevel, FlowResult, OutputPolarity, SynthesisFlow, TimingOptions};
use xsfq_pulse::Harness;

use crate::host::Host;
use crate::replay::{self, Qor};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, SETUP_REPS};

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Signoff,
}

struct Circuit {
    name: &'static str,
    /// The generated circuit: the oracle's reference.
    source: Aig,
    /// What the timed flow receives.
    input: Aig,
    /// Clocked-RSFQ JJs with the clock tree (the Tables 4/6 baseline).
    baseline_jj: u64,
}

fn setup(kind: Kind) -> Vec<Circuit> {
    xsfq_benchmarks::all()
        .into_iter()
        .map(|b| {
            let source = (b.build)();
            // `pbmap` = standard-effort optimize + clocked mapping, so the
            // pre-optimized AIG also yields the baseline.
            let optimized = opt::optimize(&source, Effort::Standard);
            let baseline_jj = xsfq_baselines::map_rsfq(&optimized).jj_with_clock_tree();
            let input = match kind {
                Kind::Suite => source.clone(),
                Kind::Signoff => optimized,
            };
            Circuit {
                name: b.name,
                source,
                input,
                baseline_jj,
            }
        })
        .collect()
}

fn flow(kind: Kind) -> SynthesisFlow {
    match kind {
        Kind::Suite => SynthesisFlow::new(),
        Kind::Signoff => SynthesisFlow::new()
            .script_str("c")
            .expect("`c` is a registered pass")
            .timing(TimingOptions::default())
            .verify(true)
            .check(CheckLevel::Stage),
    }
}

pub fn run(kind: Kind, args: &Args, out: &mut Outcome, tr: &mut Tracer) {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut circuits = Vec::new();
    let mut host = Host::new();
    for _ in 0..reps {
        let t = Instant::now();
        circuits = black_box(setup(kind));
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s * host.factor());
    }
    host.record(out);
    let flow = flow(kind);
    let mut rng = Rng::new(args.seed);

    // Warm-up sweep (untimed): fills lazily built state such as the global
    // pool, and gives the reference results every later sweep must equal.
    let warm: Vec<Option<FlowResult>> = circuits
        .iter()
        .map(|c| {
            let r = flow.run(&c.input);
            let err = r.as_ref().err().map(|e| e.to_string());
            out.check("flow", r.is_ok(), || {
                format!("{}: {}", c.name, err.unwrap_or_default())
            });
            r.ok()
        })
        .collect();
    let reference: Vec<Option<Qor>> = warm
        .iter()
        .map(|r| r.as_ref().map(|r| Qor::of(&r.report)))
        .collect();

    if args.trace {
        traced(kind, args, out, tr, &flow, &circuits, &reference, &mut rng);
    } else {
        timed(args, out, &flow, &circuits, &reference, &mut rng);
        out.set("setup_s", stats::median(&setup_s), setup_s.len());
    }

    let jtl_need = oracle(kind, out, &circuits, &warm, &mut rng);
    if args.trace {
        return;
    }
    let refs: Vec<Qor> = reference.iter().flatten().copied().collect();
    let n = refs.len();
    let sum = |f: fn(&Qor) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    out.set("qor_jj_total", sum(|q| q.jj), n);
    out.set("qor_and_total", sum(|q| q.ands), n);
    out.set("qor_depth_total", sum(|q| q.depth), n);
    let jtl = match kind {
        Kind::Suite => jtl_need.iter().sum::<u64>() as f64,
        Kind::Signoff => sum(|q| q.jtl),
    };
    out.set("qor_jtl_total", jtl, n);
    let reductions: Vec<f64> = circuits
        .iter()
        .zip(&reference)
        .filter_map(|(c, q)| q.map(|q| 100.0 * (1.0 - q.jj as f64 / c.baseline_jj as f64)))
        .collect();
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    out.set("qor_jj_reduction_pct", mean, reductions.len());
    if kind == Kind::Suite {
        table_cross_check(out, &circuits, &reference);
    }
}

fn sweep_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Timed sweeps until the window closes; each result's QoR is checked
/// after its time is taken. Times are scaled to the reference host per
/// sweep (see `host`).
fn timed(
    args: &Args,
    out: &mut Outcome,
    flow: &SynthesisFlow,
    circuits: &[Circuit],
    reference: &[Option<Qor>],
    rng: &mut Rng,
) {
    let n = circuits.len();
    let mut sweeps = Vec::new();
    let mut per_circuit: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut all_ms = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut host = Host::new();
    let start = Instant::now();
    while sweeps.is_empty() || start.elapsed() < args.window() {
        let mut sweep_ms = Vec::with_capacity(n);
        stats::reset_peak_rss();
        let t0 = Instant::now();
        for i in sweep_order(rng, n) {
            let c = &circuits[i];
            let t = Instant::now();
            let r = flow.run(black_box(&c.input));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match r {
                Ok(r) => {
                    let q = Qor::of(&r.report);
                    out.check("flow", Some(q) == reference[i], || {
                        format!(
                            "{}: QoR {q:?} differs from warm-up {:?}",
                            c.name, reference[i]
                        )
                    });
                    sweep_ms.push((i, ms));
                }
                Err(e) => out.check("flow", false, || format!("{}: {e}", c.name)),
            }
        }
        let sweep_s = t0.elapsed().as_secs_f64();
        peaks_mb.push(stats::peak_rss_mb());
        let f = host.factor();
        sweeps.push(sweep_s * f);
        for (i, ms) in sweep_ms {
            per_circuit[i].push(ms * f);
            all_ms.push(ms * f);
        }
    }
    host.record(out);
    let suite_s = stats::median(&sweeps);
    out.set("suite_s", suite_s, sweeps.len());
    out.set("designs_per_s", n as f64 / suite_s, sweeps.len());
    let geomean = stats::geomean_of_medians(&per_circuit);
    out.set("design_geomean_ms", geomean, all_ms.len());
    // The flow has no cache: a design it has synthesized before costs a
    // full synthesis again, so the hit and miss classes are every job.
    out.set("hit_geomean_ms", geomean, all_ms.len());
    out.set("miss_p90_ms", stats::quantile(&all_ms, 0.90), all_ms.len());
    out.set("peak_rss_mb", stats::median(&peaks_mb), peaks_mb.len());
}

/// Sweeps of the flow, alternately traced and untraced, until the window
/// closes (at least two of each).
#[allow(clippy::too_many_arguments)]
fn traced(
    kind: Kind,
    args: &Args,
    out: &mut Outcome,
    tr: &mut Tracer,
    flow: &SynthesisFlow,
    circuits: &[Circuit],
    reference: &[Option<Qor>],
    rng: &mut Rng,
) {
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut group = 0u32;
    while traced_s.len() < 2 || untraced_s.len() < 2 || start.elapsed() < args.window() {
        tr.enabled = group.is_multiple_of(2);
        let t0 = Instant::now();
        // Time spent timing the flow's untimed work, which is not
        // tracing overhead.
        let mut retime_s = 0.0;
        for i in sweep_order(rng, circuits.len()) {
            let c = &circuits[i];
            tr.set_job(i as u64, group);
            let (root, r) = replay::call(tr, || flow.run(black_box(&c.input)));
            match r {
                Ok(r) => {
                    retime_s += replay::record(tr, &root, flow, &c.input, &r);
                    let q = Qor::of(&r.report);
                    out.check("traced", Some(q) == reference[i], || {
                        format!(
                            "{}: traced QoR {q:?} differs from untraced {:?}",
                            c.name, reference[i]
                        )
                    });
                }
                Err(e) => out.check("traced", false, || format!("{}: {e}", c.name)),
            }
        }
        let s = t0.elapsed().as_secs_f64() - retime_s;
        if tr.enabled {
            traced_s.push(s);
        } else {
            untraced_s.push(s);
        }
        group += 1;
    }
    tr.enabled = false;
    out.trace_overhead(&traced_s, &untraced_s);
    if kind == Kind::Suite {
        if let Some(voter) = circuits.iter().find(|c| c.name == "voter") {
            let t1 = replay::optimize_s(flow, &voter.input, Some(1), 3);
            let tn = replay::optimize_s(flow, &voter.input, None, 3);
            out.set("exec.voter_t1_speedup", t1 / tn, 3);
        }
    }
}

/// The independent output oracle, outside the timed window: the pulse
/// simulator runs each warm-up netlist through the alternating protocol
/// on seeded random vectors, from reset, and must match the cycle model
/// of the generated source AIG. Sign-off also needs worst slack >= 0.
/// Returns, per circuit, the JTLs full balancing would insert.
fn oracle(
    kind: Kind,
    out: &mut Outcome,
    circuits: &[Circuit],
    warm: &[Option<FlowResult>],
    rng: &mut Rng,
) -> Vec<u64> {
    let mut jtl_need = Vec::new();
    for (c, r) in circuits.iter().zip(warm) {
        let Some(r) = r else { continue };
        let cycles = if c.source.num_latches() > 0 { 8 } else { 4 };
        let vectors: Vec<Vec<bool>> = (0..cycles)
            .map(|_| (0..c.source.num_inputs()).map(|_| rng.bit()).collect())
            .collect();
        let negs: Vec<bool> = r
            .mapped
            .assignment
            .outputs
            .iter()
            .map(|p| *p == OutputPolarity::Negative)
            .collect();
        let pulses = Harness::new(r.netlist(), negs).run(&vectors);
        let mut golden = SeqSim::new(&c.source);
        let expect: Vec<Vec<bool>> = vectors.iter().map(|v| golden.step(v)).collect();
        out.check(
            "oracle",
            pulses.outputs == expect && pulses.violations == 0,
            || {
                format!(
                    "{}: pulse-level outputs differ from the cycle model ({} protocol violations)",
                    c.name, pulses.violations
                )
            },
        );
        match kind {
            Kind::Signoff => {
                let slack = r.report.timing.as_ref().map(|t| t.worst_slack_ps);
                out.check("slack", slack.is_some_and(|s| s >= 0.0), || {
                    format!("{}: worst slack {slack:?} ps", c.name)
                });
            }
            Kind::Suite => {
                let balanced =
                    xsfq_timing::balance_netlist(r.netlist(), &TimingOptions::default(), None);
                jtl_need.push(balanced.summary.buffers_inserted as u64);
            }
        }
    }
    jtl_need
}

/// The paper's own table harness must agree with the workload: summed
/// xSFQ JJs of Tables 4 and 6, plus the other registered circuits run the
/// same way, equal `qor_jj_total`, and the baselines equal set-up's.
fn table_cross_check(out: &mut Outcome, circuits: &[Circuit], reference: &[Option<Qor>]) {
    let mut rows = xsfq_bench::table4();
    rows.extend(xsfq_bench::table6());
    for c in circuits {
        if !rows.iter().any(|r| r.name == c.name) {
            rows.push(xsfq_bench::evaluate(c.name, xsfq_bench::EVAL_EFFORT));
        }
    }
    for (c, q) in circuits.iter().zip(reference) {
        let row = rows.iter().find(|r| r.name == c.name);
        let ok = row.is_some_and(|r| {
            Some(r.xsfq_jj) == q.map(|q| q.jj) && r.baseline_jj_clock == c.baseline_jj
        });
        out.check("table", ok, || {
            format!(
                "{}: tables give {:?}, workload gives {:?} / baseline {}",
                c.name,
                row.map(|r| (r.xsfq_jj, r.baseline_jj_clock)),
                q.map(|q| q.jj),
                c.baseline_jj
            )
        });
    }
    let tables: u64 = rows.iter().map(|r| r.xsfq_jj).sum();
    let workload: u64 = reference.iter().flatten().map(|q| q.jj).sum();
    out.check("table", tables == workload, || {
        format!("table JJ sum {tables} != qor_jj_total {workload}")
    });
}
