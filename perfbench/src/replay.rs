//! The traced run's view of one synthesis: the real flow call under the
//! span `flow`, with its stages and passes taken from the flow's own
//! telemetry (`FlowReport::stages`, `FlowReport::passes`).
//!
//! The flow reports durations, not start times, so the children are laid
//! out back to back, in execution order, from the call's start. The work
//! the flow does but does not time — Stage lint and the netlist stats —
//! is timed after the call by running the same functions on the same
//! netlists, and laid out after the stage it follows.

use std::hint::black_box;
use std::time::Instant;

use xsfq_aig::Aig;
use xsfq_core::{BalanceMode, CheckLevel, FlowReport, FlowResult, FlowStage, SynthesisFlow};
use xsfq_lint::{lint_aig, lint_netlist, lint_timing, NetlistProfile};

use crate::trace::{Open, Tracer};

/// The QoR a workload reports per design. `jtl` is the JTL padding the
/// flow inserted (0 when the flow runs no timing stage).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Qor {
    pub jj: u64,
    pub ands: u64,
    pub depth: u64,
    pub jtl: u64,
}

impl Qor {
    pub fn of(report: &FlowReport) -> Qor {
        Qor {
            jj: report.jj_total,
            ands: report.aig_nodes as u64,
            depth: report.depth_with_splitters as u64,
            jtl: report
                .timing
                .as_ref()
                .map_or(0, |t| t.buffers_inserted as u64),
        }
    }
}

/// Run one flow call as the span `flow`. Hand the span and the result to
/// [`record`] once the caller's own spans are closed.
pub fn call<E>(
    tr: &mut Tracer,
    run: impl FnOnce() -> Result<FlowResult, E>,
) -> (Open, Result<FlowResult, E>) {
    let root = tr.begin("flow");
    let result = run();
    tr.end(&root);
    (root, result)
}

fn time_ns<T>(f: impl FnOnce() -> T) -> u64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as u64
}

/// Lay out the stages and passes of `result`, the outcome of `flow` on
/// `input`, under the span `root`, and time the flow's untimed work.
/// Returns the seconds that took, which are not part of the flow's cost.
pub fn record(
    tr: &mut Tracer,
    root: &Open,
    flow: &SynthesisFlow,
    input: &Aig,
    result: &FlowResult,
) -> f64 {
    if !tr.enabled {
        return 0.0;
    }
    let t = Instant::now();
    let o = flow.options();
    let report = &result.report;
    let stage_lint = o.check >= CheckLevel::Stage;
    let mut at = 0;
    let mut lay = |tr: &mut Tracer, name: &str, dur_ns: u64, count: u64| {
        let span = tr.child(root, name, at, dur_ns, count);
        at += dur_ns;
        span
    };
    for stage in &report.stages {
        let ns = stage.wall_ns;
        match stage.stage {
            FlowStage::Optimize => {
                let opt = lay(tr, "aig.optimize", ns, 0);
                let mut offset = 0;
                for p in &report.passes {
                    let name = format!("aig.pass.{}", p.name);
                    tr.child(&opt, &name, offset, p.wall_ns, p.commits);
                    offset += p.wall_ns;
                }
                let useful = report
                    .passes
                    .iter()
                    .filter(|p| p.nodes_after < p.nodes_before || p.depth_after < p.depth_before)
                    .count();
                tr.count("aig.pass.useful", useful as u64);
                tr.count("aig.pass.runs", report.passes.len() as u64);
                if stage_lint {
                    let lint = time_ns(|| lint_aig(&result.optimized));
                    lay(tr, "lint.aig", lint, 0);
                }
            }
            FlowStage::Pipeline => {
                lay(tr, "core.pipeline", ns, 0);
            }
            FlowStage::Polarity => {
                lay(tr, "core.polarity", ns, 0);
            }
            FlowStage::Map => {
                lay(tr, "core.map", ns, 0);
                if stage_lint {
                    // The flow lints the physical netlist before timing
                    // pads it; the same flow without timing gives it back.
                    let unbalanced = o.timing.as_ref().map(|_| {
                        let mut plain = o.clone();
                        plain.timing = None;
                        plain.verify = false;
                        plain.check = CheckLevel::Off;
                        SynthesisFlow::with_options(plain)
                            .run(input)
                            .expect("the flow without timing runs where the flow did")
                            .mapped
                            .physical
                    });
                    let physical = unbalanced.as_ref().unwrap_or(&result.mapped.physical);
                    let lint = time_ns(|| {
                        let mut d = lint_netlist(&result.mapped.logical, NetlistProfile::Logical);
                        d.extend(lint_netlist(physical, NetlistProfile::Physical));
                        d
                    });
                    lay(tr, "lint.netlist", lint, 0);
                }
            }
            FlowStage::Timing => {
                let jtl = report.timing.as_ref().map_or(0, |t| t.buffers_inserted);
                lay(tr, "timing.balance", ns, jtl as u64);
                if let Some(topts) = o.timing.as_ref().filter(|t| t.balance == BalanceMode::Full) {
                    if stage_lint {
                        let physical = &result.mapped.physical;
                        let allowed = topts.allowed_skew_for(physical);
                        let lint = time_ns(|| lint_timing(physical, allowed));
                        lay(tr, "lint.timing", lint, 0);
                    }
                }
            }
            FlowStage::Verify => {
                lay(tr, "core.verify", ns, 0);
            }
        }
    }
    // `stats()` caches on the netlist, and the flow filled that cache.
    let stats = time_ns(|| result.mapped.physical.stats_uncached());
    lay(tr, "netlist.stats", stats, 0);
    t.elapsed().as_secs_f64()
}

/// Median optimize-stage wall time (s), as the flow reports it, of `flow`
/// on `aig` over `reps` runs, on a private pool of `threads` threads
/// (`None`: the default pool).
pub fn optimize_s(flow: &SynthesisFlow, aig: &Aig, threads: Option<usize>, reps: usize) -> f64 {
    let mut options = flow.options().clone();
    options.threads = threads;
    let flow = SynthesisFlow::with_options(options);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let r = flow.run(black_box(aig)).expect("the workload's flow runs");
            let optimize = r
                .report
                .stages
                .iter()
                .find(|s| s.stage == FlowStage::Optimize)
                .expect("every flow optimizes");
            optimize.wall_ns as f64 / 1e9
        })
        .collect();
    crate::stats::median(&times)
}
