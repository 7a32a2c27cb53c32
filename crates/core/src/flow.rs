//! The end-to-end synthesis flow (the paper's §3 + §4 methodology) as a
//! staged pipeline over the composable pass manager: run a pass script on
//! the AIG, choose output polarities, map to clock-free dual-rail xSFQ
//! cells, insert pipeline ranks and splitters, and report the numbers the
//! evaluation tables are built from.
//!
//! Every public entry point — [`SynthesisFlow::run`],
//! [`SynthesisFlow::run_observed`], [`SynthesisFlow::run_many`],
//! [`SynthesisFlow::run_many_isolated`] and [`SynthesisFlow::run_job`] — is
//! a thin wrapper over one fault-isolated job runner, so they all share one
//! deadline, chaos, lint and panic-containment path. Stage timing lands in
//! [`FlowReport::stages`]; per-pass telemetry lands in
//! [`FlowReport::passes`] and, live, in an optional [`PassObserver`]. The
//! optimization recipe is a first-class [`Script`] (the legacy [`Effort`]
//! knob is a facade over the `fast`/`standard`/`high` presets), and whole
//! designs batch across the executor with [`SynthesisFlow::run_many`].

use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use xsfq_aig::opt::Effort;
use xsfq_aig::pass::{
    GuardKind, PassArenas, PassCtx, PassGuards, PassObserver, PassRegistry, PassStat, Script,
    ScriptError,
};
use xsfq_aig::Aig;
use xsfq_cells::{CellKind, InterconnectStyle};
use xsfq_exec::{panic_message, CancelCause, CancelToken, ThreadPool};
use xsfq_lint::{CheckLevel, Diag, NetlistProfile};
use xsfq_netlist::writers::json_escape;
use xsfq_netlist::Netlist;

use crate::map::{map_with_assignment_pool, MapOptions, MappedDesign};
use crate::pipeline::choose_rank_levels;
use crate::polarity::{assign_polarities_with_pool, PolarityMode};
use crate::verify::verify_mapping;
use xsfq_timing::{BalanceMode, TimingOptions, TimingSummary};

/// The pass registry the synthesis flow compiles scripts against: the
/// structural AIG passes plus `f`/`fraig` from `xsfq-sat`.
pub fn flow_registry() -> PassRegistry {
    let mut registry = PassRegistry::structural();
    xsfq_sat::pass::register(&mut registry);
    registry
}

/// Flow configuration (builder-style).
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// AIG optimization pass script (see [`xsfq_aig::pass`] for the
    /// grammar). Defaults to the `standard` preset; the legacy
    /// [`SynthesisFlow::effort`] builder swaps in the matching preset.
    pub script: Script,
    /// Output polarity strategy.
    pub polarity: PolarityMode,
    /// Interconnect style / library variant.
    pub style: InterconnectStyle,
    /// Architectural pipeline stages to insert (combinational designs only).
    pub pipeline_stages: usize,
    /// Window (in levels) for the min-width rank placement search.
    pub rank_window: u32,
    /// Append a SAT-sweeping pass ([`xsfq_sat::pass::FraigPass`]) after the
    /// script, merging functionally equivalent nodes the rewriting passes
    /// cannot see. (Compatibility knob — scripts can simply end in `f`.)
    pub fraig: bool,
    /// Prove the mapped netlist equivalent to the source (combinational
    /// designs; sequential designs are validated by the pulse simulator).
    pub verify: bool,
    /// Worker threads for the parallel optimization passes. `None` uses the
    /// process-wide executor pool (sized by `XSFQ_THREADS`, defaulting to
    /// `available_parallelism`); `Some(n)` runs this flow on a private
    /// `n`-thread pool. The optimized AIG is bit-identical either way.
    pub threads: Option<usize>,
    /// Cooperative cancellation token. Cancelling it aborts every job of a
    /// running batch at the next pass or evaluate-batch boundary; `None`
    /// means "never cancelled externally".
    pub cancel: Option<CancelToken>,
    /// Wall-clock deadline per job, measured from that job's start. A job
    /// exceeding it is cancelled (its [`JobError`] reports
    /// [`JobErrorKind::DeadlineExpired`]); other jobs are unaffected.
    pub job_deadline: Option<Duration>,
    /// Per-pass resource budgets for the optimization script (node growth,
    /// wall time, and whether a trip degrades the remainder of the script
    /// to the `fast` preset instead of failing the job). Defaults to no
    /// budgets. See [`PassGuards`].
    pub guards: PassGuards,
    /// Static checking level (see [`CheckLevel`]): `Off` is byte-for-byte
    /// the unchecked flow, `Stage` validates the AIG after the optimize
    /// stage and DRCs both mapped netlists after the map stage, `Paranoid`
    /// additionally validates after every optimization pass and audits the
    /// cut arena. Error-severity findings fail the job with
    /// [`FlowError::LintFailed`].
    pub check: CheckLevel,
    /// Optional post-Map timing stage (see [`xsfq_timing`]): static
    /// arrival/slack analysis of the physical netlist plus slack-matching
    /// JTL insertion per [`TimingOptions::balance`]. `None` (the default)
    /// skips the stage entirely — the flow's outputs are byte-identical
    /// to a build without the timing subsystem.
    pub timing: Option<TimingOptions>,
    /// Deterministic fault-injection plan, applied per batch design index
    /// by [`SynthesisFlow::run_many_isolated`]; the single-design entries
    /// ([`SynthesisFlow::run`], [`SynthesisFlow::run_observed`],
    /// [`SynthesisFlow::run_job`]) run as design 0. Test-only; see
    /// [`xsfq_aig::chaos`].
    #[cfg(feature = "chaos")]
    pub chaos: Option<xsfq_aig::chaos::FaultPlan>,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            script: Script::preset(Effort::Standard),
            polarity: PolarityMode::Heuristic,
            style: InterconnectStyle::Abutted,
            pipeline_stages: 0,
            rank_window: 3,
            fraig: false,
            verify: false,
            threads: None,
            cancel: None,
            job_deadline: None,
            guards: PassGuards::none(),
            check: CheckLevel::Off,
            timing: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// Error raised by [`SynthesisFlow::run`].
#[derive(Debug)]
pub enum FlowError {
    /// The optimization script failed to parse or compile.
    Script(ScriptError),
    /// Pipelining was requested for a sequential design.
    PipelineOnSequential,
    /// Post-mapping verification failed.
    Verification(crate::verify::VerifyMappingError),
    /// The job was cancelled (explicitly, or by a deadline — see the
    /// [`CancelCause`]) before the flow completed.
    Cancelled(CancelCause),
    /// A pass tripped its resource guard and degradation was off
    /// ([`PassGuards::degrade_to_fast`] false): the job stopped at the
    /// trip, rolled back to the pre-pass graph.
    GuardTripped {
        /// The pass whose budget was violated.
        pass: String,
        /// Which budget.
        kind: GuardKind,
    },
    /// A static check ([`FlowOptions::check`]) found error-severity
    /// diagnostics; the job stopped at the stage that produced the
    /// ill-formed structure.
    LintFailed(Vec<Diag>),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Script(e) => write!(f, "{e}"),
            FlowError::PipelineOnSequential => {
                write!(f, "pipeline stages require a combinational design")
            }
            FlowError::Verification(e) => write!(f, "{e}"),
            FlowError::Cancelled(CancelCause::Explicit) => write!(f, "job cancelled"),
            FlowError::Cancelled(CancelCause::Deadline) => write!(f, "job deadline expired"),
            FlowError::GuardTripped { pass, kind } => {
                write!(f, "pass `{pass}` tripped its {kind} guard")
            }
            FlowError::LintFailed(diags) => {
                write!(f, "lint failed with {} finding(s)", diags.len())?;
                for d in diags.iter().take(3) {
                    write!(f, "; {d}")?;
                }
                if diags.len() > 3 {
                    write!(f, "; …")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Script(e) => Some(e),
            FlowError::Verification(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScriptError> for FlowError {
    fn from(e: ScriptError) -> Self {
        FlowError::Script(e)
    }
}

/// Structured failure of one flow job ([`SynthesisFlow::run_job`], or one
/// design of a [`SynthesisFlow::run_many_isolated`] batch): which design,
/// what went wrong, which pass was in flight, how long the job ran, and
/// the per-pass telemetry accumulated before the fault.
#[derive(Debug)]
pub struct JobError {
    /// Index of the design in the batch slice.
    pub design: usize,
    /// Design name.
    pub name: String,
    /// What went wrong.
    pub kind: JobErrorKind,
    /// The pass in flight when the fault hit, if it hit inside the
    /// optimization script (`None` for config errors and faults in the
    /// later flow stages).
    pub pass: Option<String>,
    /// Wall-clock time the job ran before failing.
    pub elapsed: Duration,
    /// Per-pass telemetry of the passes that completed before the fault.
    pub passes: Vec<PassStat>,
}

/// The failure taxonomy of a [`JobError`].
#[derive(Debug)]
pub enum JobErrorKind {
    /// The job panicked; the panic payload's message, with the worker
    /// attribution preserved when the panic crossed a parallel section
    /// ([`xsfq_exec::WorkerPanic`]).
    Panicked {
        /// The panic payload rendered as a string.
        message: String,
    },
    /// The batch's [`CancelToken`] was cancelled explicitly.
    Cancelled,
    /// The job overran [`FlowOptions::job_deadline`].
    DeadlineExpired,
    /// The flow failed with an ordinary error (script, pipelining,
    /// verification, or an undegraded guard trip).
    Flow(FlowError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} (`{}`)", self.design, self.name)?;
        match &self.kind {
            JobErrorKind::Panicked { message } => write!(f, " panicked: {message}")?,
            JobErrorKind::Cancelled => write!(f, " cancelled")?,
            JobErrorKind::DeadlineExpired => write!(f, " exceeded its deadline")?,
            JobErrorKind::Flow(e) => write!(f, " failed: {e}")?,
        }
        if let Some(pass) = &self.pass {
            write!(f, " (in pass `{pass}`)")?;
        }
        write!(
            f,
            " after {:.2} ms, {} passes completed",
            self.elapsed.as_secs_f64() * 1e3,
            self.passes.len()
        )
    }
}

impl Error for JobError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            JobErrorKind::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl JobError {
    /// The all-or-nothing entries' view of a job failure: a panic re-raises
    /// (message, design and in-flight pass preserved), a cancellation or
    /// deadline becomes [`FlowError::Cancelled`], a flow error passes
    /// through.
    fn into_flow_error(self) -> FlowError {
        match self.kind {
            JobErrorKind::Panicked { .. } => panic::panic_any(self.to_string()),
            JobErrorKind::Cancelled => FlowError::Cancelled(CancelCause::Explicit),
            JobErrorKind::DeadlineExpired => FlowError::Cancelled(CancelCause::Deadline),
            JobErrorKind::Flow(e) => e,
        }
    }
}

impl JobErrorKind {
    /// Stable lowercase name of the failure class (wire protocols,
    /// telemetry keys).
    pub fn name(&self) -> &'static str {
        match self {
            JobErrorKind::Panicked { .. } => "panicked",
            JobErrorKind::Cancelled => "cancelled",
            JobErrorKind::DeadlineExpired => "deadline",
            JobErrorKind::Flow(_) => "flow",
        }
    }

    /// Whether a retry could plausibly succeed: panics (a poisoned arena,
    /// a transient resource spike) and guard trips (budgets may pass on a
    /// quieter machine) are transient; cancellations, deadline overruns
    /// and deterministic flow errors are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            JobErrorKind::Panicked { .. } | JobErrorKind::Flow(FlowError::GuardTripped { .. })
        )
    }
}

/// The flow's pipeline segments, in execution order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlowStage {
    /// Pass-script optimization of the AIG.
    Optimize,
    /// Rank-level selection for architectural pipelining.
    Pipeline,
    /// Output polarity assignment (§3.1.4–3.1.5).
    Polarity,
    /// Dual-rail technology mapping + splitter insertion.
    Map,
    /// Static timing analysis + slack-matching buffer insertion
    /// (only present when [`FlowOptions::timing`] is set).
    Timing,
    /// SAT proof that mapping preserved the function.
    Verify,
}

impl FlowStage {
    /// Stable lowercase name (telemetry keys).
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Optimize => "optimize",
            FlowStage::Pipeline => "pipeline",
            FlowStage::Polarity => "polarity",
            FlowStage::Map => "map",
            FlowStage::Timing => "timing",
            FlowStage::Verify => "verify",
        }
    }
}

impl fmt::Display for FlowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock telemetry for one executed flow stage.
#[derive(Copy, Clone, Debug)]
pub struct StageStat {
    /// Which stage ran.
    pub stage: FlowStage,
    /// Wall-clock time in nanoseconds.
    pub wall_ns: u64,
}

/// Per-design report — the row format of the paper's Tables 3–6, plus the
/// stage/pass telemetry of the run that produced it.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Design name.
    pub name: String,
    /// AND nodes after optimization.
    pub aig_nodes: usize,
    /// AIG depth after optimization.
    pub aig_depth: usize,
    /// LA/FA cell count.
    pub la_fa: usize,
    /// Duplication penalty in percent.
    pub duplication_percent: f64,
    /// Splitter count.
    pub splitters: usize,
    /// DROC cells without preloading hardware.
    pub drocs_plain: usize,
    /// DROC cells with preloading hardware.
    pub drocs_preload: usize,
    /// Total JJ count (cells + trigger merger; no clock tree).
    pub jj_total: u64,
    /// JJ cost of the DROC clock tree (zero for combinational designs).
    pub jj_clock_tree: u64,
    /// Logic depth (LA/FA on the critical path).
    pub depth_logic: usize,
    /// Logic depth including splitters.
    pub depth_with_splitters: usize,
    /// Critical path delay in ps (storage-to-storage).
    pub critical_delay_ps: f64,
    /// Circuit clock frequency (GHz).
    pub circuit_ghz: f64,
    /// Architectural clock frequency (GHz) — half the circuit clock, since
    /// a logical cycle spans the excite and relax phases (§4.2.2).
    pub arch_ghz: f64,
    /// Per-pass telemetry of the optimization script, in execution order.
    pub passes: Vec<PassStat>,
    /// Wall-clock telemetry per flow stage, in execution order.
    pub stages: Vec<StageStat>,
    /// Whether a guard trip degraded the optimization script to the `fast`
    /// preset ([`PassGuards::degrade_to_fast`]); the tripping pass carries
    /// [`PassStat::tripped`] in [`FlowReport::passes`].
    pub degraded: bool,
    /// Result of the optional Timing stage: engine-measured critical path,
    /// worst slack/skew, and the buffer/JJ cost of balancing. `None` when
    /// [`FlowOptions::timing`] was unset (and then absent from the JSON,
    /// keeping untimed reports byte-identical to earlier releases).
    pub timing: Option<TimingSummary>,
}

/// A JSON number token: finite floats print as-is, non-finite as `null`
/// (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl FlowReport {
    /// Serialize the report as a single JSON object — the wire format of
    /// the serving daemon's result payload. Hand-rolled (std-only
    /// workspace); keys are stable, schema tagged `xsfq-flow-report/1`.
    pub fn to_json(&self) -> String {
        let mut passes = String::from("[");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                passes.push(',');
            }
            passes.push_str(&format!(
                "{{\"name\":\"{}\",\"wall_ns\":{},\"nodes_before\":{},\"nodes_after\":{},\
                 \"depth_before\":{},\"depth_after\":{},\"commits\":{},\"tripped\":{}}}",
                json_escape(&p.name),
                p.wall_ns,
                p.nodes_before,
                p.nodes_after,
                p.depth_before,
                p.depth_after,
                p.commits,
                match p.tripped {
                    Some(kind) => format!("\"{}\"", kind.name()),
                    None => "null".to_string(),
                },
            ));
        }
        passes.push(']');
        let mut stages = String::from("[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            stages.push_str(&format!(
                "{{\"stage\":\"{}\",\"wall_ns\":{}}}",
                s.stage.name(),
                s.wall_ns
            ));
        }
        stages.push(']');
        // The `timing` key only exists when the stage ran: untimed reports
        // stay byte-identical to the pre-timing schema.
        let timing = match &self.timing {
            Some(t) => format!(",\"timing\":{}", t.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"schema\":\"xsfq-flow-report/1\",\"name\":\"{}\",\"aig_nodes\":{},\
             \"aig_depth\":{},\"la_fa\":{},\"duplication_percent\":{},\"splitters\":{},\
             \"drocs_plain\":{},\"drocs_preload\":{},\"jj_total\":{},\"jj_clock_tree\":{},\
             \"depth_logic\":{},\"depth_with_splitters\":{},\"critical_delay_ps\":{},\
             \"circuit_ghz\":{},\"arch_ghz\":{},\"degraded\":{},\"passes\":{passes},\
             \"stages\":{stages}{timing}}}",
            json_escape(&self.name),
            self.aig_nodes,
            self.aig_depth,
            self.la_fa,
            json_f64(self.duplication_percent),
            self.splitters,
            self.drocs_plain,
            self.drocs_preload,
            self.jj_total,
            self.jj_clock_tree,
            self.depth_logic,
            self.depth_with_splitters,
            json_f64(self.critical_delay_ps),
            json_f64(self.circuit_ghz),
            json_f64(self.arch_ghz),
            self.degraded,
        )
    }
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} LA/FA ({:.0}% dupl), {} splitters, {}/{} DROC, {} JJ, depth {}/{}, {:.1}/{:.1} GHz",
            self.name,
            self.la_fa,
            self.duplication_percent,
            self.splitters,
            self.drocs_plain,
            self.drocs_preload,
            self.jj_total,
            self.depth_logic,
            self.depth_with_splitters,
            self.circuit_ghz,
            self.arch_ghz,
        )
    }
}

/// Result of a flow run.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The optimized AIG the mapping consumed.
    pub optimized: Aig,
    /// Full mapping artifacts (logical + physical netlists, polarity data).
    pub mapped: MappedDesign,
    /// The table-row report.
    pub report: FlowReport,
}

impl FlowResult {
    /// The physical (splitter-inserted) netlist — borrows
    /// `mapped.physical` instead of cloning it per run.
    pub fn netlist(&self) -> &Netlist {
        &self.mapped.physical
    }
}

/// The one recorder of a job, owned by the job runner *outside* the
/// `catch_unwind` boundary so the completed-pass stats and the name of the
/// in-flight pass survive a panic and land in the [`JobError`]. It also
/// runs the [`CheckLevel::Paranoid`] per-pass lint (via
/// [`PassObserver::on_graph`], which sees the post-rollback graph) and
/// forwards every event to the caller's observer, if any.
struct JobTrace<'o> {
    passes: Vec<PassStat>,
    current_pass: Option<String>,
    check: CheckLevel,
    lint: Vec<Diag>,
    observer: Option<&'o mut dyn PassObserver>,
}

impl PassObserver for JobTrace<'_> {
    fn on_pass_start(&mut self, name: &str) {
        self.current_pass = Some(name.to_string());
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_pass_start(name);
        }
    }
    fn on_pass(&mut self, stat: &PassStat) {
        self.passes.push(stat.clone());
        self.current_pass = None;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_pass(stat);
        }
    }
    fn on_graph(&mut self, aig: &Aig) {
        if self.check >= CheckLevel::Paranoid {
            self.lint.extend(xsfq_lint::lint_aig(aig));
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_graph(aig);
        }
    }
}

/// The pool a flow runs on: private when `threads(n)` was set, otherwise
/// the process-wide executor.
enum FlowPool {
    Private(ThreadPool),
    Global,
}

impl FlowPool {
    fn get(&self) -> &ThreadPool {
        match self {
            FlowPool::Private(pool) => pool,
            FlowPool::Global => ThreadPool::global(),
        }
    }
}

/// The xSFQ synthesis flow.
///
/// The optimization recipe is a pass script: either a preset via
/// [`SynthesisFlow::effort`] or any ABC-style script via
/// [`SynthesisFlow::script_str`] (grammar in [`xsfq_aig::pass`]). Batches
/// of designs run concurrently through [`SynthesisFlow::run_many`].
///
/// ```
/// use xsfq_aig::{Aig, build};
/// use xsfq_core::SynthesisFlow;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut aig = Aig::new("fa");
/// let a = aig.input("a");
/// let b = aig.input("b");
/// let cin = aig.input("cin");
/// let (s, c) = build::full_adder(&mut aig, a, b, cin);
/// aig.output("sum", s);
/// aig.output("cout", c);
///
/// let result = SynthesisFlow::new().verify(true).run(&aig)?;
/// // Figure 5ii: the flow lands on 10 LA/FA cells and 58 JJs.
/// assert_eq!(result.report.la_fa, 10);
/// assert_eq!(result.report.jj_total, 58);
/// // Every optimization pass left a telemetry row.
/// assert!(!result.report.passes.is_empty());
///
/// // The same flow, scripted explicitly:
/// let scripted = SynthesisFlow::new().script_str("standard")?.run(&aig)?;
/// assert_eq!(scripted.report.jj_total, result.report.jj_total);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SynthesisFlow {
    options: FlowOptions,
}

impl SynthesisFlow {
    /// Flow with default options (standard-preset script, heuristic
    /// polarity, abutted interconnect, no pipelining, no verification).
    pub fn new() -> Self {
        Self::default()
    }

    /// Flow with explicit options.
    pub fn with_options(options: FlowOptions) -> Self {
        SynthesisFlow { options }
    }

    /// Set the optimization effort — a compatibility facade that installs
    /// the matching preset script ([`Script::preset`]).
    #[must_use]
    pub fn effort(mut self, effort: Effort) -> Self {
        self.options.script = Script::preset(effort);
        self
    }

    /// Set the optimization pass script.
    #[must_use]
    pub fn script(mut self, script: Script) -> Self {
        self.options.script = script;
        self
    }

    /// Parse and set the optimization pass script (ABC-style, e.g.
    /// `"b; rw; rf; b; rwz; rw"` or `"standard; f"`).
    ///
    /// # Errors
    ///
    /// [`ScriptError`] when the text does not match the script grammar.
    pub fn script_str(self, text: &str) -> Result<Self, ScriptError> {
        Ok(self.script(Script::parse(text)?))
    }

    /// Set the polarity mode.
    #[must_use]
    pub fn polarity(mut self, mode: PolarityMode) -> Self {
        self.options.polarity = mode;
        self
    }

    /// Set the interconnect style.
    #[must_use]
    pub fn style(mut self, style: InterconnectStyle) -> Self {
        self.options.style = style;
        self
    }

    /// Set the number of architectural pipeline stages.
    #[must_use]
    pub fn pipeline_stages(mut self, stages: usize) -> Self {
        self.options.pipeline_stages = stages;
        self
    }

    /// Enable or disable the post-script SAT-sweeping (fraig) pass.
    #[must_use]
    pub fn fraig(mut self, fraig: bool) -> Self {
        self.options.fraig = fraig;
        self
    }

    /// Enable or disable post-mapping verification.
    #[must_use]
    pub fn verify(mut self, verify: bool) -> Self {
        self.options.verify = verify;
        self
    }

    /// Run the optimization passes on a private pool of `threads` worker
    /// threads (clamped to ≥ 1) instead of the process-wide executor. The
    /// result is bit-identical for every thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = Some(threads.max(1));
        self
    }

    /// Install a cancellation token. Cancelling it aborts the flow (every
    /// job of a batch) at the next pass or evaluate-batch boundary; the
    /// abort surfaces as [`FlowError::Cancelled`] /
    /// [`JobErrorKind::Cancelled`]. Completed jobs are unaffected and
    /// bit-identical to uncancelled runs.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Set a per-job wall-clock deadline, measured from each job's start.
    /// A job overrunning it is cancelled cooperatively and reports
    /// [`JobErrorKind::DeadlineExpired`]; other jobs keep running.
    #[must_use]
    pub fn job_deadline(mut self, deadline: Duration) -> Self {
        self.options.job_deadline = Some(deadline);
        self
    }

    /// Install per-pass resource budgets (see [`PassGuards`]): node-growth
    /// and wall-time limits, with optional degradation to the `fast`
    /// preset instead of failing the job on a trip.
    #[must_use]
    pub fn guards(mut self, guards: PassGuards) -> Self {
        self.options.guards = guards;
        self
    }

    /// Set the static checking level (see [`FlowOptions::check`]). The
    /// default `Off` adds exactly zero work to the flow.
    #[must_use]
    pub fn check(mut self, level: CheckLevel) -> Self {
        self.options.check = level;
        self
    }

    /// Enable the post-Map timing stage (see [`FlowOptions::timing`]):
    /// static arrival/slack analysis plus slack-matching JTL insertion
    /// per [`TimingOptions::balance`]. Not setting it skips the stage
    /// entirely, leaving every output byte-identical to an untimed flow.
    #[must_use]
    pub fn timing(mut self, options: TimingOptions) -> Self {
        self.options.timing = Some(options);
        self
    }

    /// Install a deterministic fault-injection plan (see
    /// [`xsfq_aig::chaos`]). Batch designs are addressed by their index in
    /// the [`SynthesisFlow::run_many_isolated`] slice; every single-design
    /// entry ([`SynthesisFlow::run`], [`SynthesisFlow::run_job`], …) is
    /// design 0.
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn chaos_plan(mut self, plan: xsfq_aig::chaos::FaultPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Current options.
    pub fn options(&self) -> &FlowOptions {
        &self.options
    }

    /// The cancellation token one job polls: the configured batch token
    /// (or a never-cancelled default), tightened by the per-job deadline
    /// measured from now — so this must be called at job start.
    fn job_token(&self) -> CancelToken {
        let base = self.options.cancel.clone().unwrap_or_default();
        match self.options.job_deadline {
            Some(deadline) => base.with_timeout(deadline),
            None => base,
        }
    }

    fn flow_pool(&self) -> FlowPool {
        match self.options.threads {
            Some(n) => FlowPool::Private(ThreadPool::new(n)),
            None => FlowPool::Global,
        }
    }

    /// Run the flow on a design (on the [`SynthesisFlow::threads`] pool,
    /// with fresh arenas that are freed when the optimize stage ends).
    ///
    /// # Errors
    ///
    /// [`FlowError::Script`] when the configured script does not compile
    /// against [`flow_registry`]; [`FlowError::PipelineOnSequential`] when
    /// pipeline stages are requested for a design with latches;
    /// [`FlowError::Verification`] when the mapped netlist fails the
    /// equivalence proof. A job that panicked re-raises its panic (message
    /// preserved); a cancelled or deadline-expired job surfaces as
    /// [`FlowError::Cancelled`].
    pub fn run(&self, aig: &Aig) -> Result<FlowResult, FlowError> {
        let pool = self.flow_pool();
        self.run_isolated(aig, 0, pool.get(), None, None)
            .map_err(JobError::into_flow_error)
    }

    /// [`SynthesisFlow::run`] with an observer receiving the per-pass
    /// telemetry (and, via [`PassObserver::on_graph`], every intermediate
    /// graph) as the script executes. Stage timing is in the result's
    /// [`FlowReport::stages`].
    ///
    /// # Errors
    ///
    /// As [`SynthesisFlow::run`].
    pub fn run_observed(
        &self,
        aig: &Aig,
        observer: &mut dyn PassObserver,
    ) -> Result<FlowResult, FlowError> {
        let pool = self.flow_pool();
        self.run_isolated(aig, 0, pool.get(), None, Some(observer))
            .map_err(JobError::into_flow_error)
    }

    /// Run the flow over a batch of designs, scheduling **whole designs**
    /// across the executor pool (flow-level parallelism for benchmark
    /// sweeps and serving workloads).
    ///
    /// Results come back in input order and are identical to running
    /// [`SynthesisFlow::run`] per design: each design's passes execute on a
    /// sequential inner pool (the executor forbids nested parallel
    /// sections), and the optimization output is bit-identical for every
    /// thread count by construction. Each worker keeps one warm
    /// [`PassArenas`] set (cut arena, scratch, synthesis memos) across all
    /// the designs it handles — reuse cannot change results, everything the
    /// arenas cache is a pure function of its inputs.
    ///
    /// # Errors
    ///
    /// All-or-nothing wrapper over [`SynthesisFlow::run_many_isolated`]:
    /// the first error in design order, if any design fails, mapped as in
    /// [`SynthesisFlow::run`].
    pub fn run_many(&self, designs: &[Aig]) -> Result<Vec<FlowResult>, FlowError> {
        self.run_many_isolated(designs)
            .into_iter()
            .map(|result| result.map_err(JobError::into_flow_error))
            .collect()
    }

    /// Fault-isolated batch runner: like [`SynthesisFlow::run_many`], but
    /// every design gets an independent verdict. A design that panics,
    /// overruns its [deadline](SynthesisFlow::job_deadline), is
    /// [cancelled](SynthesisFlow::cancel_token), or fails any flow stage
    /// yields a structured [`JobError`] — which pass was in flight, how
    /// long the job ran, the telemetry of the passes that completed — while
    /// every healthy design completes normally, bit-identical to a solo
    /// [`SynthesisFlow::run`] (the CI-gated `chaos` suite pins exactly
    /// this).
    ///
    /// Results come back in input order. Worker panics are contained to
    /// their job: the pool is not poisoned, and the worker continues with
    /// the next design (its warm arenas are rebuilt from scratch — a
    /// performance detail, never a correctness one).
    // `JobError` carries the partial telemetry by value; the `Ok` side
    // (`FlowResult`) is larger still, so boxing the error buys nothing.
    #[allow(clippy::result_large_err)]
    pub fn run_many_isolated(&self, designs: &[Aig]) -> Vec<Result<FlowResult, JobError>> {
        self.flow_pool().get().map_init_coarse(
            designs,
            || (ThreadPool::new(1), PassArenas::default()),
            |(inner, arenas), design, aig| {
                self.run_isolated(aig, design, inner, Some(arenas), None)
            },
        )
    }

    /// One fault-isolated job on a caller-owned pool: the serving daemon's
    /// entry point. Unlike [`SynthesisFlow::run_many_isolated`] — which
    /// owns its scheduling and gives every job a 1-thread inner pool — this
    /// runs a single design with the optimization passes fanned out over
    /// `pool` (cap it per job with
    /// [`xsfq_exec::ThreadPool::scoped_budget`]), reusing the caller's warm
    /// [`PassArenas`] across jobs. Every failure mode surfaces as a
    /// structured [`JobError`] with `design == 0`; a chaos plan installed
    /// via [`SynthesisFlow::chaos_plan`] addresses this job as design 0.
    ///
    /// Must not be called from inside a parallel section of `pool` (the
    /// executor forbids nested sections).
    #[allow(clippy::result_large_err)]
    pub fn run_job(
        &self,
        aig: &Aig,
        pool: &ThreadPool,
        arenas: &mut PassArenas,
    ) -> Result<FlowResult, JobError> {
        self.run_isolated(aig, 0, pool, Some(arenas), None)
    }

    /// The job runner every public entry point wraps: build the job's
    /// token (its deadline counts from now), run the stages under
    /// `catch_unwind` with a [`JobTrace`] recorder that outlives an unwind,
    /// and map every outcome — flow error, cancellation, deadline, panic —
    /// to a [`JobError`] for batch design `design`. `arenas`, when given,
    /// is used warm and handed back warm; otherwise the job builds fresh
    /// ones and frees them with the optimize context.
    #[allow(clippy::result_large_err)]
    fn run_isolated(
        &self,
        aig: &Aig,
        design: usize,
        pool: &ThreadPool,
        arenas: Option<&mut PassArenas>,
        observer: Option<&mut dyn PassObserver>,
    ) -> Result<FlowResult, JobError> {
        let token = self.job_token();
        let started = Instant::now();
        let mut trace = JobTrace {
            passes: Vec::new(),
            current_pass: None,
            check: self.options.check,
            lint: Vec::new(),
            observer,
        };
        // The recorder and arenas stay valid across an unwind: the trace
        // only ever holds completed records, and a poisoned arena set is
        // discarded with the job (the caller is left with cold arenas).
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.run_stages(aig, design, pool, arenas, &token, &mut trace)
        }));
        let kind = match outcome {
            Ok(Ok(result)) => return Ok(result),
            // `current_pass` is still `Some` only when a pass was announced
            // but never ran — a cancellation that hit inside the pass
            // boundary; the attribution is kept.
            Ok(Err(FlowError::Cancelled(CancelCause::Explicit))) => JobErrorKind::Cancelled,
            Ok(Err(FlowError::Cancelled(CancelCause::Deadline))) => JobErrorKind::DeadlineExpired,
            Ok(Err(e)) => JobErrorKind::Flow(e),
            // A stalled-then-cancelled pass can also panic (safety caps);
            // cancellation verdicts take precedence when the token fired.
            Err(payload) => match token.cause() {
                Some(CancelCause::Deadline) => JobErrorKind::DeadlineExpired,
                Some(CancelCause::Explicit) => JobErrorKind::Cancelled,
                None => JobErrorKind::Panicked {
                    message: panic_message(payload.as_ref()).to_string(),
                },
            },
        };
        Err(JobError {
            design,
            name: aig.name().to_string(),
            kind,
            pass: trace.current_pass,
            elapsed: started.elapsed(),
            passes: trace.passes,
        })
    }

    /// The staged pipeline body: compile the script, then Optimize →
    /// Pipeline → Polarity → Map → [Timing] → Verify (Timing only when
    /// configured), with per-stage timing and cancellation checks at every
    /// stage boundary.
    // `design` only selects the chaos injector.
    #[cfg_attr(not(feature = "chaos"), allow(unused_variables))]
    fn run_stages(
        &self,
        aig: &Aig,
        design: usize,
        pool: &ThreadPool,
        mut arenas: Option<&mut PassArenas>,
        token: &CancelToken,
        trace: &mut JobTrace<'_>,
    ) -> Result<FlowResult, FlowError> {
        let o = &self.options;
        let mut script = o.script.clone();
        if o.fraig {
            script = script.then(Script::single("f"));
        }
        let compiled = script.compile(&flow_registry())?;
        if o.pipeline_stages > 0 && aig.num_latches() > 0 {
            return Err(FlowError::PipelineOnSequential);
        }
        let cancelled = || FlowError::Cancelled(token.cause().unwrap_or(CancelCause::Explicit));
        let mut stages: Vec<StageStat> = Vec::new();
        let mut note = |stage: FlowStage, start: Instant| {
            stages.push(StageStat {
                stage,
                wall_ns: start.elapsed().as_nanos() as u64,
            });
        };

        // -- Optimize: the pass script, with per-pass telemetry.
        let start = Instant::now();
        let (optimized, passes, degraded, guard_trip, arena_lint) = {
            let mut ctx = PassCtx::with_observer(pool, trace);
            ctx.set_token(token.clone());
            ctx.set_guards(o.guards.clone());
            #[cfg(feature = "chaos")]
            if let Some(injector) = o.chaos.as_ref().and_then(|plan| plan.for_design(design)) {
                ctx.set_chaos(injector);
            }
            if let Some(store) = arenas.as_deref_mut() {
                ctx.reuse_arenas(std::mem::take(store));
            }
            let optimized = compiled.run(aig, &mut ctx);
            let passes = ctx.take_telemetry();
            // Audit the cut arena while the ctx still owns it — the CSR
            // ranges and signatures are scratch state the next pass would
            // silently trust.
            let arena_lint = if o.check >= CheckLevel::Paranoid {
                xsfq_lint::lint_cut_arena(ctx.cut_arena())
            } else {
                Vec::new()
            };
            if let Some(store) = arenas {
                *store = ctx.take_arenas();
            }
            let guard_trip = ctx
                .guard_trip()
                .map(|(pass, kind)| (pass.to_string(), kind));
            (optimized, passes, ctx.degraded(), guard_trip, arena_lint)
        };
        note(FlowStage::Optimize, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }
        if let Some((pass, kind)) = guard_trip {
            return Err(FlowError::GuardTripped { pass, kind });
        }
        if o.check >= CheckLevel::Stage {
            let mut diags = std::mem::take(&mut trace.lint);
            diags.extend(arena_lint);
            diags.extend(xsfq_lint::lint_aig(&optimized));
            if xsfq_lint::has_errors(&diags) {
                return Err(FlowError::LintFailed(diags));
            }
        }

        // -- Pipeline: rank-level selection (no-op for 0 stages).
        let start = Instant::now();
        let rank_levels = choose_rank_levels(&optimized, o.pipeline_stages, o.rank_window);
        note(FlowStage::Pipeline, start);

        // -- Polarity: output phase assignment (parallel candidate costing).
        let start = Instant::now();
        let (assignment, _requirements) = assign_polarities_with_pool(&optimized, o.polarity, pool);
        note(FlowStage::Polarity, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }

        // -- Map: dual-rail mapping (parallel requirements sweep, sequential
        // emission commit) + splitter insertion.
        let start = Instant::now();
        let mut mapped = map_with_assignment_pool(
            &optimized,
            &MapOptions {
                polarity: o.polarity,
                style: o.style,
                rank_levels,
            },
            assignment,
            pool,
        );
        note(FlowStage::Map, start);
        if token.is_cancelled() {
            return Err(cancelled());
        }
        if o.check >= CheckLevel::Stage {
            let mut diags = xsfq_lint::lint_netlist(&mapped.logical, NetlistProfile::Logical);
            diags.extend(xsfq_lint::lint_netlist(
                &mapped.physical,
                NetlistProfile::Physical,
            ));
            if xsfq_lint::has_errors(&diags) {
                return Err(FlowError::LintFailed(diags));
            }
        }

        // -- Timing (optional): static arrival/slack analysis of the
        // physical netlist plus slack-matching JTL insertion. The balanced
        // netlist replaces `mapped.physical`, so the report's area numbers
        // include the buffers; reconstruction treats JTLs as wires, so the
        // Verify proof below covers the balanced netlist's function too.
        let mut timing_summary = None;
        if let Some(topts) = &o.timing {
            let start = Instant::now();
            let outcome = xsfq_timing::balance_netlist(&mapped.physical, topts, Some(pool));
            if let Some(balanced) = outcome.netlist {
                mapped.physical = balanced;
            }
            note(FlowStage::Timing, start);
            if token.is_cancelled() {
                return Err(cancelled());
            }
            // Full balancing promises sub-tolerance residual skew; hold it
            // to that promise at Stage level (Budget/Off residue is the
            // requested trade-off, not a defect).
            if o.check >= CheckLevel::Stage && topts.balance == BalanceMode::Full {
                let diags = xsfq_lint::lint_timing(
                    &mapped.physical,
                    topts.allowed_skew_for(&mapped.physical),
                );
                if xsfq_lint::has_errors(&diags) {
                    return Err(FlowError::LintFailed(diags));
                }
            }
            timing_summary = Some(outcome.summary);
        }

        // -- Verify: SAT proof the mapping preserved the function.
        if o.verify && aig.num_latches() == 0 {
            let start = Instant::now();
            let verdict = verify_mapping(&optimized, &mapped, o.polarity);
            note(FlowStage::Verify, start);
            verdict.map_err(FlowError::Verification)?;
        }

        let stats = mapped.physical.stats();
        let splitter_jj = u64::from(mapped.physical.library().jj(CellKind::Splitter));
        let circuit_ghz = stats.circuit_clock_ghz();
        let report = FlowReport {
            name: aig.name().to_string(),
            aig_nodes: optimized.num_ands(),
            aig_depth: optimized.depth(),
            la_fa: stats.la_fa,
            duplication_percent: mapped.duplication_percent(),
            splitters: stats.splitters,
            drocs_plain: stats.drocs_plain,
            drocs_preload: stats.drocs_preload,
            jj_total: stats.jj_total + mapped.trigger_merger_jj,
            jj_clock_tree: stats.clock_tree_jj(splitter_jj),
            depth_logic: stats.depth_logic,
            depth_with_splitters: stats.depth_with_splitters,
            critical_delay_ps: stats.critical_delay_ps,
            circuit_ghz,
            arch_ghz: circuit_ghz / 2.0,
            passes,
            stages,
            degraded,
            timing: timing_summary,
        };
        Ok(FlowResult {
            optimized,
            mapped,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_aig::{build, Lit};

    #[test]
    fn flow_on_full_adder_hits_paper_numbers() {
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        let r = SynthesisFlow::new().verify(true).run(&g).unwrap();
        assert_eq!(r.report.la_fa, 10);
        assert_eq!(r.report.splitters, 6);
        assert_eq!(r.report.jj_total, 58);
        assert_eq!(r.report.jj_clock_tree, 0);
        assert_eq!(r.report.drocs_plain + r.report.drocs_preload, 0);
    }

    #[test]
    fn pipelined_flow_reduces_depth_and_adds_drocs() {
        let mut g = Aig::new("mul6");
        let a = g.input_word("a", 6);
        let b = g.input_word("b", 6);
        let p = build::array_multiplier(&mut g, &a, &b);
        g.output_word("p", &p);
        let base = SynthesisFlow::new().run(&g).unwrap();
        let piped = SynthesisFlow::new()
            .pipeline_stages(1)
            .verify(true)
            .run(&g)
            .unwrap();
        assert_eq!(base.report.drocs_plain + base.report.drocs_preload, 0);
        assert!(piped.report.drocs_preload > 0);
        assert!(
            piped.report.depth_logic < base.report.depth_logic,
            "pipelining must shorten stages: {} vs {}",
            piped.report.depth_logic,
            base.report.depth_logic
        );
        assert!(piped.report.circuit_ghz > base.report.circuit_ghz);
        assert!(piped.report.jj_clock_tree > 0, "DROCs need a clock tree");
    }

    #[test]
    fn fraig_flow_verifies_and_does_not_grow() {
        // Duplicated mux/xor cones the structural passes may miss; the
        // fraig-enabled flow must still verify and never end up larger.
        let mut g = Aig::new("dup");
        let a = g.input_word("a", 3);
        let b = g.input_word("b", 3);
        let mut outs = Vec::new();
        for i in 0..3 {
            let x = g.xor(a[i], b[i]);
            let m = g.mux(a[i], !b[i], b[i]);
            let both = g.and(x, m);
            outs.push(both);
        }
        g.output_word("o", &outs);
        let base = SynthesisFlow::new().verify(true).run(&g).unwrap();
        let swept = SynthesisFlow::new()
            .fraig(true)
            .verify(true)
            .run(&g)
            .unwrap();
        assert!(swept.report.aig_nodes <= base.report.aig_nodes);
        // The compatibility knob appends `f` to the script: its telemetry
        // row must be there.
        assert_eq!(swept.report.passes.last().unwrap().name, "f");
        // And `script_str("standard; f")` is the same flow.
        let scripted = SynthesisFlow::new()
            .script_str("standard; f")
            .unwrap()
            .verify(true)
            .run(&g)
            .unwrap();
        assert_eq!(scripted.optimized.nodes(), swept.optimized.nodes());
        assert_eq!(scripted.report.jj_total, swept.report.jj_total);
    }

    #[test]
    fn threads_knob_gives_bit_identical_flows() {
        let mut g = Aig::new("mul6");
        let a = g.input_word("a", 6);
        let b = g.input_word("b", 6);
        let p = build::array_multiplier(&mut g, &a, &b);
        g.output_word("p", &p);
        let one = SynthesisFlow::new().threads(1).run(&g).unwrap();
        let four = SynthesisFlow::new().threads(4).run(&g).unwrap();
        assert_eq!(one.optimized.nodes(), four.optimized.nodes());
        assert_eq!(one.optimized.outputs(), four.optimized.outputs());
        assert_eq!(one.report.jj_total, four.report.jj_total);
        assert_eq!(one.report.la_fa, four.report.la_fa);
    }

    #[test]
    fn pipeline_on_sequential_is_rejected() {
        let mut g = Aig::new("seq");
        let q = g.latch("q", false);
        g.set_latch_next(q, !q);
        g.output("o", q);
        let err = SynthesisFlow::new().pipeline_stages(1).run(&g).unwrap_err();
        assert!(matches!(err, FlowError::PipelineOnSequential));
    }

    #[test]
    fn bad_scripts_are_rejected() {
        assert!(SynthesisFlow::new().script_str("repeat {").is_err());
        // Unknown passes surface at run time (compile against the flow
        // registry).
        let flow = SynthesisFlow::new().script_str("b; nosuch").unwrap();
        let mut g = Aig::new("t");
        let a = g.input("a");
        let b = g.input("b");
        let o = g.and(a, b);
        g.output("o", o);
        assert!(matches!(
            flow.run(&g),
            Err(FlowError::Script(ScriptError::UnknownPass(_)))
        ));
    }

    #[test]
    fn sequential_flow_reports_drocs_and_trigger() {
        let mut g = Aig::new("cnt2");
        let q0 = g.latch("q0", false);
        let q1 = g.latch("q1", false);
        g.set_latch_next(q0, !q0);
        let n1 = g.xor(q1, q0);
        g.set_latch_next(q1, n1);
        g.output("o0", q0);
        g.output("o1", q1);
        let r = SynthesisFlow::new().run(&g).unwrap();
        assert_eq!(r.report.drocs_plain + r.report.drocs_preload, 4);
        assert!(r.report.jj_total > 0);
        assert!(r.report.jj_clock_tree > 0);
        // Trigger merger is counted once (5 JJ).
        let stats = r.netlist().stats();
        assert_eq!(r.report.jj_total, stats.jj_total + 5);
    }

    #[test]
    fn verification_catches_nothing_on_good_flow() {
        let mut g = Aig::new("alu");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let sel = g.input("sel");
        let (sum, _) = build::ripple_add(&mut g, &a, &b, Lit::FALSE);
        let ands: Vec<Lit> = a.iter().zip(&b).map(|(&x, &y)| g.and(x, y)).collect();
        let out = build::mux_word(&mut g, sel, &sum, &ands);
        g.output_word("o", &out);
        for mode in [
            PolarityMode::DualRail,
            PolarityMode::AllPositive,
            PolarityMode::Heuristic,
        ] {
            let r = SynthesisFlow::new()
                .polarity(mode)
                .verify(true)
                .run(&g)
                .unwrap();
            assert!(r.report.jj_total > 0);
        }
    }

    #[test]
    fn observer_sees_every_pass_and_report_every_stage() {
        #[derive(Default)]
        struct Recorder {
            started: usize,
            passes: usize,
            graphs: usize,
        }
        impl PassObserver for Recorder {
            fn on_pass_start(&mut self, _name: &str) {
                self.started += 1;
            }
            fn on_pass(&mut self, _stat: &PassStat) {
                self.passes += 1;
            }
            fn on_graph(&mut self, _aig: &Aig) {
                self.graphs += 1;
            }
        }
        let mut g = Aig::new("fa");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("cin");
        let (s, co) = build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        let mut rec = Recorder::default();
        let r = SynthesisFlow::new()
            .verify(true)
            .check(CheckLevel::Paranoid)
            .run_observed(&g, &mut rec)
            .unwrap();
        assert!(rec.passes > 0);
        assert_eq!(rec.passes, r.report.passes.len());
        assert_eq!(rec.started, rec.passes);
        assert_eq!(rec.graphs, rec.passes);
        let reported: Vec<FlowStage> = r.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(
            reported,
            vec![
                FlowStage::Optimize,
                FlowStage::Pipeline,
                FlowStage::Polarity,
                FlowStage::Map,
                FlowStage::Verify
            ]
        );
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let mut designs = Vec::new();
        for bits in [3usize, 4, 5, 6] {
            let mut g = Aig::new(format!("mul{bits}"));
            let a = g.input_word("a", bits);
            let b = g.input_word("b", bits);
            let p = build::array_multiplier(&mut g, &a, &b);
            g.output_word("p", &p);
            designs.push(g);
        }
        let flow = SynthesisFlow::new().effort(Effort::Fast);
        let batch = flow.run_many(&designs).unwrap();
        assert_eq!(batch.len(), designs.len());
        for (g, r) in designs.iter().zip(&batch) {
            let single = flow.run(g).unwrap();
            assert_eq!(r.report.name, single.report.name);
            assert_eq!(r.optimized.nodes(), single.optimized.nodes());
            assert_eq!(r.report.jj_total, single.report.jj_total);
            assert_eq!(r.report.la_fa, single.report.la_fa);
            assert_eq!(r.report.passes.len(), single.report.passes.len());
        }
    }

    #[test]
    fn run_many_propagates_the_first_error() {
        let mut comb = Aig::new("comb");
        let a = comb.input("a");
        let b = comb.input("b");
        let o = comb.and(a, b);
        comb.output("o", o);
        let mut seq = Aig::new("seq");
        let q = seq.latch("q", false);
        seq.set_latch_next(q, !q);
        seq.output("o", q);
        let err = SynthesisFlow::new()
            .pipeline_stages(1)
            .run_many(&[comb, seq])
            .unwrap_err();
        assert!(matches!(err, FlowError::PipelineOnSequential));
    }
}
