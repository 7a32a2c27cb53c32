//! The daemon: admission, shard workers, TCP listener, directory watcher,
//! graceful drain. See the [crate docs](crate) for the operational guide.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use xsfq_aig::digest::canonical_digest;
use xsfq_aig::io::read_netlist_auto;
use xsfq_aig::pass::{PassArenas, PassGuards, Script};
use xsfq_core::SynthesisFlow;
use xsfq_exec::{CancelToken, ThreadPool};
use xsfq_lint::{has_errors, lint_aig, render_json, CheckLevel};
use xsfq_netlist::writers::{json_escape, write_verilog};
use xsfq_timing::TimingOptions;

use crate::cache::{CacheKey, ResultCache};
use crate::job::{Job, JobSink};
use crate::journal::Journal;
use crate::protocol::{
    self, read_frame, write_frame, SubmitRequest, KIND_BUSY, KIND_ERR, KIND_OK, KIND_PING,
    KIND_PONG, KIND_STATS, KIND_STATS_OK, KIND_SUBMIT,
};
use crate::queue::JobQueue;

/// Jobs below this AND count run under `scoped_budget(1)`: the sequential
/// path beats the fan-out/join overhead of a parallel section for graphs
/// this small, and results are bit-identical either way.
const SMALL_JOB_ANDS: usize = 512;

/// Daemon configuration. Construct with [`ServeConfig::new`] and override
/// fields as needed; every field has a production-sane default.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP listen address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Journal + spool directory; created if missing. The daemon's crash
    /// recovery replays from here, so it must survive restarts.
    pub state_dir: PathBuf,
    /// Directory to poll for dropped-in `.blif` / `.aag` / `.aig` jobs.
    pub watch_dir: Option<PathBuf>,
    /// Where directory jobs' results land (`<design>.v` + `<design>.json`,
    /// or `<design>.err.json`). Defaults to `state_dir/results`.
    pub out_dir: Option<PathBuf>,
    /// Worker shards; each owns one executor pool and a warm arena set.
    pub shards: usize,
    /// Executor threads per shard pool.
    pub threads_per_job: usize,
    /// Admission-queue capacity. Beyond it, submissions shed with BUSY.
    pub queue_capacity: usize,
    /// Concurrent TCP connections; excess connections get one BUSY frame.
    pub max_connections: usize,
    /// Per-job wall-clock deadline (counted from job start, not submit).
    pub job_deadline: Option<Duration>,
    /// Retries for transient failures (panics, guard trips). 0 disables.
    pub retry_limit: u32,
    /// First retry delay; doubles per attempt.
    pub retry_base: Duration,
    /// Result-cache byte budget; 0 disables caching.
    pub cache_budget: usize,
    /// Script used when a submission leaves its script field empty.
    pub default_script: String,
    /// Per-pass resource guards applied to every job.
    pub guards: PassGuards,
    /// Static checking level for every job (see [`CheckLevel`]): the
    /// default `Stage` lints submissions at admission (ill-formed netlists
    /// are rejected with structured diagnostics instead of occupying a
    /// shard) and validates each job's intermediate structures between
    /// flow stages. `Off` restores the unchecked fast path.
    pub check: CheckLevel,
    /// Optional timing stage for every job (see `xsfq_core::FlowOptions::
    /// timing`): static arrival/slack analysis plus slack-matching JTL
    /// insertion on the mapped netlist; the verdict's report JSON then
    /// carries a `timing` summary. `None` (the default) keeps results
    /// byte-identical to earlier releases. The configuration joins the
    /// result-cache fingerprint, so flipping it can never replay a
    /// differently-timed cached netlist.
    pub timing: Option<TimingOptions>,
    /// How long a drain lets in-flight jobs finish before cancelling them.
    pub drain_grace: Duration,
}

fn env_threads() -> usize {
    std::env::var("XSFQ_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(2, |n| n.get()))
}

impl ServeConfig {
    /// Defaults: ephemeral localhost port, 2 shards, `XSFQ_THREADS` (or
    /// hardware) threads per shard, 64-deep queue, 60 s deadline, 2
    /// retries, 64 MiB cache, `standard` script, 5 s drain grace.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.into(),
            watch_dir: None,
            out_dir: None,
            shards: 2,
            threads_per_job: env_threads(),
            queue_capacity: 64,
            max_connections: 64,
            job_deadline: Some(Duration::from_secs(60)),
            retry_limit: 2,
            retry_base: Duration::from_millis(20),
            cache_budget: 64 << 20,
            default_script: "standard".into(),
            guards: PassGuards::none(),
            check: CheckLevel::Stage,
            timing: None,
            drain_grace: Duration::from_secs(5),
        }
    }
}

#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
}

struct Shared {
    queue: JobQueue,
    journal: Journal,
    cache: ResultCache,
    stats: Stats,
    /// Drain cancellation: fired by the grace timer, observed by every
    /// in-flight job through its flow's cancel token.
    cancel: CancelToken,
    stop: AtomicBool,
    draining: AtomicBool,
    connections: AtomicUsize,
    max_connections: usize,
    threads_per_job: usize,
    retry_limit: u32,
    retry_base: Duration,
    job_deadline: Option<Duration>,
    guards: PassGuards,
    check: CheckLevel,
    timing: Option<TimingOptions>,
    /// Cache-key component covering everything job-independent the result
    /// depends on (guards, deadline presence, flow defaults).
    guard_fp: String,
    default_script: String,
}

/// The structured failure verdict (`xsfq-serve-verdict/1`).
fn verdict_json(
    kind: &str,
    name: &str,
    pass: Option<&str>,
    attempts: u32,
    elapsed_ms: u64,
    detail: &str,
) -> String {
    verdict_json_diags(kind, name, pass, attempts, elapsed_ms, detail, "[]")
}

/// [`verdict_json`] with lint findings attached: `diags` is a pre-rendered
/// `xsfq-lint-diags/1` JSON array (see [`render_json`]), `[]` when none.
#[allow(clippy::too_many_arguments)]
fn verdict_json_diags(
    kind: &str,
    name: &str,
    pass: Option<&str>,
    attempts: u32,
    elapsed_ms: u64,
    detail: &str,
    diags: &str,
) -> String {
    let pass = match pass {
        Some(p) => format!("\"{}\"", json_escape(p)),
        None => "null".into(),
    };
    format!(
        "{{\"schema\":\"xsfq-serve-verdict/1\",\"name\":\"{}\",\"kind\":\"{}\",\
         \"pass\":{},\"attempts\":{},\"elapsed_ms\":{},\"detail\":\"{}\",\"diags\":{}}}",
        json_escape(name),
        json_escape(kind),
        pass,
        attempts,
        elapsed_ms,
        json_escape(detail),
        diags
    )
}

fn busy_hint_ms(queue_len: usize) -> u32 {
    (50 + 25 * queue_len as u32).min(2000)
}

enum Admit {
    Queued,
    Busy(u32),
    Rejected {
        msg: String,
        /// Pre-rendered `xsfq-lint-diags/1` JSON array; `[]` for
        /// rejections that carry no lint findings.
        diags: String,
    },
}

impl Admit {
    fn rejected(msg: impl Into<String>) -> Admit {
        Admit::Rejected {
            msg: msg.into(),
            diags: "[]".into(),
        }
    }
}

/// The single admission path: validate, make durable, enqueue. Shared by
/// TCP submissions, directory drops, and journal recovery (`recovered`
/// jobs skip re-journaling — their `S` record already exists).
fn admit(sh: &Arc<Shared>, request: SubmitRequest, sink: JobSink, recovered: Option<u64>) -> Admit {
    if sh.draining.load(Ordering::SeqCst) && recovered.is_none() {
        return Admit::Busy(busy_hint_ms(sh.queue.ready_len()));
    }
    if let Some(f) = request.fault {
        if !(1..=3).contains(&f.kind) {
            return Admit::rejected(format!("unknown fault kind {}", f.kind));
        }
        if !cfg!(feature = "chaos") {
            return Admit::rejected("fault injection requires a chaos build");
        }
    }
    let script = if request.script.is_empty() {
        sh.default_script.clone()
    } else {
        request.script.clone()
    };
    if let Err(e) = Script::parse(&script) {
        return Admit::rejected(format!("bad script: {e}"));
    }
    // Admission-time lint: a submission that parses but is structurally
    // ill-formed (duplicate ports, output shadowing an input, …) would
    // fail deep inside the flow — or worse, synthesize a netlist with
    // colliding dual-rail port names. Reject it here with the findings
    // attached. Bytes that do not parse at all stay on the in-job path,
    // which answers with the richer per-format `parse` verdict.
    if sh.check >= CheckLevel::Stage {
        if let Ok(aig) = read_netlist_auto(&request.data) {
            let diags = lint_aig(&aig);
            if has_errors(&diags) {
                return Admit::Rejected {
                    msg: format!("submission failed lint with {} finding(s)", diags.len()),
                    diags: render_json(&diags),
                };
            }
        }
    }
    let id = match recovered {
        Some(id) => id,
        None => {
            let id = sh.journal.next_id();
            let dir_base = match &sink {
                JobSink::Dir { base } => Some(base.as_path()),
                _ => None,
            };
            // Durability before acceptance: a job the client saw admitted
            // must be recoverable. A journal write failure refuses the job.
            if let Err(e) = sh.journal.record_submit(id, &request, dir_base) {
                return Admit::rejected(format!("journal write failed: {e}"));
            }
            id
        }
    };
    let job = Job {
        id,
        name: request.name,
        script,
        data: request.data,
        fault: request.fault,
        sink,
        attempt: 0,
    };
    let pushed = if recovered.is_some() {
        // Recovered jobs were accepted by a previous incarnation; they
        // bypass the capacity check like retries do.
        sh.queue.push_retry(job, Duration::ZERO)
    } else {
        sh.queue.try_push(job)
    };
    match pushed {
        Ok(()) => {
            // Ordering: Relaxed — stats counters are monotonic telemetry;
            // any cross-thread invariant (e.g. "counter bumped before the
            // journal's D record is observable") rides on the journal's
            // lock, never on the counters' own ordering. Pinned by the
            // serve model_gate's PR-7 regression pair.
            sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
            Admit::Queued
        }
        Err(job) => {
            // Ordering: Relaxed — telemetry, see above.
            sh.stats.shed.fetch_add(1, Ordering::Relaxed);
            let _ = sh.journal.record_done(job.id, "shed");
            Admit::Busy(busy_hint_ms(sh.queue.ready_len()))
        }
    }
}

/// Send a finished job's response to wherever it goes.
fn deliver(sink: &JobSink, kind: u8, body: &[u8]) {
    match sink {
        JobSink::Tcp(tx) => {
            // A send error means the client hung up; the work is still
            // journaled and cached, which is all at-least-once promises.
            let _ = tx.send((kind, body.to_vec()));
        }
        JobSink::Dir { base } => {
            let write = |path: PathBuf, bytes: &[u8]| {
                if let Some(parent) = path.parent() {
                    let _ = fs::create_dir_all(parent);
                }
                let _ = fs::write(path, bytes);
            };
            match protocol::decode_response(kind, body) {
                Ok(protocol::Response::Ok {
                    netlist, report, ..
                }) => {
                    write(base.with_extension("v"), &netlist);
                    write(base.with_extension("json"), &report);
                }
                Ok(protocol::Response::Err { verdict, .. }) => {
                    write(base.with_extension("err.json"), &verdict);
                }
                _ => {}
            }
        }
        JobSink::Discard => {}
    }
}

/// Settle a successful job: counters, then journal, then response — so
/// anyone who observes the durable `D` record (or reacts to the response)
/// already sees the updated stats.
fn finish_ok(sh: &Shared, job: &Job, body: &[u8]) {
    // Ordering: Relaxed — the counter-before-journal *program* order is
    // what carries the invariant (observers of the durable D record see
    // the bump via the journal's lock); the counter itself publishes
    // nothing. The serve model_gate PR-7 regression pins this shape.
    sh.stats.completed.fetch_add(1, Ordering::Relaxed);
    let _ = sh.journal.record_done(job.id, "ok");
    deliver(&job.sink, KIND_OK, body);
}

/// Settle a failed job the same way.
fn finish_err(sh: &Shared, job: &Job, kind: &str, verdict: &str) {
    // Ordering: Relaxed — same counter-before-journal shape as finish_ok.
    sh.stats.failed.fetch_add(1, Ordering::Relaxed);
    let _ = sh.journal.record_done(job.id, "err");
    deliver(
        &job.sink,
        KIND_ERR,
        &protocol::encode_err(kind, verdict.as_bytes()),
    );
}

/// Run one job to a terminal state (or requeue it for retry).
fn process(sh: &Arc<Shared>, pool: &ThreadPool, arenas: &mut PassArenas, mut job: Job) {
    let aig = match read_netlist_auto(&job.data) {
        Ok(aig) => aig,
        Err(e) => {
            let v = verdict_json("parse", &job.name, None, job.attempt, 0, &e.to_string());
            finish_err(sh, &job, "parse", &v);
            return;
        }
    };
    if job.name.is_empty() {
        job.name = aig.name().to_string();
    }
    // Fault-injected jobs bypass the cache in both directions: a hit would
    // skip synthesis — and the requested fault with it — and a faulted
    // run's output must never be served to healthy resubmissions.
    let faulted = job.fault.is_some();
    let key = CacheKey {
        digest: canonical_digest(&aig),
        script: job.script.clone(),
        guards: sh.guard_fp.clone(),
    };
    if !faulted {
        if let Some(segments) = sh.cache.get(&key) {
            finish_ok(sh, &job, &protocol::encode_ok_body(true, &segments));
            return;
        }
    }

    let mut flow = match SynthesisFlow::new()
        .guards(sh.guards.clone())
        .check(sh.check)
        .cancel_token(sh.cancel.clone())
        .script_str(&job.script)
    {
        Ok(flow) => flow,
        // Admission validated the script, so this only fires when a
        // recovered spool carries a script a newer build rejects.
        Err(e) => {
            let v = verdict_json("script", &job.name, None, job.attempt, 0, &e.to_string());
            finish_err(sh, &job, "script", &v);
            return;
        }
    };
    if let Some(d) = sh.job_deadline {
        flow = flow.job_deadline(d);
    }
    if let Some(t) = &sh.timing {
        flow = flow.timing(t.clone());
    }
    #[cfg(feature = "chaos")]
    if let Some(f) = job.fault {
        use xsfq_aig::chaos::{FaultKind, FaultPlan};
        let kind = match f.kind {
            1 => FaultKind::Panic,
            2 => FaultKind::Stall,
            _ => FaultKind::GuardTrip,
        };
        flow = flow.chaos_plan(FaultPlan::new().fault(0, f.pass as usize, kind));
    }

    // Tiny designs take the sequential path: the budget guard drops at the
    // end of the job, restoring the shard's full parallelism.
    let _budget = (aig.num_ands() < SMALL_JOB_ANDS).then(|| pool.scoped_budget(1));
    match flow.run_job(&aig, pool, arenas) {
        Ok(result) => {
            let mut netlist = Vec::new();
            write_verilog(result.netlist(), &mut netlist).expect("write netlist to memory");
            let report = result.report.to_json();
            let segments = protocol::encode_result_segments(&netlist, report.as_bytes());
            if !faulted {
                sh.cache.put(key, segments.clone());
            }
            finish_ok(sh, &job, &protocol::encode_ok_body(false, &segments));
        }
        Err(e) => {
            if e.kind.is_transient() && job.attempt < sh.retry_limit {
                job.attempt += 1;
                let backoff = sh
                    .retry_base
                    .saturating_mul(1u32 << (job.attempt - 1).min(16));
                // Ordering: Relaxed — telemetry counter (see admit).
                sh.stats.retries.fetch_add(1, Ordering::Relaxed);
                match sh.queue.push_retry(job, backoff) {
                    Ok(()) => return,
                    // Queue closed mid-drain: fail the job as cancelled.
                    Err(back) => job = back,
                }
            }
            let kind = e.kind.name();
            let v = verdict_json(
                kind,
                &job.name,
                e.pass.as_deref(),
                job.attempt,
                e.elapsed.as_millis() as u64,
                &e.to_string(),
            );
            finish_err(sh, &job, kind, &v);
        }
    }
}

fn worker_loop(sh: Arc<Shared>) {
    let pool = ThreadPool::new(sh.threads_per_job);
    // Warm arenas live for the shard's lifetime: every job after the first
    // reuses the cut arena and synthesis memo tables.
    let mut arenas = PassArenas::default();
    while let Some(job) = sh.queue.pop() {
        // The shard thread must survive any single job: a panic that
        // escapes `process` (e.g. a parser bug on untrusted input) would
        // otherwise kill the shard, and — because the job never reaches a
        // terminal journal state — replay and kill another one on every
        // restart. Catch it, settle the job as failed, and move on.
        let (id, name, attempt, sink) = (job.id, job.name.clone(), job.attempt, job.sink.clone());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            process(&sh, &pool, &mut arenas, job);
        }));
        if let Err(payload) = outcome {
            // The arenas were abandoned mid-pass; start fresh rather than
            // trust their internal invariants.
            arenas = PassArenas::default();
            let detail = panic_message(payload.as_ref());
            let v = verdict_json("panicked", &name, None, attempt, 0, &detail);
            // Ordering: Relaxed — counter-before-journal, as finish_err.
            sh.stats.failed.fetch_add(1, Ordering::Relaxed);
            let _ = sh.journal.record_done(id, "err");
            deliver(
                &sink,
                KIND_ERR,
                &protocol::encode_err("panicked", v.as_bytes()),
            );
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job processing panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job processing panicked: {s}")
    } else {
        "job processing panicked".into()
    }
}

fn stats_json(sh: &Shared) -> String {
    let (hits, misses, entries, bytes) = sh.cache.stats();
    format!(
        "{{\"schema\":\"xsfq-serve-stats/1\",\"accepted\":{},\"completed\":{},\
         \"failed\":{},\"shed\":{},\"retries\":{},\"recovered\":{},\
         \"queue_len\":{},\"draining\":{},\"cache\":{{\"hits\":{hits},\
         \"misses\":{misses},\"entries\":{entries},\"bytes\":{bytes}}}}}",
        // Ordering: Relaxed — stats snapshot; counts racing in from jobs
        // settling concurrently may land on either side of the frame, and
        // either answer is correct telemetry.
        sh.stats.accepted.load(Ordering::Relaxed),
        sh.stats.completed.load(Ordering::Relaxed),
        sh.stats.failed.load(Ordering::Relaxed),
        sh.stats.shed.load(Ordering::Relaxed),
        sh.stats.retries.load(Ordering::Relaxed),
        sh.stats.recovered.load(Ordering::Relaxed),
        sh.queue.ready_len(),
        sh.draining.load(Ordering::SeqCst),
    )
}

fn connection(sh: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF or framing error: either way the stream is done.
            _ => return,
        };
        match kind {
            KIND_PING => {
                if write_frame(&mut stream, KIND_PONG, &[]).is_err() {
                    return;
                }
            }
            KIND_STATS => {
                if write_frame(&mut stream, KIND_STATS_OK, stats_json(sh).as_bytes()).is_err() {
                    return;
                }
            }
            KIND_SUBMIT => {
                let reject = |stream: &mut TcpStream, msg: &str, diags: &str| {
                    let v = verdict_json_diags("rejected", "", None, 0, 0, msg, diags);
                    write_frame(
                        stream,
                        KIND_ERR,
                        &protocol::encode_err("rejected", v.as_bytes()),
                    )
                };
                let request = match SubmitRequest::decode(&payload) {
                    Ok(r) => r,
                    Err(e) => {
                        let _ = reject(&mut stream, &format!("bad submit payload: {e}"), "[]");
                        return;
                    }
                };
                let (tx, rx) = mpsc::channel();
                match admit(sh, request, JobSink::Tcp(tx), None) {
                    Admit::Queued => match rx.recv() {
                        Ok((kind, body)) => {
                            if write_frame(&mut stream, kind, &body).is_err() {
                                return;
                            }
                        }
                        Err(_) => {
                            let _ = reject(&mut stream, "server shut down mid-job", "[]");
                            return;
                        }
                    },
                    Admit::Busy(ms) => {
                        if write_frame(&mut stream, KIND_BUSY, &ms.to_be_bytes()).is_err() {
                            return;
                        }
                    }
                    Admit::Rejected { msg, diags } => {
                        if reject(&mut stream, &msg, &diags).is_err() {
                            return;
                        }
                    }
                }
            }
            _ => return, // unknown request kind: drop the connection
        }
    }
}

fn accept_loop(sh: Arc<Shared>, listener: TcpListener) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    while !sh.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let live = sh.connections.fetch_add(1, Ordering::SeqCst) + 1;
                if live > sh.max_connections {
                    sh.connections.fetch_sub(1, Ordering::SeqCst);
                    let mut stream = stream;
                    let _ = stream.set_nonblocking(false);
                    let _ = write_frame(&mut stream, KIND_BUSY, &1000u32.to_be_bytes());
                    continue;
                }
                stream.set_nonblocking(false).expect("blocking stream");
                // Request-response frames; Nagle would only add
                // delayed-ACK latency per exchange.
                let _ = stream.set_nodelay(true);
                let sh = Arc::clone(&sh);
                // Connection threads are detached: they exit on client
                // EOF. Shutdown does not wait for idle keep-alives.
                thread::spawn(move || {
                    connection(&sh, stream);
                    sh.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

const WATCH_EXTENSIONS: [&str; 3] = ["blif", "aag", "aig"];

fn watcher_loop(sh: Arc<Shared>, watch_dir: PathBuf, out_dir: PathBuf) {
    // A file is ingested only after its size is stable across two polls,
    // so a writer mid-copy is left alone.
    let mut sizes: HashMap<PathBuf, u64> = HashMap::new();
    while !sh.stop.load(Ordering::SeqCst) {
        let entries: Vec<PathBuf> = fs::read_dir(&watch_dir)
            .map(|rd| {
                rd.flatten()
                    .map(|e| e.path())
                    .filter(|p| {
                        p.extension()
                            .and_then(|e| e.to_str())
                            .is_some_and(|e| WATCH_EXTENSIONS.contains(&e))
                    })
                    .collect()
            })
            .unwrap_or_default();
        // Files that vanished between polls (consumed by another process,
        // deleted by the user) must not pin map entries forever.
        sizes.retain(|p, _| entries.contains(p));
        for path in entries {
            let Ok(meta) = fs::metadata(&path) else {
                continue;
            };
            if meta.len() == 0 {
                continue;
            }
            if sizes.get(&path) != Some(&meta.len()) {
                sizes.insert(path.clone(), meta.len());
                continue;
            }
            let Ok(data) = fs::read(&path) else { continue };
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("job")
                .to_string();
            let request = SubmitRequest {
                script: String::new(),
                name: stem.clone(),
                data,
                fault: None,
            };
            let base = out_dir.join(&stem);
            match admit(&sh, request, JobSink::Dir { base: base.clone() }, None) {
                Admit::Queued => {
                    let _ = fs::remove_file(&path);
                    sizes.remove(&path);
                }
                // Queue full: leave the file in place, retry next poll.
                Admit::Busy(_) => {}
                Admit::Rejected { msg, diags } => {
                    let v = verdict_json_diags("rejected", &stem, None, 0, 0, &msg, &diags);
                    if let Some(parent) = base.parent() {
                        let _ = fs::create_dir_all(parent);
                    }
                    let _ = fs::write(base.with_extension("err.json"), v);
                    let _ = fs::remove_file(&path);
                    sizes.remove(&path);
                }
            }
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] leaks its
/// threads (they keep serving) — always shut down or let the process exit.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    drain_grace: Duration,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the daemon: open + replay the journal, requeue incomplete
    /// jobs, bind the listener, spawn shards and watchers.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        fs::create_dir_all(&cfg.state_dir)?;
        let out_dir = cfg
            .out_dir
            .clone()
            .unwrap_or_else(|| cfg.state_dir.join("results"));
        let (journal, recovered) = Journal::open(&cfg.state_dir)?;
        let guard_fp = format!(
            "guards={:?};deadline={:?};check={:?};timing={:?};script-defaults=v1",
            cfg.guards, cfg.job_deadline, cfg.check, cfg.timing
        );
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            journal,
            cache: ResultCache::new(cfg.cache_budget),
            stats: Stats::default(),
            cancel: CancelToken::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            max_connections: cfg.max_connections,
            threads_per_job: cfg.threads_per_job.max(1),
            retry_limit: cfg.retry_limit,
            retry_base: cfg.retry_base,
            job_deadline: cfg.job_deadline,
            guards: cfg.guards.clone(),
            check: cfg.check,
            timing: cfg.timing.clone(),
            guard_fp,
            default_script: cfg.default_script.clone(),
        });

        // Requeue everything the previous incarnation accepted but never
        // finished. TCP jobs' clients are gone: they re-run for the cache
        // and the journal's completion record. Directory jobs still write
        // their result files.
        for r in recovered {
            let sink = match r.dir_base {
                Some(base) => JobSink::Dir { base },
                None => JobSink::Discard,
            };
            // Ordering: Relaxed — telemetry counter (see admit).
            shared.stats.recovered.fetch_add(1, Ordering::Relaxed);
            let (id, name) = (r.id, r.request.name.clone());
            match admit(&shared, r.request, sink.clone(), Some(r.id)) {
                Admit::Queued => {}
                // Recovered jobs bypass the capacity check and drain never
                // starts before recovery, so Busy is unreachable; if it
                // ever fires, admit has already journaled the job as shed.
                Admit::Busy(_) => {}
                // A spool this build no longer accepts (script rejected by
                // a newer parser, fault spec on a non-chaos build) must
                // still reach a terminal journal state, or it replays and
                // is re-rejected at every startup and its spool file is
                // never reclaimed.
                Admit::Rejected { msg, diags } => {
                    // Ordering: Relaxed — counter-before-journal, as
                    // finish_err.
                    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = shared.journal.record_done(id, "err");
                    let v = verdict_json_diags("rejected", &name, None, 0, 0, &msg, &diags);
                    deliver(
                        &sink,
                        KIND_ERR,
                        &protocol::encode_err("rejected", v.as_bytes()),
                    );
                }
            }
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let workers = (0..cfg.shards.max(1))
            .map(|shard| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("xsfq-serve-shard-{shard}"))
                    .spawn(move || worker_loop(sh))
                    .expect("spawn shard worker")
            })
            .collect();
        let accept = {
            let sh = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("xsfq-serve-accept".into())
                    .spawn(move || accept_loop(sh, listener))
                    .expect("spawn accept loop"),
            )
        };
        let watcher = cfg.watch_dir.clone().map(|dir| {
            fs::create_dir_all(&dir).ok();
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("xsfq-serve-watch".into())
                .spawn(move || watcher_loop(sh, dir, out_dir))
                .expect("spawn watcher")
        });

        Ok(Server {
            shared,
            local_addr,
            drain_grace: cfg.drain_grace,
            workers,
            accept,
            watcher,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful drain: stop admitting (new submissions get BUSY), let
    /// queued + in-flight jobs finish, cancel whatever is still running
    /// after the grace period, flush the journal, join every thread.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        {
            let cancel = self.shared.cancel.clone();
            let grace = self.drain_grace;
            // Detached on purpose: joining would stall shutdown for the
            // full grace even when the queue drains instantly.
            thread::spawn(move || {
                thread::sleep(grace);
                cancel.cancel();
            });
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.watcher.take() {
            let _ = t.join();
        }
    }
}
