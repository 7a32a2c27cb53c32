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
use xsfq_aig::Aig;
use xsfq_core::SynthesisFlow;
use xsfq_exec::{panic_message, CancelToken, ThreadPool};
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
    /// flow stages. `Off` skips both; admission still parses every
    /// submission and answers unparsable bytes with a `parse` verdict.
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

/// A failure verdict before it is rendered as `xsfq-serve-verdict/1`
/// JSON (see [`verdict_json`]).
struct Verdict {
    kind: &'static str,
    pass: Option<String>,
    elapsed_ms: u64,
    detail: String,
    /// Pre-rendered `xsfq-lint-diags/1` JSON array (see [`render_json`]);
    /// `[]` for verdicts that carry no lint findings.
    diags: String,
}

impl Verdict {
    fn new(kind: &'static str, detail: impl Into<String>) -> Verdict {
        Verdict {
            kind,
            pass: None,
            elapsed_ms: 0,
            detail: detail.into(),
            diags: "[]".into(),
        }
    }
}

/// The structured failure verdict (`xsfq-serve-verdict/1`).
fn verdict_json(v: &Verdict, name: &str, attempts: u32) -> String {
    let pass = match &v.pass {
        Some(p) => format!("\"{}\"", json_escape(p)),
        None => "null".into(),
    };
    format!(
        "{{\"schema\":\"xsfq-serve-verdict/1\",\"name\":\"{}\",\"kind\":\"{}\",\
         \"pass\":{},\"attempts\":{},\"elapsed_ms\":{},\"detail\":\"{}\",\"diags\":{}}}",
        json_escape(name),
        json_escape(v.kind),
        pass,
        attempts,
        v.elapsed_ms,
        json_escape(&v.detail),
        v.diags
    )
}

fn busy_hint_ms(queue_len: usize) -> u32 {
    (50 + 25 * queue_len as u32).min(2000)
}

/// How a submission ended.
enum Outcome<'a> {
    /// Synthesized, or replayed from the cache: the encoded result
    /// segments (see [`protocol::encode_result_segments`]).
    Ok { cache_hit: bool, segments: &'a [u8] },
    /// Failed or refused.
    Err(Verdict),
    /// Shed: resubmit after the hinted delay in milliseconds.
    Busy(u32),
}

/// Settle a submission: the one place an outcome becomes an answer.
/// Counters first, so anyone who observes the durable record, or reacts to
/// the answer, already sees the updated stats. Then a directory answer's
/// result files, then the `D` record (only for journaled submissions, `id`
/// set), then a TCP answer: a crash before the `D` record replays the job
/// and rewrites its files, while one after it finds them already written.
fn settle(
    sh: &Shared,
    sink: &JobSink,
    id: Option<u64>,
    name: &str,
    attempt: u32,
    outcome: Outcome,
) {
    let (counter, status) = match &outcome {
        Outcome::Ok { .. } => (Some(&sh.stats.completed), "ok"),
        // A fresh submission refused at admission never became a job.
        Outcome::Err(v) if v.kind == "rejected" && id.is_none() => (None, "err"),
        Outcome::Err(_) => (Some(&sh.stats.failed), "err"),
        // Shedding counts only jobs already journaled; a drain refuses
        // submissions before that.
        Outcome::Busy(_) => (id.map(|_| &sh.stats.shed), "shed"),
    };
    if let Some(counter) = counter {
        // Ordering: Relaxed — the counter-before-journal *program* order
        // is what carries the invariant (observers of the durable D record
        // see the bump via the journal's lock); the counter itself
        // publishes nothing. The stats-vs-journal regression in the serve
        // model_gate pins this shape.
        counter.fetch_add(1, Ordering::Relaxed);
    }
    if let JobSink::Dir { base } = sink {
        let write = |extension: &str, bytes: &[u8]| {
            if let Some(parent) = base.parent() {
                let _ = fs::create_dir_all(parent);
            }
            let _ = fs::write(base.with_extension(extension), bytes);
        };
        match &outcome {
            Outcome::Ok { segments, .. } => {
                if let Ok((netlist, report)) = protocol::split_result_segments(segments) {
                    write("v", netlist);
                    write("json", report);
                }
            }
            Outcome::Err(v) => write("err.json", verdict_json(v, name, attempt).as_bytes()),
            // The watcher keeps a shed file for its next poll.
            Outcome::Busy(_) => {}
        }
    }
    if let Some(id) = id {
        let _ = sh.journal.record_done(id, status);
    }
    if let JobSink::Tcp(tx) = sink {
        let frame = match &outcome {
            Outcome::Ok {
                cache_hit,
                segments,
            } => (KIND_OK, protocol::encode_ok_body(*cache_hit, segments)),
            Outcome::Err(v) => (
                KIND_ERR,
                protocol::encode_err(v.kind, verdict_json(v, name, attempt).as_bytes()),
            ),
            Outcome::Busy(ms) => (KIND_BUSY, ms.to_be_bytes().to_vec()),
        };
        // A send error means the client hung up; a miss is still journaled
        // and cached, which is all at-least-once promises.
        let _ = tx.send(frame);
    }
}

/// Read a submission, once: check its fault request, parse its script
/// and netlist, lint the design (at `Stage` and above) and compute its
/// result-cache key.
fn read_submission(
    sh: &Shared,
    request: &SubmitRequest,
) -> Result<(Aig, Script, CacheKey), Verdict> {
    if let Some(f) = request.fault {
        if !(1..=3).contains(&f.kind) {
            return Err(Verdict::new(
                "rejected",
                format!("unknown fault kind {}", f.kind),
            ));
        }
        if !cfg!(feature = "chaos") {
            return Err(Verdict::new(
                "rejected",
                "fault injection requires a chaos build",
            ));
        }
    }
    let text = if request.script.is_empty() {
        &sh.default_script
    } else {
        &request.script
    };
    let script =
        Script::parse(text).map_err(|e| Verdict::new("rejected", format!("bad script: {e}")))?;
    let aig = read_netlist_auto(&request.data).map_err(|e| Verdict::new("parse", e.to_string()))?;
    // A submission that parses but is structurally ill-formed (duplicate
    // ports, output shadowing an input, …) would fail deep inside the flow
    // — or worse, synthesize a netlist with colliding dual-rail port
    // names. Reject it here with the findings attached.
    if sh.check >= CheckLevel::Stage {
        let diags = lint_aig(&aig);
        if has_errors(&diags) {
            return Err(Verdict {
                diags: render_json(&diags),
                ..Verdict::new(
                    "rejected",
                    format!("submission failed lint with {} finding(s)", diags.len()),
                )
            });
        }
    }
    let key = CacheKey {
        digest: canonical_digest(&aig),
        script: text.clone(),
        guards: sh.guard_fp.clone(),
    };
    Ok((aig, script, key))
}

/// The single admission path, shared by TCP submissions, directory drops
/// and journal recovery: read the submission, probe the result cache, and
/// answer a hit on the spot through `sink`; otherwise make the job durable
/// and enqueue it. A hit is not journaled: it is fully answered before
/// `admit` returns, so there is nothing to recover. Recovered jobs keep
/// their journal id and skip re-journaling (their `S` record already
/// exists), so even a recovered hit gets its terminal record. Returns
/// false when the submission was shed with BUSY.
fn admit(sh: &Shared, request: SubmitRequest, sink: JobSink, recovered: Option<u64>) -> bool {
    if sh.draining.load(Ordering::SeqCst) && recovered.is_none() {
        let hint = busy_hint_ms(sh.queue.ready_len());
        settle(sh, &sink, None, &request.name, 0, Outcome::Busy(hint));
        return false;
    }
    let (aig, script, key) = match read_submission(sh, &request) {
        Ok(read) => read,
        Err(v) => {
            settle(sh, &sink, recovered, &request.name, 0, Outcome::Err(v));
            return true;
        }
    };
    // The only cache probe, so each submission counts once in the cache's
    // hit/miss stats. Fault-injected requests bypass the cache in both
    // directions: a hit would skip synthesis — and the requested fault
    // with it — and a faulted run's output is never cached (see `process`).
    if request.fault.is_none() {
        if let Some(segments) = sh.cache.get(&key) {
            // Ordering: Relaxed — telemetry counter; settle's counter-
            // before-journal order covers the recovered hit's D record.
            sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
            let hit = Outcome::Ok {
                cache_hit: true,
                segments: &segments,
            };
            settle(sh, &sink, recovered, &request.name, 0, hit);
            return true;
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
                let v = Verdict::new("rejected", format!("journal write failed: {e}"));
                settle(sh, &sink, None, &request.name, 0, Outcome::Err(v));
                return true;
            }
            id
        }
    };
    let name = if request.name.is_empty() {
        aig.name().to_string()
    } else {
        request.name
    };
    let job = Job {
        id,
        name,
        aig: Box::new(aig),
        script,
        key: Box::new(key),
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
            // any cross-thread invariant rides on the journal's lock, see
            // settle.
            sh.stats.accepted.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(job) => {
            let shed = Outcome::Busy(busy_hint_ms(sh.queue.ready_len()));
            settle(sh, &job.sink, Some(job.id), &job.name, 0, shed);
            false
        }
    }
}

/// Run one admitted job to a terminal state (or requeue it for retry):
/// synthesize it and cache the result. Admission already answered every
/// cache hit, so a job here is a miss (or a fault-injected run).
fn process(sh: &Shared, pool: &ThreadPool, arenas: &mut PassArenas, mut job: Job) {
    let mut flow = SynthesisFlow::new()
        .guards(sh.guards.clone())
        .check(sh.check)
        .cancel_token(sh.cancel.clone())
        .script(job.script.clone());
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
    let _budget = (job.aig.num_ands() < SMALL_JOB_ANDS).then(|| pool.scoped_budget(1));
    match flow.run_job(&job.aig, pool, arenas) {
        Ok(result) => {
            let mut netlist = Vec::new();
            write_verilog(result.netlist(), &mut netlist).expect("write netlist to memory");
            let report = result.report.to_json();
            let segments = protocol::encode_result_segments(&netlist, report.as_bytes());
            // A faulted run's output must never be served to healthy
            // resubmissions.
            if job.fault.is_none() {
                sh.cache.put((*job.key).clone(), segments.clone());
            }
            let done = Outcome::Ok {
                cache_hit: false,
                segments: &segments,
            };
            settle(sh, &job.sink, Some(job.id), &job.name, job.attempt, done);
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
            let failed = Outcome::Err(Verdict {
                pass: e.pass.clone(),
                elapsed_ms: e.elapsed.as_millis() as u64,
                ..Verdict::new(e.kind.name(), e.to_string())
            });
            settle(sh, &job.sink, Some(job.id), &job.name, job.attempt, failed);
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
        // escapes `process` (e.g. a flow bug on some design) would
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
            let detail = format!(
                "job processing panicked: {}",
                panic_message(payload.as_ref())
            );
            let v = Verdict::new("panicked", detail);
            settle(&sh, &sink, Some(id), &name, attempt, Outcome::Err(v));
        }
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
                let (tx, rx) = mpsc::channel();
                let sink = JobSink::Tcp(tx);
                let decoded = SubmitRequest::decode(&payload);
                let keep_open = decoded.is_ok();
                match decoded {
                    Ok(request) => {
                        admit(sh, request, sink, None);
                    }
                    Err(e) => {
                        let v = Verdict::new("rejected", format!("bad submit payload: {e}"));
                        settle(sh, &sink, None, "", 0, Outcome::Err(v));
                    }
                }
                // Every submission is answered through its sink: at
                // admission, or by the shard that settles the job. Relay
                // that answer; a payload that did not decode ends the
                // connection after its answer.
                let Ok((kind, body)) = rx.recv() else { return };
                if write_frame(&mut stream, kind, &body).is_err() || !keep_open {
                    return;
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
            let sink = JobSink::Dir {
                base: out_dir.join(&stem),
            };
            let request = SubmitRequest {
                script: String::new(),
                name: stem,
                data,
                fault: None,
            };
            // A shed file stays in place for the next poll; any other
            // answer consumes it.
            if admit(&sh, request, sink, None) {
                let _ = fs::remove_file(&path);
                sizes.remove(&path);
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
            // Recovery re-admits: a spool this build no longer accepts
            // (a script or netlist it cannot read, a fault spec on a
            // non-chaos build) is settled there with a terminal journal
            // record, so it never replays again.
            admit(&shared, r.request, sink, Some(r.id));
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
