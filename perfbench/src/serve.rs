//! `serve_mixed`: a fresh in-process daemon with its default
//! configuration, driven by a closed loop of two blocking clients (one
//! connection each, no think time).
//!
//! The traffic comes in rounds. Every round is the same multiset, in a
//! seeded order: each circuit once under a fresh `.model` name (a cold
//! miss: new digest, full flow), each circuit three times rewritten into
//! a canonically equal BLIF (a hot hit on the warm-up copy: renamed
//! internal signals, permuted `.names` order, and both), four submissions that
//! fail lint at admission and three that do not parse — about 24% / 71% /
//! 5%. The mix is assumed traffic, not measured traffic, so only the
//! throughput metrics (`suite_s`, one round, and `designs_per_s`) depend
//! on it; the latency metrics are per class and per circuit. AIGER copies
//! are left out: the AIGER reader names every design `aiger`, and the
//! digest covers the name, so an AIGER copy of a BLIF design never hits.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use xsfq_aig::digest::canonical_digest;
use xsfq_aig::io::{read_netlist_auto, write_blif};
use xsfq_aig::pass::PassArenas;
use xsfq_aig::Aig;
use xsfq_core::{FlowReport, FlowResult, SynthesisFlow, TimingOptions};
use xsfq_exec::ThreadPool;
use xsfq_lint::{has_errors, lint_aig, render_json};
use xsfq_netlist::writers::write_verilog;
use xsfq_serve::cache::{CacheKey, ResultCache};
use xsfq_serve::journal::Journal;
use xsfq_serve::protocol::{
    decode_response, encode_err, encode_ok_body, encode_result_segments, Response, SubmitRequest,
    KIND_ERR, KIND_OK,
};
use xsfq_serve::{Client, ServeConfig, Server};

use crate::host::Host;
use crate::replay;
use crate::stats::{self, Rng};
use crate::trace::{Open, Tracer};
use crate::{Args, Outcome, SETUP_REPS};
/// Closed-loop clients (= the container's CPUs).
const CLIENTS: usize = 2;
const REJECTED_PER_ROUND: usize = 4;
const UNPARSABLE_PER_ROUND: usize = 3;
/// The daemon runs designs under this many ANDs on one thread.
const SMALL_JOB_ANDS: usize = 512;
/// Report fields a miss must share with the in-process reference.
const QOR_FIELDS: &[&str] = &[
    "aig_nodes",
    "aig_depth",
    "la_fa",
    "splitters",
    "drocs_plain",
    "drocs_preload",
    "jj_total",
    "jj_clock_tree",
    "depth_logic",
    "depth_with_splitters",
];

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    Miss,
    Rejected,
    Unparsable,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Rejected => "rejected",
            Class::Unparsable => "unparsable",
        }
    }
}

struct Request {
    class: Class,
    /// Index into the circuits; unused for ill-formed requests.
    circuit: usize,
    submit: SubmitRequest,
}

struct Circuit {
    name: &'static str,
    blif: String,
    /// `QOR_FIELDS` of the in-process `run_job` reference.
    reference: Vec<u64>,
    /// JTLs full balancing inserts into the reference netlist.
    jtl_need: u64,
    baseline_jj: u64,
}

/// One answered request of the daemon phase.
struct Answer {
    class: Class,
    circuit: usize,
    latency_ms: f64,
    ok: bool,
}

fn submit(data: Vec<u8>) -> SubmitRequest {
    SubmitRequest {
        script: String::new(),
        name: String::new(),
        data,
        fault: None,
    }
}

fn blif_of(aig: &Aig) -> String {
    let mut out = Vec::new();
    write_blif(aig, &mut out).expect("write to memory");
    String::from_utf8(out).expect("BLIF is text")
}

/// The unsigned integer after `"key":` in a flat JSON text.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn qor_fields(report: &FlowReport) -> Vec<u64> {
    let json = report.to_json();
    QOR_FIELDS
        .iter()
        .map(|k| json_u64(&json, k).expect("flow report carries its QoR fields"))
        .collect()
}

/// Rename every internal signal; ports and latch outputs (the latch
/// names) keep theirs, as the digest covers them.
fn rename_internal(blif: &str, rng: &mut Rng) -> String {
    let mut keep: HashSet<&str> = HashSet::new();
    for line in blif.lines() {
        let mut t = line.split_whitespace();
        match t.next() {
            Some(".inputs" | ".outputs") => keep.extend(t),
            Some(".latch") => keep.extend(t.nth(1)),
            _ => {}
        }
    }
    let salt = rng.next_u64();
    let mut names: HashMap<&str, String> = HashMap::new();
    let mut out = String::with_capacity(blif.len() * 2);
    for line in blif.lines() {
        let mut t = line.split_whitespace();
        match t.next() {
            Some(head @ (".names" | ".latch")) => {
                out.push_str(head);
                for (k, tok) in t.enumerate() {
                    out.push(' ');
                    // Of `.latch <in> <out> <type> <clk> <init>` only the
                    // data input is an internal signal.
                    if keep.contains(tok) || (head == ".latch" && k > 0) {
                        out.push_str(tok);
                    } else {
                        let next = names.len();
                        out.push_str(
                            names
                                .entry(tok)
                                .or_insert_with(|| format!("w{salt:x}_{next}")),
                        );
                    }
                }
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Shuffle the `.names` blocks; the reader elaborates them in dependency
/// order, so the AIG's node order changes and its function does not.
fn permute_blocks(blif: &str, rng: &mut Rng) -> String {
    let mut header = String::new();
    let mut blocks: Vec<String> = Vec::new();
    for line in blif.lines() {
        if line.starts_with(".names") {
            blocks.push(format!("{line}\n"));
        } else if line.starts_with('.') {
            if line != ".end" {
                header.push_str(line);
                header.push('\n');
            }
        } else if let Some(block) = blocks.last_mut() {
            block.push_str(line);
            block.push('\n');
        }
    }
    rng.shuffle(&mut blocks);
    header + &blocks.concat() + ".end\n"
}

fn round_requests(round: u32, circuits: &[(Aig, Circuit)], rng: &mut Rng) -> Vec<Request> {
    let mut reqs = Vec::new();
    for (i, (aig, c)) in circuits.iter().enumerate() {
        let mut renamed = aig.clone();
        renamed.set_name(format!("{}_r{round}", c.name));
        reqs.push(Request {
            class: Class::Miss,
            circuit: i,
            submit: submit(blif_of(&renamed).into_bytes()),
        });
        // Renamed, permuted, and both: a fixed mix of rewrites.
        let renamed = rename_internal(&c.blif, rng);
        let both = permute_blocks(&rename_internal(&c.blif, rng), rng);
        for text in [renamed, permute_blocks(&c.blif, rng), both] {
            reqs.push(Request {
                class: Class::Hit,
                circuit: i,
                submit: submit(text.into_bytes()),
            });
        }
    }
    for k in 0..REJECTED_PER_ROUND {
        // A duplicate input port, or an output shadowing an input: both
        // parse, both fail lint (X008).
        let ports = if k % 2 == 0 {
            "a b a\n.outputs y"
        } else {
            "a b\n.outputs a"
        };
        let text = format!(".model bad_{round}_{k}\n.inputs {ports}\n.names a b y\n11 1\n.end\n");
        reqs.push(Request {
            class: Class::Rejected,
            circuit: usize::MAX,
            submit: submit(text.into_bytes()),
        });
    }
    for k in 0..UNPARSABLE_PER_ROUND {
        let text = if k % 2 == 0 {
            format!("not a netlist: round {round} item {k}\n")
        } else {
            format!("aag {} 1\n", round + 3)
        };
        reqs.push(Request {
            class: Class::Unparsable,
            circuit: usize::MAX,
            submit: submit(text.into_bytes()),
        });
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// What a client keeps of one response: whether it passed its check,
/// and for a miss the report's `QOR_FIELDS`.
type Checked = Result<Option<Vec<u64>>, String>;

/// Check one daemon verdict. `expected` holds each circuit's warm-up
/// (miss) response bytes, which every hit must repeat exactly.
fn check(
    req: &Request,
    resp: &Result<Response, String>,
    circuits: &[(Aig, Circuit)],
    expected: &[Option<(Vec<u8>, Vec<u8>)>],
) -> Checked {
    let resp = resp.as_ref().map_err(|e| format!("transport: {e}"))?;
    match (req.class, resp) {
        (
            Class::Hit,
            Response::Ok {
                cache_hit: true,
                netlist,
                report,
            },
        ) => match &expected[req.circuit] {
            Some((n, r)) if n == netlist && r == report => Ok(None),
            _ => Err("hit bytes differ from the miss response".into()),
        },
        (
            Class::Miss,
            Response::Ok {
                cache_hit: false,
                report,
                ..
            },
        ) => {
            let json = String::from_utf8_lossy(report);
            let got: Option<Vec<u64>> = QOR_FIELDS.iter().map(|k| json_u64(&json, k)).collect();
            let want = &circuits[req.circuit].1.reference;
            match got {
                Some(got) if &got == want => Ok(Some(got)),
                _ => Err(format!(
                    "QoR {got:?} differs from run_job reference {want:?}"
                )),
            }
        }
        (Class::Rejected, Response::Err { kind, .. }) if kind == "rejected" => Ok(None),
        (Class::Unparsable, Response::Err { kind, .. }) if kind == "parse" => Ok(None),
        (class, other) => Err(format!("{class:?} answered with {}", describe(other))),
    }
}

fn qor_field(fields: &[u64], key: &str) -> u64 {
    fields[QOR_FIELDS
        .iter()
        .position(|k| *k == key)
        .expect("a QoR field")]
}

fn describe(resp: &Response) -> String {
    match resp {
        Response::Ok { cache_hit, .. } => format!("OK (cache_hit={cache_hit})"),
        Response::Err { kind, .. } => format!("ERR {kind}"),
        Response::Busy { retry_after_ms } => format!("BUSY ({retry_after_ms} ms)"),
        Response::Pong => "PONG".into(),
        Response::Stats(_) => "STATS".into(),
    }
}

/// Run one round through the closed loop. Each client checks a response
/// as soon as its latency is taken and keeps only `keep`'s result, so
/// the benchmark holds no more than one response per client. Returns
/// per-request latency (ms) and kept result, and the round's wall time.
fn run_round<T: Send>(
    clients: &mut [Client],
    addr: std::net::SocketAddr,
    reqs: &[Request],
    keep: &(dyn Fn(&Request, Result<Response, String>) -> T + Sync),
) -> (Vec<(f64, T)>, f64) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(f64, T)>>> = Mutex::new((0..reqs.len()).map(|_| None).collect());
    let t0 = Instant::now();
    thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, results) = (&next, &results);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= reqs.len() {
                    break;
                }
                let t = Instant::now();
                let resp = client.submit(&reqs[i].submit).map_err(|e| e.to_string());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if resp.is_err() {
                    // The connection may be dead; later requests get a new one.
                    if let Ok(c) = Client::connect(addr) {
                        *client = c;
                    }
                }
                let kept = keep(&reqs[i], resp);
                results.lock().expect("no client thread panics")[i] = Some((ms, kept));
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let results = results
        .into_inner()
        .expect("no client thread panics")
        .into_iter()
        .map(|r| r.expect("every request is answered or failed"))
        .collect();
    (results, wall)
}

fn fresh_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create a state directory in the output dir");
}

pub fn run(args: &Args, out: &mut Outcome, tr: &mut Tracer) {
    let state = args.out.join("serve-state");
    let cfg = ServeConfig::new(&state);

    // Inputs, references and baselines (untimed), on a pool like one
    // shard's.
    let flow = daemon_flow(&cfg);
    let pool = ThreadPool::new(cfg.threads_per_job.max(1));
    let circuits: Vec<(Aig, Circuit)> = {
        let mut arenas = PassArenas::default();
        xsfq_benchmarks::all()
            .into_iter()
            .map(|b| {
                let aig = (b.build)();
                let blif = blif_of(&aig);
                let parsed =
                    read_netlist_auto(blif.as_bytes()).expect("the BLIF writer's output parses");
                let r = flow
                    .run_job(&parsed, &pool, &mut arenas)
                    .unwrap_or_else(|e| panic!("{}: reference run_job failed: {e}", b.name));
                let jtl =
                    xsfq_timing::balance_netlist(r.netlist(), &TimingOptions::default(), None);
                let circuit = Circuit {
                    name: b.name,
                    blif,
                    reference: qor_fields(&r.report),
                    jtl_need: jtl.summary.buffers_inserted as u64,
                    baseline_jj: xsfq_baselines::pbmap(&aig).jj_with_clock_tree(),
                };
                (aig, circuit)
            })
            .collect()
    };
    let warm_reqs: Vec<Request> = circuits
        .iter()
        .enumerate()
        .map(|(i, (_, c))| Request {
            class: Class::Miss,
            circuit: i,
            submit: submit(c.blif.clone().into_bytes()),
        })
        .collect();

    // Set-up, on an empty state dir: `Server::start`, the first PONG, and
    // a warm-up round of every circuit once under its own name. Its
    // misses are the responses every later hit must repeat byte for byte.
    // (Start-up alone is a fraction of a millisecond of mostly fsync, too
    // noisy to hold to a bound.)
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut running = None;
    let mut host = Host::new();
    for rep in 0..reps {
        fresh_dir(&state);
        let t = Instant::now();
        let server = Server::start(cfg.clone()).expect("daemon starts");
        let addr = server.local_addr();
        let mut clients = vec![Client::connect(addr).expect("daemon accepts")];
        let pong = clients[0].ping();
        while clients.len() < CLIENTS {
            clients.push(Client::connect(addr).expect("daemon accepts"));
        }
        let (warm, _) = run_round(&mut clients, addr, &warm_reqs, &|req, resp| {
            let bytes = match &resp {
                Ok(Response::Ok {
                    netlist, report, ..
                }) => Some((netlist.clone(), report.clone())),
                _ => None,
            };
            (check(req, &resp, &circuits, &[]), bytes)
        });
        let s = t.elapsed().as_secs_f64();
        setup_s.push(s * host.factor());
        out.check("setup", matches!(pong, Ok(Response::Pong)), || {
            format!("ping: {pong:?}")
        });
        let mut expected = Vec::new();
        for (req, (_, (verdict, bytes))) in warm_reqs.iter().zip(warm) {
            let name = circuits[req.circuit].1.name;
            out.check("warmup", verdict.is_ok(), || {
                format!("{name}: {}", verdict.unwrap_err())
            });
            expected.push(bytes);
        }
        if rep + 1 == reps {
            running = Some((server, clients, expected));
        } else {
            drop(clients);
            server.shutdown();
        }
    }
    host.record(out);
    let (server, mut clients, expected) = running.expect("at least one set-up");
    let addr = server.local_addr();

    // Timed rounds, their times scaled to the reference host per round
    // (see `host`). A traced run keeps a third of the window for the
    // daemon and spends the rest replaying the same rounds.
    let mut rng = Rng::new(args.seed);
    let window = if args.trace {
        args.window() / 3
    } else {
        args.window()
    };
    let mut answers: Vec<Answer> = Vec::new();
    let mut rounds: Vec<(Vec<Request>, Vec<f64>)> = Vec::new();
    let mut round_s = Vec::new();
    let mut round_qor: Vec<(u64, u64, u64, Vec<f64>)> = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut host = Host::new();
    let start = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    while round_s.len() < min_rounds || start.elapsed() < window {
        let round = round_s.len() as u32;
        let reqs = round_requests(round, &circuits, &mut rng);
        stats::reset_peak_rss();
        let (results, wall) = run_round(&mut clients, addr, &reqs, &|req, resp| {
            check(req, &resp, &circuits, &expected)
        });
        peaks_mb.push(stats::peak_rss_mb());
        let f = host.factor();
        round_s.push(wall * f);
        let mut qor = (0, 0, 0, Vec::new());
        for (req, (ms, verdict)) in reqs.iter().zip(&results) {
            if let Ok(Some(fields)) = verdict {
                let jj = qor_field(fields, "jj_total");
                qor.0 += jj;
                qor.1 += qor_field(fields, "aig_nodes");
                qor.2 += qor_field(fields, "depth_with_splitters");
                let base = circuits[req.circuit].1.baseline_jj as f64;
                qor.3.push(100.0 * (1.0 - jj as f64 / base));
            }
            out.check(req.class.name(), verdict.is_ok(), || {
                verdict.clone().unwrap_err()
            });
            answers.push(Answer {
                class: req.class,
                circuit: req.circuit,
                latency_ms: ms * f,
                ok: verdict.is_ok(),
            });
        }
        round_qor.push(qor);
        if args.trace {
            let latencies = results.iter().map(|(ms, _)| *ms).collect();
            rounds.push((reqs, latencies));
        }
    }
    host.record(out);
    let stats_frame = match clients[0].stats() {
        Ok(Response::Stats(bytes)) => String::from_utf8_lossy(&bytes).into_owned(),
        other => {
            out.check("stats", false, || format!("STATS: {other:?}"));
            String::new()
        }
    };
    drop(clients);
    server.shutdown();

    // The QoR of every round's misses must repeat exactly.
    for q in &round_qor[1..] {
        out.check(
            "qor_repeat",
            q.0 == round_qor[0].0 && q.1 == round_qor[0].1 && q.2 == round_qor[0].2,
            || {
                format!(
                    "round QoR {:?} differs from round 0 {:?}",
                    (q.0, q.1, q.2),
                    (round_qor[0].0, round_qor[0].1, round_qor[0].2)
                )
            },
        );
    }

    if args.trace {
        let field = |k: &str| json_u64(&stats_frame, k).unwrap_or(0) as f64;
        let (hits, misses) = (field("hits"), field("misses"));
        out.set(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            (hits + misses) as usize,
        );
        out.set("serve.shed", field("shed"), 1);
        out.set("serve.retries", field("retries"), 1);
        out.set("serve.failed", field("failed"), 1);
        replay_rounds(args, out, tr, &flow, &pool, &circuits, &warm_reqs, &rounds);
        return;
    }

    out.set("setup_s", stats::median(&setup_s), setup_s.len());
    out.set("peak_rss_mb", stats::median(&peaks_mb), peaks_mb.len());
    let suite_s = stats::median(&round_s);
    out.set("suite_s", suite_s, round_s.len());
    let designs = answers
        .iter()
        .filter(|a| a.ok && matches!(a.class, Class::Hit | Class::Miss))
        .count();
    let per_round = designs as f64 / round_s.len() as f64;
    out.set("designs_per_s", per_round / suite_s, round_s.len());
    // Latencies per class and per circuit, so that they do not depend
    // on the assumed mix.
    let mut hits: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    let mut misses: Vec<Vec<f64>> = vec![Vec::new(); circuits.len()];
    for a in answers.iter().filter(|a| a.ok) {
        match a.class {
            Class::Hit => hits[a.circuit].push(a.latency_ms),
            Class::Miss => misses[a.circuit].push(a.latency_ms),
            Class::Rejected | Class::Unparsable => {}
        }
    }
    let miss_ms = misses.concat();
    out.set(
        "miss_p90_ms",
        stats::quantile(&miss_ms, 0.90),
        miss_ms.len(),
    );
    out.set(
        "design_geomean_ms",
        stats::geomean_of_medians(&misses),
        miss_ms.len(),
    );
    out.set(
        "hit_geomean_ms",
        stats::geomean_of_medians(&hits),
        hits.iter().map(Vec::len).sum(),
    );
    let q = &round_qor[0];
    let n = circuits.len();
    out.set("qor_jj_total", q.0 as f64, n);
    out.set("qor_and_total", q.1 as f64, n);
    out.set("qor_depth_total", q.2 as f64, n);
    out.set(
        "qor_jj_reduction_pct",
        q.3.iter().sum::<f64>() / q.3.len() as f64,
        q.3.len(),
    );
    let jtl: u64 = circuits.iter().map(|(_, c)| c.jtl_need).sum();
    out.set("qor_jtl_total", jtl as f64, n);
}

/// The flow each daemon job runs, built from the daemon's configuration
/// the way its workers build it.
fn daemon_flow(cfg: &ServeConfig) -> SynthesisFlow {
    let mut flow = SynthesisFlow::new()
        .guards(cfg.guards.clone())
        .check(cfg.check)
        .script_str(&cfg.default_script)
        .expect("the default script parses");
    if let Some(d) = cfg.job_deadline {
        flow = flow.job_deadline(d);
    }
    if let Some(t) = &cfg.timing {
        flow = flow.timing(t.clone());
    }
    flow
}

/// The traced replay: each request of the daemon phase walks the daemon's
/// path in-process — protocol, admission parse and lint, journal submit,
/// worker parse, digest, cache, the flow's `run_job` on a pool and warm
/// arenas like one shard's, export, journal done — against a throwaway
/// journal and a cache of the daemon's size, warmed the same way. Rounds
/// alternate traced and untraced; a request's residual is its client
/// latency minus its replayed layers (queueing, transport and hand-offs).
#[allow(clippy::too_many_arguments)]
fn replay_rounds(
    args: &Args,
    out: &mut Outcome,
    tr: &mut Tracer,
    flow: &SynthesisFlow,
    pool: &ThreadPool,
    circuits: &[(Aig, Circuit)],
    warm: &[Request],
    rounds: &[(Vec<Request>, Vec<f64>)],
) {
    let dir = args.out.join("replay-state");
    fresh_dir(&dir);
    let (journal, _) = Journal::open(&dir).expect("the replay journal opens");
    let cfg = ServeConfig::new(&dir);
    let cache = ResultCache::new(cfg.cache_budget);
    let mut ctx = ReplayCtx {
        journal: &journal,
        cache: &cache,
        flow,
        // The cache key's fingerprint, as `Server::start` builds it.
        guard_fp: format!(
            "guards={:?};deadline={:?};check={:?};timing={:?};script-defaults=v1",
            cfg.guards, cfg.job_deadline, cfg.check, cfg.timing
        ),
        script: cfg.default_script,
        pool,
        arenas: PassArenas::default(),
        circuits,
        next_id: 0,
    };
    tr.enabled = false;
    for req in warm {
        let ok = ctx.request(tr, req).map(|_| ());
        out.check("replay", ok.is_ok(), || ok.unwrap_err());
    }
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let (mut hit_res, mut miss_res) = (Vec::new(), Vec::new());
    // Rounds are the same multiset, so alternate rounds give the traced
    // and the untraced cost of the same work.
    for (group, (reqs, latencies)) in rounds.iter().enumerate() {
        tr.enabled = group.is_multiple_of(2);
        let t0 = Instant::now();
        let mut retime_s = 0.0;
        let mut jobs = Vec::new();
        for req in reqs {
            let job = ctx.next_id + 1;
            tr.set_job(job, group as u32);
            match ctx.request(tr, req) {
                Ok(s) => {
                    retime_s += s;
                    out.check("replay", true, String::new);
                }
                Err(e) => out.check("replay", false, || e),
            }
            jobs.push(job);
        }
        let s = t0.elapsed().as_secs_f64() - retime_s;
        if tr.enabled {
            traced_s.push(s);
            let roots = tr.root_ms("serve.request");
            for ((req, ms), job) in reqs.iter().zip(latencies).zip(jobs) {
                let residual = ms - roots.get(&job).copied().unwrap_or(0.0);
                match req.class {
                    Class::Hit => hit_res.push(residual),
                    Class::Miss => miss_res.push(residual),
                    Class::Rejected | Class::Unparsable => {}
                }
            }
        } else {
            untraced_s.push(s);
        }
    }
    tr.enabled = false;
    out.trace_overhead(&traced_s, &untraced_s);
    out.set(
        "serve.residual_hit_ms",
        stats::median(&hit_res),
        hit_res.len(),
    );
    out.set(
        "serve.residual_miss_ms",
        stats::median(&miss_res),
        miss_res.len(),
    );
}

struct ReplayCtx<'a> {
    journal: &'a Journal,
    cache: &'a ResultCache,
    flow: &'a SynthesisFlow,
    guard_fp: String,
    script: String,
    pool: &'a ThreadPool,
    /// Kept across requests, as a shard keeps its arenas across jobs.
    arenas: PassArenas,
    circuits: &'a [(Aig, Circuit)],
    next_id: u64,
}

/// A miss's flow call, recorded once the request's spans are closed.
struct Synthesis {
    span: Open,
    aig: Aig,
    result: FlowResult,
}

impl ReplayCtx<'_> {
    /// Replay one request under the root span `serve.request` and check
    /// its verdict class (and a miss's QoR). Returns the seconds spent
    /// timing the flow's untimed work after the request.
    fn request(&mut self, tr: &mut Tracer, req: &Request) -> Result<f64, String> {
        self.next_id += 1;
        let root = tr.begin("serve.request");
        let walked = self.walk(tr, req);
        let resp = walked
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(kind, body, _)| {
                tr.span("serve.protocol", || decode_response(*kind, body))
                    .map_err(|e| e.to_string())
            });
        tr.end(&root);
        let retime_s = match &walked {
            Ok((_, _, Some(syn))) => {
                replay::record(tr, &syn.span, self.flow, &syn.aig, &syn.result)
            }
            _ => 0.0,
        };
        let resp = resp?;
        match (req.class, &resp) {
            (
                Class::Miss,
                Response::Ok {
                    cache_hit: false,
                    report,
                    ..
                },
            ) => {
                let json = String::from_utf8_lossy(report);
                let got: Vec<u64> = QOR_FIELDS
                    .iter()
                    .map(|k| json_u64(&json, k).unwrap_or(u64::MAX))
                    .collect();
                if got == self.circuits[req.circuit].1.reference {
                    Ok(retime_s)
                } else {
                    Err(format!(
                        "replayed miss QoR {got:?} differs from the reference"
                    ))
                }
            }
            (
                Class::Hit,
                Response::Ok {
                    cache_hit: true, ..
                },
            ) => Ok(retime_s),
            (Class::Rejected, Response::Err { kind, .. }) if kind == "rejected" => Ok(retime_s),
            (Class::Unparsable, Response::Err { kind, .. }) if kind == "parse" => Ok(retime_s),
            (class, other) => Err(format!(
                "replayed {class:?} answered with {}",
                describe(other)
            )),
        }
    }

    /// The daemon's path for one submission; returns the response frame
    /// and, for a miss, its flow call.
    fn walk(
        &mut self,
        tr: &mut Tracer,
        req: &Request,
    ) -> Result<(u8, Vec<u8>, Option<Synthesis>), String> {
        let id = self.next_id;
        let wire = tr.span("serve.protocol", || req.submit.encode());
        let request = tr
            .span("serve.protocol", || SubmitRequest::decode(&wire))
            .map_err(|e| e.to_string())?;
        // Admission: parse and lint; bytes that do not parse go on to the
        // worker, which answers with the parse verdict.
        if let Ok(aig) = tr.span("aig.read", || read_netlist_auto(&request.data)) {
            let diags = tr.span("lint.aig", || lint_aig(&aig));
            if has_errors(&diags) {
                let body = tr.span("serve.protocol", || {
                    encode_err("rejected", render_json(&diags).as_bytes())
                });
                return Ok((KIND_ERR, body, None));
            }
        }
        tr.span("serve.journal_submit", || {
            self.journal.record_submit(id, &request, None)
        })
        .map_err(|e| e.to_string())?;
        // Worker: parse again, digest, cache, flow.
        let aig = match tr.span("aig.read", || read_netlist_auto(&request.data)) {
            Ok(aig) => aig,
            Err(e) => {
                let body = tr.span("serve.protocol", || {
                    encode_err("parse", e.to_string().as_bytes())
                });
                self.done(tr, id, "err")?;
                return Ok((KIND_ERR, body, None));
            }
        };
        let key = CacheKey {
            digest: tr.span("aig.digest", || canonical_digest(&aig)),
            script: self.script.clone(),
            guards: self.guard_fp.clone(),
        };
        if let Some(segments) = tr.span("serve.cache_get", || self.cache.get(&key)) {
            let body = tr.span("serve.protocol", || encode_ok_body(true, &segments));
            self.done(tr, id, "ok")?;
            return Ok((KIND_OK, body, None));
        }
        let (flow, pool, arenas) = (self.flow, self.pool, &mut self.arenas);
        let budget = (aig.num_ands() < SMALL_JOB_ANDS).then(|| pool.scoped_budget(1));
        let (span, result) = replay::call(tr, || {
            flow.run_job(&aig, pool, arenas).map_err(|e| e.to_string())
        });
        drop(budget);
        let result = result?;
        let (netlist, report) = export(tr, &result);
        let segments = tr.span("serve.protocol", || {
            encode_result_segments(&netlist, report.as_bytes())
        });
        let body = tr.span("serve.protocol", || encode_ok_body(false, &segments));
        tr.span("serve.cache_put", || self.cache.put(key, segments));
        self.done(tr, id, "ok")?;
        Ok((KIND_OK, body, Some(Synthesis { span, aig, result })))
    }

    fn done(&self, tr: &mut Tracer, id: u64, status: &str) -> Result<(), String> {
        tr.span("serve.journal_done", || {
            self.journal.record_done(id, status)
        })
        .map_err(|e| e.to_string())
    }
}

/// The artifact tail the daemon's worker runs after the flow, under the
/// span `export`: the Verilog netlist and the report JSON.
fn export(tr: &mut Tracer, result: &FlowResult) -> (Vec<u8>, String) {
    let root = tr.begin("export");
    let mut netlist = Vec::new();
    tr.span("netlist.write_verilog", || {
        write_verilog(result.netlist(), &mut netlist).expect("write to memory")
    });
    let report = tr.span("core.report_json", || result.report.to_json());
    tr.end(&root);
    (netlist, report)
}
