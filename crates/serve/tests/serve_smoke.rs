//! End-to-end smoke: a real daemon on a real socket, EPFL designs in,
//! netlists + reports out, bit-identical to solo runs of the same flow.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use xsfq_aig::io::write_blif;
use xsfq_aig::Aig;
use xsfq_core::SynthesisFlow;
use xsfq_netlist::writers::write_verilog;
use xsfq_serve::protocol::{Response, SubmitRequest};
use xsfq_serve::{CheckLevel, Client, ServeConfig, Server};

const SCRIPT: &str = "fast";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "xsfq-serve-smoke-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Zero out the `wall_ns` timing fields: they are the one part of a
/// report that legitimately differs between two runs of the same job.
fn scrub_timings(json: &str) -> String {
    let mut out = String::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"wall_ns\":") {
        let after = pos + "\"wall_ns\":".len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn blif_bytes(aig: &Aig) -> Vec<u8> {
    let mut buf = Vec::new();
    write_blif(aig, &mut buf).unwrap();
    buf
}

/// The reference result: the same flow run directly, no daemon.
fn solo(aig: &Aig) -> (Vec<u8>, String) {
    let result = SynthesisFlow::new()
        .script_str(SCRIPT)
        .unwrap()
        .run(aig)
        .unwrap();
    let mut netlist = Vec::new();
    write_verilog(result.netlist(), &mut netlist).unwrap();
    (netlist, result.report.to_json())
}

fn submit(client: &mut Client, name: &str, data: Vec<u8>) -> Response {
    client
        .submit(&SubmitRequest {
            script: SCRIPT.into(),
            name: name.into(),
            data,
            fault: None,
        })
        .unwrap()
}

#[test]
fn epfl_designs_over_the_socket_match_solo_runs() {
    let state = tmpdir("epfl");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for name in ["int2float", "dec", "priority", "cavlc"] {
        let aig = xsfq_benchmarks::by_name(name).unwrap();
        let (solo_netlist, solo_report) = solo(&aig);
        match submit(&mut client, name, blif_bytes(&aig)) {
            Response::Ok {
                cache_hit,
                netlist,
                report,
            } => {
                assert!(!cache_hit, "{name}: first run cannot hit the cache");
                assert_eq!(netlist, solo_netlist, "{name}: netlist differs from solo");
                assert_eq!(
                    scrub_timings(&String::from_utf8(report).unwrap()),
                    scrub_timings(&solo_report),
                    "{name}: report differs from solo"
                );
            }
            other => panic!("{name}: expected Ok, got {other:?}"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn resubmission_hits_the_cache_with_identical_bytes() {
    let state = tmpdir("cache");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();

    let first = submit(&mut client, "ctrl", blif_bytes(&aig));
    let Response::Ok {
        cache_hit: false,
        netlist,
        report,
    } = first
    else {
        panic!("expected a cache-miss Ok, got {first:?}");
    };

    // The same BLIF again. (An AIGER copy would not hit: the AIGER reader
    // names every design `aiger`, and the digest covers the design name.)
    let second = submit(&mut client, "ctrl", blif_bytes(&aig));
    match second {
        Response::Ok {
            cache_hit,
            netlist: n2,
            report: r2,
        } => {
            assert!(cache_hit, "resubmission must hit the cache");
            assert_eq!(n2, netlist, "cache hit must replay identical bytes");
            assert_eq!(r2, report);
        }
        other => panic!("expected Ok, got {other:?}"),
    }

    // A different script is a different result — no false sharing.
    let other_script = client
        .submit(&SubmitRequest {
            script: "b; rw".into(),
            name: "ctrl".into(),
            data: blif_bytes(&aig),
            fault: None,
        })
        .unwrap();
    match other_script {
        Response::Ok { cache_hit, .. } => assert!(!cache_hit),
        other => panic!("expected Ok, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn full_queue_sheds_with_busy_and_retry_hint() {
    let state = tmpdir("busy");
    let mut cfg = ServeConfig::new(&state);
    cfg.queue_capacity = 0; // deterministic: every submission sheds
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    match submit(&mut client, "ctrl", blif_bytes(&aig)) {
        Response::Busy { retry_after_ms } => {
            assert!(retry_after_ms > 0, "hint must tell the client to back off");
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // The daemon is still healthy after shedding.
    assert_eq!(client.ping().unwrap(), Response::Pong);
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn watched_directory_jobs_produce_result_files() {
    let state = tmpdir("watch");
    let watch = state.join("inbox");
    let out = state.join("outbox");
    fs::create_dir_all(&watch).unwrap();
    let mut cfg = ServeConfig::new(&state);
    cfg.watch_dir = Some(watch.clone());
    cfg.out_dir = Some(out.clone());
    let server = Server::start(cfg).unwrap();

    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    fs::write(watch.join("int2float.blif"), blif_bytes(&aig)).unwrap();
    // Garbage gets a structured rejection file, not a wedged daemon.
    fs::write(watch.join("garbage.blif"), b"not a netlist at all\n").unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let ok_v = out.join("int2float.v");
    let ok_json = out.join("int2float.json");
    let err_json = out.join("garbage.err.json");
    while (!ok_v.exists() || !ok_json.exists() || !err_json.exists()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let netlist = fs::read(&ok_v).expect("netlist result file");
    let (solo_netlist, solo_report) = {
        let result = SynthesisFlow::new()
            .script_str("standard")
            .unwrap()
            .run(&aig)
            .unwrap();
        let mut n = Vec::new();
        write_verilog(result.netlist(), &mut n).unwrap();
        (n, result.report.to_json())
    };
    assert_eq!(netlist, solo_netlist, "dir job netlist differs from solo");
    assert_eq!(
        scrub_timings(&fs::read_to_string(&ok_json).unwrap()),
        scrub_timings(&solo_report)
    );
    let verdict = fs::read_to_string(&err_json).unwrap();
    assert!(verdict.contains("\"kind\":\"parse\""), "got: {verdict}");
    assert!(
        !watch.join("int2float.blif").exists(),
        "ingested job files are consumed"
    );

    // A second drop of the same design is a cache hit, answered at
    // admission with the first run's exact bytes. The watcher consumes the
    // file only after admission has written the results, so wait for both.
    let report = fs::read(&ok_json).unwrap();
    fs::remove_file(&ok_v).unwrap();
    fs::remove_file(&ok_json).unwrap();
    let src = watch.join("int2float.blif");
    fs::write(&src, blif_bytes(&aig)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    while (!ok_v.exists() || !ok_json.exists() || src.exists()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(fs::read(&ok_v).expect("hit netlist file"), netlist);
    assert_eq!(fs::read(&ok_json).expect("hit report file"), report);
    assert!(!src.exists(), "a hit's job file is consumed");
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn malformed_input_gets_a_structured_verdict_not_a_dead_server() {
    let state = tmpdir("garbage");
    let server = Server::start(ServeConfig::new(&state)).unwrap();

    // Garbage netlist bytes: a parse verdict.
    let mut client = Client::connect(server.local_addr()).unwrap();
    match submit(&mut client, "junk", b"\x00\x01\x02 not a netlist".to_vec()) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "parse");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("\"schema\":\"xsfq-serve-verdict/1\""), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }

    // An unknown pass name parses as a script but fails script
    // compilation inside the flow: a structured `flow` verdict.
    match client
        .submit(&SubmitRequest {
            script: "no-such-pass".into(),
            name: "x".into(),
            data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
            fault: None,
        })
        .unwrap()
    {
        Response::Err { kind, .. } => assert_eq!(kind, "flow"),
        other => panic!("expected Err, got {other:?}"),
    }

    // Raw garbage on the wire kills that connection, nothing else.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&[0xff; 64]).unwrap();
    }
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert_eq!(fresh.ping().unwrap(), Response::Pong);

    // Fault injection is refused on non-chaos builds.
    if !cfg!(feature = "chaos") {
        match fresh
            .submit(&SubmitRequest {
                script: String::new(),
                name: "x".into(),
                data: b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
                fault: Some(xsfq_serve::protocol::FaultSpec { kind: 1, pass: 0 }),
            })
            .unwrap()
        {
            Response::Err { kind, .. } => assert_eq!(kind, "rejected"),
            other => panic!("expected Err, got {other:?}"),
        }
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn ill_formed_submission_is_rejected_at_admission_with_lint_diags() {
    let state = tmpdir("lint");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Parses fine, but the output port shadows an input — downstream the
    // dual-rail mapper would emit colliding `a_p`/`a_n` ports. Admission
    // lint must refuse it with the stable code, before any shard work.
    match submit(
        &mut client,
        "shadow",
        b".model t\n.inputs a\n.outputs a\n.end\n".to_vec(),
    ) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "rejected");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("\"schema\":\"xsfq-serve-verdict/1\""), "{v}");
            assert!(v.contains("\"code\":\"X008\""), "{v}");
            assert!(v.contains("shadows"), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }

    // The shard never saw the job and stays fully alive: a healthy
    // submission on the same connection synthesizes normally.
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    match submit(&mut client, "ctrl", blif_bytes(&aig)) {
        Response::Ok { .. } => {}
        other => panic!("expected Ok after rejection, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn stats_frame_reports_progress() {
    let state = tmpdir("stats");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    submit(&mut client, "ctrl", blif_bytes(&aig));
    submit(&mut client, "ctrl", blif_bytes(&aig)); // cache hit
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    let json = String::from_utf8(json).unwrap();
    // The hit is answered at admission: it counts as accepted and
    // completed, and once in the cache's hit/miss split.
    for want in [
        "\"schema\":\"xsfq-serve-stats/1\"",
        "\"accepted\":2",
        "\"completed\":2",
        "\"hits\":1",
        "\"misses\":1",
    ] {
        assert!(json.contains(want), "missing {want}: {json}");
    }
    server.shutdown();
    // ...but it is never journaled. Read before any reopen: opening the
    // journal compacts it.
    let log = fs::read_to_string(state.join("journal.log")).unwrap();
    let count = |prefix: &str| log.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("S "), 1, "only the miss is journaled: {log}");
    assert_eq!(count("D "), 1, "only the miss is journaled: {log}");
    let spools = fs::read_dir(state.join("spool")).unwrap().count();
    assert_eq!(spools, 0, "no spool file outlives its job");
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn recovered_job_rejected_by_admission_reaches_a_terminal_state() {
    let state = tmpdir("recover-reject");
    // Simulate a previous incarnation that accepted jobs this build's
    // admission rejects, then crashed before their D records: journal the
    // S records directly and drop the journal. One job carries an
    // unparsable script (missing repeat count); the other a valid script
    // over netlist bytes that do not parse.
    let ids: Vec<u64> = {
        let (j, recovered) = xsfq_serve::journal::Journal::open(&state).unwrap();
        assert!(recovered.is_empty());
        [("repeat { b }", "stale"), (SCRIPT, "unparsable")]
            .into_iter()
            .map(|(script, name)| {
                let id = j.next_id();
                let request = SubmitRequest {
                    script: script.into(),
                    name: name.into(),
                    data: b"junk".to_vec(),
                    fault: None,
                };
                j.record_submit(id, &request, None).unwrap();
                id
            })
            .collect()
    };
    // The restart recovers both jobs; admission rejects them, which must
    // still journal a terminal state — not leave them to replay forever.
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    let json = String::from_utf8(json).unwrap();
    assert!(json.contains("\"recovered\":2"), "{json}");
    assert!(json.contains("\"failed\":2"), "{json}");
    server.shutdown();
    let log = fs::read_to_string(state.join("journal.log")).unwrap();
    for id in ids {
        assert!(
            log.lines().any(|l| l == format!("D {id} err")),
            "job {id} has no D record: {log}"
        );
        assert!(
            !state.join("spool").join(format!("{id}.job")).exists(),
            "job {id}'s spool file survived"
        );
    }
    let (_, recovered) = xsfq_serve::journal::Journal::open(&state).unwrap();
    assert!(
        recovered.is_empty(),
        "rejected recovered jobs must not replay: {recovered:?}"
    );
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn unparsable_bytes_are_answered_at_admission_with_checking_off() {
    let state = tmpdir("parse-off");
    let mut cfg = ServeConfig::new(&state);
    cfg.check = CheckLevel::Off;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // `Off` skips lint, not parsing: the bytes still get a `parse`
    // verdict, and nothing is journaled for them.
    match submit(&mut client, "junk", b"\x00\x01\x02 not a netlist".to_vec()) {
        Response::Err { kind, verdict } => {
            assert_eq!(kind, "parse");
            let v = String::from_utf8(verdict).unwrap();
            assert!(v.contains("\"kind\":\"parse\""), "{v}");
            assert!(v.contains("\"name\":\"junk\""), "{v}");
        }
        other => panic!("expected Err, got {other:?}"),
    }
    // A healthy submission afterwards is journaled as usual.
    let ok = submit(
        &mut client,
        "buf",
        b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".to_vec(),
    );
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    let Response::Stats(json) = client.stats().unwrap() else {
        panic!("expected Stats");
    };
    let json = String::from_utf8(json).unwrap();
    assert!(json.contains("\"accepted\":1"), "{json}");
    assert!(json.contains("\"completed\":1"), "{json}");
    assert!(json.contains("\"failed\":1"), "{json}");
    server.shutdown();
    let log = fs::read_to_string(state.join("journal.log")).unwrap();
    let submits = log.lines().filter(|l| l.starts_with("S ")).count();
    assert_eq!(submits, 1, "only the healthy job is journaled: {log}");
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn drain_refuses_new_work_and_finishes_queued_work() {
    let state = tmpdir("drain");
    let server = Server::start(ServeConfig::new(&state)).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let aig = xsfq_benchmarks::by_name("ctrl").unwrap();
    let ok = submit(&mut client, "ctrl", blif_bytes(&aig));
    assert!(matches!(ok, Response::Ok { .. }));
    server.shutdown();
    // After shutdown the listener is gone entirely.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
    let _ = fs::remove_dir_all(&state);
}

#[test]
fn timed_daemon_carries_timing_summary_and_matches_timed_solo() {
    use xsfq_timing::TimingOptions;
    let state = tmpdir("timed");
    let mut cfg = ServeConfig::new(&state);
    cfg.timing = Some(TimingOptions::default());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let aig = xsfq_benchmarks::by_name("int2float").unwrap();
    // The reference: the same flow with the same timing knob, no daemon.
    let timed_solo = SynthesisFlow::new()
        .script_str(SCRIPT)
        .unwrap()
        .timing(TimingOptions::default())
        .run(&aig)
        .unwrap();
    let mut solo_netlist = Vec::new();
    write_verilog(timed_solo.netlist(), &mut solo_netlist).unwrap();

    match submit(&mut client, "int2float", blif_bytes(&aig)) {
        Response::Ok {
            netlist, report, ..
        } => {
            assert_eq!(netlist, solo_netlist, "netlist differs from timed solo");
            let report = String::from_utf8(report).unwrap();
            assert!(
                report.contains("\"timing\":{") && report.contains("\"balance\":\"full\""),
                "timed verdict must carry the timing summary: {report}"
            );
            assert_eq!(
                scrub_timings(&report),
                scrub_timings(&timed_solo.report.to_json()),
                "report differs from timed solo"
            );
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&state);
}
