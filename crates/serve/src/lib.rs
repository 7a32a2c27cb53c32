//! # xsfq-serve — a crash-tolerant synthesis daemon
//!
//! Long-running serving layer over the fault-isolated synthesis flow of
//! [`xsfq_core`]: accept BLIF/AIGER designs over TCP or a watched job
//! directory, synthesize them on a sharded executor, and return the mapped
//! netlist plus per-pass telemetry — or a structured error verdict — per
//! job. Std-only: no async runtime, no external crates.
//!
//! ## Wire protocol
//!
//! Byte stream of length-prefixed frames:
//!
//! ```text
//! frame   := u32_be length | u8 kind | payload           (length counts kind + payload)
//! ```
//!
//! Frame bodies are capped at [`protocol::MAX_FRAME`] (64 MiB); a peer
//! announcing more is disconnected before any allocation. Request kinds:
//!
//! | kind | name   | payload |
//! |------|--------|---------|
//! | 0x01 | SUBMIT | `u8 version(=1)`, `u8 fault_kind`, `u16_be fault_pass`, `str script`, `str name`, `u32_be n` + `n` netlist bytes |
//! | 0x02 | PING   | empty |
//! | 0x03 | STATS  | empty |
//!
//! where `str` is `u16_be length + UTF-8 bytes`. The netlist bytes may be
//! BLIF, ASCII AIGER, or binary AIGER — the server sniffs the format by
//! content ([`xsfq_aig::io::read_netlist_auto`]). An empty `script` means
//! the server's default; `fault_kind` is 0 except in chaos builds (1
//! panic, 2 stall, 3 guard-trip at pass `fault_pass` — non-chaos servers
//! reject nonzero values). Response kinds:
//!
//! | kind | name  | payload |
//! |------|-------|---------|
//! | 0x81 | OK    | `u8 cache_hit`, `u32_be n` + netlist (Verilog), `u32_be m` + report JSON (`xsfq-flow-report/1`) |
//! | 0x82 | ERR   | `str kind`, `u32_be n` + verdict JSON (`xsfq-serve-verdict/1`) |
//! | 0x83 | BUSY  | `u32_be retry_after_ms` |
//! | 0x84 | PONG  | empty |
//! | 0x85 | STATS | stats JSON (`xsfq-serve-stats/1`) |
//!
//! A connection is strictly request-response: one in-flight request per
//! connection, pipelining is not supported. Submit a design, block, read
//! the verdict. The `examples/serve_client.rs` walkthrough exercises the
//! whole catalogue with [`client::Client`].
//!
//! ## Operational guide
//!
//! **Admission and backpressure.** The daemon holds at most
//! `queue_capacity` waiting jobs. Beyond that, submissions are *shed*: the
//! client gets BUSY with a retry-after hint (milliseconds, scaled by queue
//! depth) and the daemon's memory stays bounded no matter the offered
//! load. Watched-directory jobs are never lost by shedding — the file
//! stays in the directory and is retried on the next poll.
//!
//! **Durability.** Admission reads each submission once — script, netlist,
//! lint, canonical digest — and answers what it cannot accept on the spot:
//! a `parse` verdict for bytes that do not parse, a `rejected` one for a bad
//! script, a refused fault request or lint findings. Those answers are not
//! journaled; no job exists yet. Every accepted job is journaled
//! (`state_dir/journal.log` plus a spool file with the full submission)
//! *before* it is queued, and marked done when it reaches a terminal state
//! (`ok`, `err`, or `shed` when a full queue refuses it). A daemon killed
//! at any point — including `kill -9` mid-synthesis — restarts, replays
//! the journal, and requeues exactly the accepted-but-unfinished jobs
//! (at-least-once semantics). Recovered TCP jobs re-run for the result
//! cache and the journal's completion record (their clients are gone);
//! recovered directory jobs still write their result files.
//!
//! **Deadlines and retries.** Each job runs under `job_deadline`
//! (wall-clock, counted from job start) and the per-pass resource
//! `guards`. Transient failures — worker panics and guard trips — are
//! retried with exponential backoff (`retry_base × 2^attempt`) up to
//! `retry_limit` times before the client sees the final verdict;
//! deterministic failures (verification failures, deadlines) fail fast.
//! Faults never cross job boundaries: a panicking design returns a
//! `panicked` verdict while the jobs around it are unaffected (chaos-soak
//! tested, bit-identical to solo runs).
//!
//! **Result cache.** Results are cached under the key *(canonical AIG
//! digest, script, guard fingerprint)*. The digest
//! ([`xsfq_aig::digest::canonical_digest`]) is renaming- and
//! node-order-independent, so the same circuit resubmitted from a
//! different tool's writer hits. A hit returns the exact bytes the
//! original run produced, flagged with `cache_hit = 1`. The cache is LRU
//! under `cache_budget` bytes; 0 disables it.
//!
//! **Static checking.** `check` sets the [`CheckLevel`] for admission and
//! every job. Parsing happens at admission whatever the level; `Off` skips
//! only the lint. At the default `Stage`, a submission that parses but is
//! structurally ill-formed (duplicate ports, an output shadowing an input,
//! …) is *rejected at admission* — the client gets a `rejected` verdict
//! whose `diags` field carries the lint findings as an
//! `xsfq-lint-diags/1` array (stable codes like `X008`), and no shard
//! time is spent on it. The same level is applied inside the flow, so a
//! pass or mapper bug that produces an ill-formed intermediate surfaces
//! as a `flow` verdict naming the lint codes instead of corrupt output.
//! `Paranoid` additionally validates the AIG after every optimization
//! pass and audits the cut arena — for debugging passes, not production
//! (expect measurable per-job overhead). Under `Off` the verdict `diags`
//! field is always `[]`. The checking level is part of the result-cache
//! fingerprint, so flipping it never serves stale bytes. Recovered jobs are re-admitted at replay: a spool
//! this build cannot read, or that a stricter level now rejects, reaches a
//! terminal journal state instead of replaying forever.
//!
//! **Stats.** The STATS frame (`xsfq-serve-stats/1`) counts `accepted` —
//! jobs queued, recovered ones included, so not the submissions answered at
//! admission; `completed` and `failed` — terminal verdicts, where `failed`
//! includes `parse` answers and refused recovered jobs but not `rejected`
//! answers to fresh submissions; `shed`, `retries` and `recovered`.
//!
//! **Timing and constraints.** Setting `ServeConfig::timing` (a
//! [`xsfq_timing::TimingOptions`]) runs the flow's post-Map Timing stage
//! on every job: a static arrival/slack analysis of the mapped physical
//! netlist and — under `BalanceMode::Full` or `Budget` — slack-matching
//! JTL insertion that aligns pulse arrivals at join cells and dual-rail
//! output pairs. The report JSON inside the OK frame then carries a
//! `timing` object (critical path, worst slack/skew, buffers inserted, JJ
//! delta); with timing unset the key is absent and every byte matches an
//! untimed daemon. The timing configuration is part of the result-cache
//! fingerprint, so retuning the balance mode or tolerance never replays a
//! netlist balanced under the old settings. For one-off analysis or SDC /
//! CSV artifact export outside the daemon, use the `xsfq-time` CLI on the
//! emitted netlist instead of re-synthesizing.
//!
//! **Drain.** On SIGTERM/SIGINT (the `xsfq-serve` binary) or
//! [`Server::shutdown`] (embedded), the daemon stops admitting — new
//! submissions get BUSY — finishes queued and in-flight jobs, and after
//! `drain_grace` cancels whatever is still running (those jobs journal as
//! failed with a `cancelled` verdict). The journal is flushed at every
//! step, so even a drain cut short by `kill -9` recovers cleanly.
//!
//! **Sizing.** `shards` worker shards each own a `threads_per_job`-thread
//! executor pool and a warm arena set reused across jobs. Designs under a
//! few hundred AND nodes run on the sequential path
//! ([`xsfq_exec::ThreadPool::scoped_budget`]) where fan-out overhead would
//! dominate. Throughput scales with `shards`; per-job latency with
//! `threads_per_job`. The `serve/` criterion group tracks designs/sec.
//!
//! ```no_run
//! use xsfq_serve::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::new("/var/lib/xsfq-serve")).unwrap();
//! println!("listening on {}", server.local_addr());
//! // ... run until told otherwise ...
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
mod sync;

pub use client::{Client, ClientError};
pub use server::{ServeConfig, Server};
pub use xsfq_lint::CheckLevel;
