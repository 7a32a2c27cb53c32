//! The unit of work flowing through the daemon.

use std::path::PathBuf;
use std::sync::mpsc;

use xsfq_aig::pass::Script;
use xsfq_aig::Aig;

use crate::cache::CacheKey;
use crate::protocol::FaultSpec;

/// Where a finished job's response goes.
#[derive(Debug, Clone)]
pub enum JobSink {
    /// A connection thread is blocked on this channel; send the encoded
    /// response frame `(kind, payload)`. A send error means the client
    /// hung up — the result is still journaled and cached.
    Tcp(mpsc::Sender<(u8, Vec<u8>)>),
    /// A job-directory submission: write `<base>.v` + `<base>.json` on
    /// success, `<base>.err.json` on failure.
    Dir {
        /// Output path without extension.
        base: PathBuf,
    },
    /// A journal-recovered job whose requester is gone: run it for its
    /// side effects (cache warm + journal completion), drop the response.
    Discard,
}

/// One admitted synthesis job: the submission as admission read it, once.
/// The queue moves jobs by value, so the large parts are boxed.
#[derive(Debug)]
pub struct Job {
    /// Journal id — unique across daemon restarts.
    pub id: u64,
    /// Design name: the client's override, else the netlist's own name;
    /// display only.
    pub name: String,
    /// The parsed design (BLIF or AIGER, sniffed by content at admission).
    pub aig: Box<Aig>,
    /// The parsed pass script — the server default when the submission
    /// left its script empty.
    pub script: Script,
    /// The result-cache key: the design's canonical digest, the script
    /// text and the server's flow fingerprint.
    pub key: Box<CacheKey>,
    /// Chaos fault request (chaos builds only).
    pub fault: Option<FaultSpec>,
    /// Response destination.
    pub sink: JobSink,
    /// Retry generation, 0 for the first run.
    pub attempt: u32,
}
