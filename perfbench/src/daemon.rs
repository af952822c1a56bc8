//! The daemon pipeline of the traced run: `eccparityd` as a child process
//! on its own Unix socket, fed a pre-rendered fleet event stream, and the
//! in-process replay of the same stream through the service's public
//! `rpc`, `Router`, `barrier` and `query_into` calls.

use crate::report::Outcome;
use crate::stats;
use eccparity_service::engine::{Engine, EngineConfig, Router};
use eccparity_service::rpc::{self, Event, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resilience::loadgen::{FleetStream, StreamConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Fleet size of the event stream.
const NODES: u64 = 4096;

/// Bound on every socket read and write; a stall becomes a failed
/// operation instead of a hung run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Bound on the daemon coming up and answering its first ping.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// Length of the query rotation.
const QUERY_ROTATION: usize = 400;

/// Closed-loop queries sent to the in-process engine.
const TRACED_QUERIES: usize = 4_000;

const STATS: &str = "{\"kind\":\"query\",\"op\":\"stats\"}";

/// The pre-rendered inputs of a traced daemon pass.
pub struct Inputs {
    /// Event lines, newline-terminated.
    pub bulk: Vec<u8>,
    /// Event count.
    pub bulk_events: u64,
    /// Closed-loop query rotation.
    pub queries: Vec<Query>,
    /// State-only query suite whose answers are compared byte for byte
    /// (`stats` is process-local and excluded).
    pub suite: Vec<Query>,
}

/// Render `bulk_events` events of the fleet stream for `seed`, and the
/// query sets.
pub fn inputs(seed: u64, bulk_events: u64) -> Inputs {
    let stream = FleetStream::new(StreamConfig {
        seed,
        nodes: NODES,
        events: bulk_events,
        ..StreamConfig::default()
    });
    let mut bulk = Vec::with_capacity(bulk_events as usize * 96);
    for ev in stream {
        let line = rpc::render_event(&Event {
            node: ev.node,
            channel: ev.channel,
            bank: ev.bank,
            row: ev.row,
            count: 1,
            bank_fault: ev.bank_fault,
        });
        bulk.extend_from_slice(line.as_bytes());
        bulk.push(b'\n');
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0E_11AA);
    // Per 400 queries: one fleet-wide top_pages scan (tens of ms at 4096
    // nodes), one fleet summary (about 1 ms), the rest node_risk lookups
    // (tens of us). The p99 then falls inside the node_risk band instead
    // of on the edge between two populations.
    let queries = (0..QUERY_ROTATION)
        .map(|i| match i {
            0 => Query::TopPages { k: 10 },
            200 => Query::Fleet,
            _ => Query::NodeRisk {
                node: rng.gen_range(0..NODES),
            },
        })
        .collect();
    let mut suite = vec![Query::Fleet, Query::TopPages { k: 50 }];
    for node in [0, NODES / 2, NODES - 1, rng.gen_range(0..NODES), NODES + 7] {
        suite.push(Query::NodeRisk { node });
        suite.push(Query::Recommend { node });
    }
    Inputs {
        bulk,
        bulk_events,
        queries,
        suite,
    }
}

fn lines(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    buf.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

/// An `eccparityd` child on its own socket and state dir, killed and
/// reaped on drop (so on every exit path, panics included).
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    state: PathBuf,
}

impl Daemon {
    /// Start the daemon and wait for its first ping.
    pub fn start(bin: &Path, tag: &str) -> Result<Daemon, String> {
        let socket = PathBuf::from(format!("{tag}.sock"));
        let state = PathBuf::from(format!("{tag}.state"));
        let _ = std::fs::remove_file(&socket);
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir(&state).map_err(|e| format!("state dir {}: {e}", state.display()))?;
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .args(["--shards", "1", "--io-shards", "1"])
            .arg("--state-dir")
            .arg(&state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let d = Daemon {
            child,
            socket,
            state,
        };
        loop {
            if let Ok(mut c) = Conn::open(&d.socket) {
                let pong = c.request(&rpc::render_query(&Query::Ping))?;
                if !pong.contains("\"ok\":true") {
                    return Err(format!("ping answered {pong}"));
                }
                return Ok(d);
            }
            if t.elapsed() > START_TIMEOUT {
                return Err("daemon did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir_all(&self.state);
    }
}

/// One client connection with bounded reads and writes.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    fn open(path: &Path) -> std::io::Result<Conn> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
            line: String::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Send one query line and read its one-line answer.
    fn request(&mut self, query: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{query}\n").as_bytes())
            .map_err(|e| format!("send {query}: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(format!("connection closed awaiting {query}")),
            Ok(_) => Ok(self.line.trim_end().to_string()),
            Err(e) => Err(format!("awaiting {query}: {e}")),
        }
    }
}

/// An unsigned field of a `stats` answer.
fn stat(resp: &str, key: &str) -> Option<u64> {
    let at = resp.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = resp[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Barrier with a `stats` query; the events the daemon applied, if it
/// applied them all with no reject and no shed.
fn stats_barrier(c: &mut Conn, want: u64) -> Result<(), String> {
    let resp = c.request(STATS)?;
    let got = (
        stat(&resp, "events_ingested"),
        stat(&resp, "events_rejected"),
        stat(&resp, "shed_lines"),
    );
    if got == (Some(want), Some(0), Some(0)) {
        Ok(())
    } else {
        Err(format!("after {want} events the daemon reports {resp}"))
    }
}

/// Start a daemon, stream every event, barrier. Returns the daemon (still
/// running), the connection and the bulk seconds.
fn bulk_phase(bin: &Path, tag: &str, inp: &Inputs) -> Result<(Daemon, Conn, f64), String> {
    let d = Daemon::start(bin, tag)?;
    let mut c = Conn::open(&d.socket).map_err(|e| format!("connect: {e}"))?;
    let t = Instant::now();
    c.send(&inp.bulk)?;
    stats_barrier(&mut c, inp.bulk_events)?;
    Ok((d, c, t.elapsed().as_secs_f64()))
}

/// Byte-compare the daemon's answers to the query suite with `engine`'s,
/// both after the same stream.
fn check_suite(c: &mut Conn, engine: &Engine, inp: &Inputs, out: &mut Outcome) {
    for q in &inp.suite {
        let want = engine.query(q);
        let ok = match c.request(&rpc::render_query(q)) {
            Ok(got) if got == want => true,
            Ok(got) => {
                eprintln!("perfbench: daemon answered {got}\n  in-process engine: {want}");
                false
            }
            Err(e) => {
                eprintln!("perfbench: daemon query failed: {e}");
                false
            }
        };
        out.check(ok);
    }
}

/// Traced pass: one socket bulk phase, then the same bulk stream through
/// an in-process engine with each public call timed, the event scanner
/// replayed, and closed-loop in-process queries. Every event the daemon
/// does not report as ingested fails, and so does every answer to the
/// query suite that is not byte-identical to the in-process engine's.
/// Sets every `service.*` per-layer metric. Returns (traced wall, layer
/// sum, untraced wall): the untraced wall is the socket step alone (start
/// and bulk phase), and the layers split its bulk phase, so they cover it
/// by construction.
pub fn traced(bin: &Path, seed: u64, bulk_events: u64, out: &mut Outcome) -> (f64, f64, f64) {
    let inp = inputs(seed, bulk_events);
    let wall = Instant::now();
    out.attempted += bulk_events;
    let (socket, socket_s) = match bulk_phase(bin, "traced", &inp) {
        Ok((daemon, conn, bulk_s)) => (Some((daemon, conn)), bulk_s),
        Err(e) => {
            eprintln!("perfbench: traced daemon bulk phase failed: {e}");
            out.failed += bulk_events;
            (None, f64::NAN)
        }
    };
    let untraced_s = wall.elapsed().as_secs_f64();

    let batch_before = obs::metrics::histogram("service.ingest.batch_ns").snapshot();
    let engine = Engine::start(EngineConfig {
        shards: 1,
        ..EngineConfig::default()
    });
    let mut router = Router::new(&engine);
    let t = Instant::now();
    for line in lines(&inp.bulk) {
        router.push_line(&engine, line);
    }
    router.flush(&engine);
    let router_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    engine.barrier();
    let apply_wait_s = t.elapsed().as_secs_f64();
    let batch_after = obs::metrics::histogram("service.ingest.batch_ns").snapshot();

    let t = Instant::now();
    let parsed = lines(&inp.bulk)
        .filter(|l| std::hint::black_box(rpc::fast_event(l)).is_some())
        .count() as u64;
    let fast_event_ns = t.elapsed().as_nanos() as f64 / bulk_events as f64;
    out.check(parsed == bulk_events);

    let mut resp = String::new();
    let mut lat = Vec::new();
    for q in inp.queries.iter().cycle().take(TRACED_QUERIES) {
        resp.clear();
        let t = Instant::now();
        engine.query_into(q, &mut resp);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(resp.contains("\"ok\":true"));
    }
    let wall = wall.elapsed().as_secs_f64();
    match socket {
        Some((_daemon, mut conn)) => check_suite(&mut conn, &engine, &inp, out),
        None => {
            out.attempted += inp.suite.len() as u64;
            out.failed += inp.suite.len() as u64;
        }
    }
    engine.shutdown();

    out.set("service.rpc.fast_event.ns_per_line", fast_event_ns);
    out.set("service.engine.router.s", router_s);
    out.set("service.engine.apply_wait.s", apply_wait_s);
    let batches = batch_after.count - batch_before.count;
    out.set(
        "service.ingest.batch_ns",
        (batch_after.sum - batch_before.sum) as f64 / batches as f64,
    );
    out.set("service.engine.query_p50_us", stats::median(&lat));
    let p99 = stats::tail(&lat).expect("thousands of queries");
    out.set("service.engine.query_p99_us", p99.value);
    out.set("service.socket.s", socket_s - (router_s + apply_wait_s));
    (wall, socket_s, untraced_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_parse() {
        let r = "{\"ok\":true,\"result\":{\"events_ingested\":42,\"events_rejected\":0}}";
        assert_eq!(stat(r, "events_ingested"), Some(42));
        assert_eq!(stat(r, "events_rejected"), Some(0));
        assert_eq!(stat(r, "shed_lines"), None);
    }

    #[test]
    fn inputs_render_every_event() {
        let inp = inputs(3, 5_000);
        assert_eq!(lines(&inp.bulk).count() as u64, inp.bulk_events);
        assert!(lines(&inp.bulk).all(|l| rpc::fast_event(l).is_some()));
    }
}
