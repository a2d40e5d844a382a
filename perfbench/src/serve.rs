//! `serve-1k`: the live daemon as an operator runs it.
//!
//! The shipped `ef-lora-serve` binary loads the `churn-heavy` catalog
//! scenario scaled ×5 (1000 devices, 2 gateways, steady and bursty
//! classes) with the default `ef-lora` strategy and the write-ahead
//! journal on. One client connection drives it in a closed loop, because
//! a network server waits for each reply, with the fixed mix 1 churn
//! write : 1 `Metrics` query : 2 `Device` lookups.
//!
//! The journal lies in the checkout, on a disk whose flush latency
//! belongs to the host rather than the program. On a memory-backed
//! directory a flush costs nothing, and `--fsync never` does the same:
//! every append (encode, checksum, write) still happens, only the flush
//! is dropped.
//!
//! Writes are where the time goes: the incremental repair inside
//! `ServeState::apply_churn` scans ~16k candidates per event, while the
//! journal, decode and encode take about 2 % together. `Metrics` queries
//! run `NetworkModel::evaluate`, so a change that moves work from writes
//! onto reads shows up in `eval_ms`. At 200 devices a request takes
//! ~0.4 ms and loopback jitter dominates, hence 1000.
//!
//! The catalog scenario is the deployment (its own seed); the run's seed
//! drives the request stream, which holds the population exactly: every
//! join is matched by a leave within two writes, and every migration by
//! the reverse migration. A write's cost grows with the devices it moves
//! (on a 2-vCPU x86-64 host a 1-device join takes about 3 ms, a 4-device
//! one about 8 ms), so writes of mixed sizes spread into one mode per
//! size, and the median write sits in the gap between two of them, where
//! it jumps with the host's speed. Every join, leave and migration
//! therefore moves two devices. Joins and leaves cost about five times
//! what a migration does, so the stream keeps the load generator's
//! 40/40/20 proportions: with half the writes migrations, the median
//! write would sit between those two modes.
//!
//! The first writes warm the daemon and the client up and are not
//! timed. The timed ones are cut into stretches of 50 writes, about a
//! quarter of a second each, and every metric is taken per stretch: the
//! writes' p50 (`alloc_ms`) and p90 (`alloc_tail_ms`), the `Metrics`
//! round trips' p50 net of the transport (`eval_ms`) and the request
//! rate (`ops_per_s`). For the net round trip, each query sits between
//! two `Device` lookups, which do almost no work, and their mean round
//! trip is taken off the query's, so the host's wake-up latency, which
//! moved the lookups from about 20 µs to 75 µs between batches of runs,
//! cancels out.
//!
//! The shared host runs at its sustained speed most of the time and in
//! bursts of seconds up to 1.6 times faster; the share of burst time in
//! a run ranged from none to 60 %, so a median over the run jumped
//! between the two speeds (quartile spreads of 19–30 % over ten seeds).
//! A metric is therefore the 90th percentile of its per-stretch times
//! (the 10th of the rates), which falls in the sustained speed whenever
//! that covers a tenth of the run, as it did in every run measured.
//!
//! Output checks: no `Error` response; the population ends at its
//! starting size; the daemon's response lines are byte-identical to an
//! in-process replay of the same stream through the server's own
//! dispatch; the daemon's journal holds exactly the replay's bytes; the
//! daemon exits cleanly on `Shutdown`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use ef_lora_serve::journal::{FsyncPolicy, Journal, JournalRecord};
use ef_lora_serve::protocol::{decode, encode, Request, Response};
use ef_lora_serve::server::{handle_line, respond, ServerOptions};
use ef_lora_serve::ServeState;
use lora_scenario::spec::{ChurnEvent, ChurnKind, ClassSpec};
use lora_scenario::{catalog, ScenarioSpec};

use crate::report::{fairness, median, peak_rss_mib, percentile, tail, Outcome};
use crate::trace::{finish_trace, Recorder};
use crate::{Args, Mix};

/// Catalog scenario and scale factor the daemon loads.
const SCENARIO: &str = "churn-heavy";
const SCALE: f64 = 5.0;
/// The daemon's allocation strategy (its default).
const STRATEGY: &str = "ef-lora";
/// Churn writes per second of `--seconds`: about the rate the mix
/// sustains on a 2-vCPU x86-64 host, so a run measures roughly the
/// requested time. The write count is fixed by `--seconds`, never by the
/// clock, so the final state is a pure function of seed and length.
const WRITES_PER_SECOND: u64 = 150;
/// The journal's flush policy, in the daemon and in-process.
const FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Devices every join, leave and migration moves.
const EVENT_SIZE: usize = 2;
/// Writes sent before the timed ones, to warm the daemon and the client.
const WARMUP_WRITES: u64 = 100;
/// Timed writes per stretch: the run is cut into stretches of this many
/// writes, with their lookups and queries, and each metric is taken per
/// stretch.
const STRETCH_WRITES: usize = 50;
/// Percentile over the stretches that reads the host's sustained speed:
/// the 90th for a time, the 10th for a rate.
const SUSTAINED_PERCENTILE: f64 = 90.0;
/// Requests per write: the write, a lookup, a `Metrics` query, a lookup.
const REQUESTS_PER_WRITE: usize = 4;
/// Daemon boots timed per run; `setup_s` is their upper quartile, the
/// host's sustained speed as for the paper pipeline's set-ups.
const BOOTS: usize = 5;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Write,
    Metrics,
    Lookup,
}

/// The request lines of one run, newline-terminated, with their kinds.
struct Stream {
    lines: Vec<String>,
    kinds: Vec<Kind>,
}

/// The spec the daemon builds from `--name churn-heavy --scale 5`.
fn spec() -> Result<ScenarioSpec, String> {
    let base = catalog::scenario(SCENARIO).ok_or("catalog scenario missing")?;
    let spec = catalog::scale_devices(&base, SCALE);
    spec.validate().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// A population-neutral request stream in blocks of ten writes, in the
/// load generator's proportions (40 % joins, 40 % leaves, 20 %
/// migrations): four joins of [`EVENT_SIZE`] devices of a class drawn by
/// its share, each followed within two writes by a leave of as many, and
/// a migration of as many devices from one class to another with its
/// reverse. Each write is followed by a lookup, a `Metrics` query and
/// another lookup.
fn stream(seed: u64, writes: u64, classes: &[ClassSpec], start: usize) -> Stream {
    let mut rng = Mix::new(seed, 2);
    let mut pop = start;
    let mut epoch = 0u32;
    let mut out = Stream {
        lines: Vec::new(),
        kinds: Vec::new(),
    };
    let push = |out: &mut Stream, request: Request, kind| {
        out.lines.push(encode(&request) + "\n");
        out.kinds.push(kind);
    };
    let total_share: f64 = classes.iter().map(|c| c.fraction).sum();
    for _ in 0..writes.div_ceil(10) {
        let a = rng.below(classes.len());
        let b = (a + 1 + rng.below(classes.len() - 1)) % classes.len();
        let (a, b) = (classes[a].name.clone(), classes[b].name.clone());
        let mut block = Vec::with_capacity(10);
        for pair in 0..4 {
            let draw = rng.unit() * total_share;
            let mut acc = 0.0;
            let joiner = classes
                .iter()
                .find(|c| {
                    acc += c.fraction;
                    draw < acc
                })
                .unwrap_or(&classes[classes.len() - 1]);
            block.push(ChurnKind::Join {
                class: joiner.name.clone(),
                count: EVENT_SIZE,
            });
            match pair {
                1 => block.push(ChurnKind::Migrate {
                    from: a.clone(),
                    to: b.clone(),
                    count: EVENT_SIZE,
                }),
                3 => block.push(ChurnKind::Migrate {
                    from: b.clone(),
                    to: a.clone(),
                    count: EVENT_SIZE,
                }),
                _ => {}
            }
            block.push(ChurnKind::Leave { count: EVENT_SIZE });
        }
        for event in block {
            epoch += 1;
            match &event {
                ChurnKind::Join { count, .. } => pop += count,
                ChurnKind::Leave { count } => pop -= count,
                ChurnKind::Migrate { .. } => {}
            }
            push(
                &mut out,
                Request::Churn(ChurnEvent { epoch, event }),
                Kind::Write,
            );
            let index = rng.below(pop);
            push(&mut out, Request::Device { index }, Kind::Lookup);
            push(&mut out, Request::Metrics, Kind::Metrics);
            let index = rng.below(pop);
            push(&mut out, Request::Device { index }, Kind::Lookup);
        }
    }
    out
}

/// A running daemon; killed and reaped on drop if it has not exited.
struct Daemon {
    child: Child,
    addr: String,
    journal: PathBuf,
}

impl Daemon {
    /// Starts the daemon with a fresh journal and waits until it accepts;
    /// returns it with the boot time in seconds.
    fn boot(args: &Args, tag: usize) -> Result<(Daemon, f64), String> {
        let journal = args
            .workdir
            .join(format!("serve-{}-{tag}.wal", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let started = Instant::now();
        let mut child = Command::new(&args.daemon)
            .args(["--name", SCENARIO, "--scale", &SCALE.to_string()])
            .args(["--strategy", STRATEGY])
            .arg("--journal")
            .arg(&journal)
            .args(["--fsync", &FSYNC.to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.daemon.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            journal,
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon banner: {e}"))?;
        let boot_s = started.elapsed().as_secs_f64();
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("daemon did not come up (banner `{}`)", line.trim()))?
            .to_string();
        Ok((daemon, boot_s))
    }

    fn connect(&self) -> Result<Client, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends `Shutdown`, waits for a clean exit and returns the length of
    /// the journal the daemon left.
    fn shutdown(mut self, client: &mut Client) -> Result<u64, String> {
        let reply = client.call("\"Shutdown\"\n")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if reply != encode(&Response::ShuttingDown) || !status.success() {
            return Err(format!("daemon shutdown: reply `{reply}`, exit {status}"));
        }
        std::fs::metadata(&self.journal)
            .map(|m| m.len())
            .map_err(|e| format!("daemon journal: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.journal);
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// One round trip; `line` carries its newline, the reply does not.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                reply.truncate(reply.trim_end_matches('\n').len());
                Ok(reply)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

fn info_devices(client: &mut Client) -> Result<usize, String> {
    match decode::<Response>(&client.call("\"Info\"\n")?)? {
        Response::Info { devices, .. } => Ok(devices),
        other => Err(format!("Info answered {other:?}")),
    }
}

/// What the daemon did with the stream.
struct Served {
    replies: Vec<String>,
    rtt_us: Vec<f64>,
    /// When each request was sent, seconds after the first.
    sent_s: Vec<f64>,
    /// When the last reply arrived, seconds after the first request.
    wall_s: f64,
    start_devices: usize,
    end_devices: usize,
    peak_rss_mib: f64,
    journal_bytes: u64,
}

/// Drives `daemon` with the stream over one closed-loop connection, then
/// shuts it down.
fn drive(daemon: Daemon, stream: &Stream) -> Result<Served, String> {
    // Client and daemon share one CPU: a reply then wakes the client with
    // a local context switch instead of an inter-processor interrupt,
    // whose latency on a shared VM host is the host's, not the program's.
    let cpu = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
    pin(daemon.child.id(), cpu)?;
    pin(std::process::id(), cpu)?;
    let mut client = daemon.connect()?;
    let start_devices = info_devices(&mut client)?;
    let mut replies = Vec::with_capacity(stream.lines.len());
    let mut rtt_us = Vec::with_capacity(stream.lines.len());
    let mut sent_s = Vec::with_capacity(stream.lines.len());
    let started = Instant::now();
    for line in &stream.lines {
        let sent = Instant::now();
        replies.push(client.call(line)?);
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        sent_s.push((sent - started).as_secs_f64());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let end_devices = info_devices(&mut client)?;
    let peak_rss_mib = peak_rss_mib(&daemon.child.id().to_string());
    let journal_bytes = daemon.shutdown(&mut client)?;
    Ok(Served {
        replies,
        rtt_us,
        sent_s,
        wall_s,
        start_devices,
        end_devices,
        peak_rss_mib,
        journal_bytes,
    })
}

/// Pins the main thread of process `pid` to CPU `cpu`.
fn pin(pid: u32, cpu: usize) -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A 1024-CPU `cpu_set_t`, the size glibc's `CPU_SETSIZE` fixes.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or("CPU index beyond cpu_set_t")? |= 1 << (cpu % 64);
    let pid = i32::try_from(pid).map_err(|e| e.to_string())?;
    // SAFETY: `mask` is an initialised buffer of exactly the size passed,
    // alive for the whole call, which only reads it.
    let status = unsafe { sched_setaffinity(pid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!(
            "pinning {pid} to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The timed requests' values of one kind.
fn of_kind(stream: &Stream, values: &[f64], kind: Kind) -> Vec<f64> {
    values
        .iter()
        .zip(&stream.kinds)
        .skip(timed_from())
        .filter(|(_, k)| **k == kind)
        .map(|(v, _)| *v)
        .collect()
}

/// Index of the first timed request: the warm-up writes come first.
fn timed_from() -> usize {
    WARMUP_WRITES as usize * REQUESTS_PER_WRITE
}

/// One timed stretch of [`STRETCH_WRITES`] writes with the lookups and
/// queries between them.
struct Stretch {
    /// Write round trips, p50 and p90, µs.
    write_p50_us: f64,
    write_p90_us: f64,
    /// `Metrics` round trips minus the mean round trip of the two
    /// `Device` lookups around each, p50, µs.
    query_net_us: f64,
    /// Requests per second, from the send of the stretch's first request
    /// to the send of the next stretch's (the end of the run for the
    /// last).
    rate: f64,
}

fn stretches(stream: &Stream, served: &Served) -> Vec<Stretch> {
    let rtt = &served.rtt_us;
    let per_stretch = STRETCH_WRITES * REQUESTS_PER_WRITE;
    (timed_from()..rtt.len())
        .step_by(per_stretch)
        .map(|first| {
            let next = (first + per_stretch).min(rtt.len());
            let of = |kind| (first..next).filter(move |&i| stream.kinds[i] == kind);
            let writes: Vec<f64> = of(Kind::Write).map(|i| rtt[i]).collect();
            let queries: Vec<f64> = of(Kind::Metrics)
                .map(|i| rtt[i] - (rtt[i - 1] + rtt[i + 1]) / 2.0)
                .collect();
            let end = served.sent_s.get(next).copied().unwrap_or(served.wall_s);
            Stretch {
                write_p50_us: median(&writes),
                write_p90_us: percentile(&writes, 90.0),
                query_net_us: median(&queries),
                rate: (next - first) as f64 / (end - served.sent_s[first]),
            }
        })
        .collect()
}

/// Percentile `p` over the stretches of a per-stretch quantity.
fn over_stretches(stretches: &[Stretch], of: fn(&Stretch) -> f64, p: f64) -> f64 {
    percentile(&stretches.iter().map(of).collect::<Vec<_>>(), p)
}

fn new_state(spec: &ScenarioSpec) -> Result<ServeState, String> {
    let strategy = ef_lora_serve::app::strategy_by_name(STRATEGY)?;
    ServeState::new(spec.clone(), strategy.as_ref()).map_err(|e| e.to_string())
}

fn new_journal(path: &Path, spec: &ScenarioSpec) -> Result<Journal, String> {
    let genesis = JournalRecord::Genesis {
        strategy: STRATEGY.to_string(),
        spec: spec.clone(),
    };
    Journal::create(path, FSYNC, &genesis).map_err(|e| e.to_string())
}

/// Replays the stream in-process through the server's own dispatch
/// (`handle_line`: decode, journal append, respond); returns the encoded
/// replies and the journal length.
fn replay(
    state: &mut ServeState,
    journal_path: &Path,
    spec: &ScenarioSpec,
    stream: &Stream,
) -> Result<(Vec<String>, u64), String> {
    let mut journal = Some(new_journal(journal_path, spec)?);
    let options = ServerOptions::default();
    let replies: Vec<String> = stream
        .lines
        .iter()
        .map(|line| encode(&handle_line(state, &options, &mut journal, line.trim_end()).0))
        .collect();
    let bytes = journal.as_ref().map_or(0, Journal::bytes);
    drop(journal);
    let _ = std::fs::remove_file(journal_path);
    Ok((replies, bytes))
}

/// Checks shared by both modes: every reply is a success, identical to
/// the in-process replay, and the population and journal line up.
fn check_served(outcome: &mut Outcome, served: &Served, replayed: &[String], replay_bytes: u64) {
    for (i, (daemon, local)) in served.replies.iter().zip(replayed).enumerate() {
        let is_error = daemon.starts_with("{\"Error\"");
        outcome.check(!is_error && daemon == local, || {
            format!("request {i}: daemon `{daemon}` vs replay `{local}`")
        });
    }
    outcome.check(served.replies.len() == replayed.len(), || {
        format!(
            "{} daemon replies vs {} replayed",
            served.replies.len(),
            replayed.len()
        )
    });
    outcome.check(served.end_devices == served.start_devices, || {
        format!(
            "population drifted from {} to {}",
            served.start_devices, served.end_devices
        )
    });
    outcome.check(served.journal_bytes == replay_bytes, || {
        format!(
            "daemon journal holds {} bytes, replay {}",
            served.journal_bytes, replay_bytes
        )
    });
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec()?;
    let classes = spec.effective_classes();
    let start = spec_device_count(&spec)?;
    let writes = WARMUP_WRITES + WRITES_PER_SECOND * args.seconds;
    let stream = stream(args.seed, writes, &classes, start);
    let mut outcome = Outcome::default();

    let boots = if args.trace { 1 } else { BOOTS };
    let mut boot_s = Vec::with_capacity(boots);
    let mut daemon = None;
    for tag in 0..boots {
        let (booted, seconds) = Daemon::boot(args, tag)?;
        boot_s.push(seconds);
        if tag + 1 < boots {
            let mut client = booted.connect()?;
            booted.shutdown(&mut client)?;
        } else {
            daemon = Some(booted);
        }
    }
    let served = drive(daemon.ok_or("no daemon booted")?, &stream)?;

    let replay_path = args
        .workdir
        .join(format!("serve-{}-replay.wal", std::process::id()));
    let mut state = new_state(&spec)?;
    let (replayed, replay_bytes) = replay(&mut state, &replay_path, &spec, &stream)?;
    check_served(&mut outcome, &served, &replayed, replay_bytes);

    let writes = of_kind(&stream, &served.rtt_us, Kind::Write);
    let queries = of_kind(&stream, &served.rtt_us, Kind::Metrics);
    let lookups = of_kind(&stream, &served.rtt_us, Kind::Lookup);
    eprintln!(
        "serve-1k: {} requests ({} writes, {} queries, {} lookups timed after {WARMUP_WRITES} \
         warm-up writes) in {:.3} s",
        stream.lines.len(),
        writes.len(),
        queries.len(),
        lookups.len(),
        served.wall_s
    );

    if args.trace {
        traced(args, &mut outcome, &spec, &stream, &replayed)?;
        outcome.set("serve.lookup_rtt_p50_us", median(&lookups));
        outcome.set("serve.lookup_rtt_p99_us", tail(&lookups));
        outcome.set("serve.query_p99_ms", tail(&queries) / 1e3);
        return Ok(outcome);
    }

    let mut jain = Vec::with_capacity(queries.len());
    for (reply, kind) in served.replies.iter().zip(&stream.kinds) {
        if *kind == Kind::Metrics {
            match decode::<Response>(reply)? {
                Response::Metrics { jain: j, .. } => jain.push(j),
                other => return Err(format!("Metrics answered {other:?}")),
            }
        }
    }
    outcome.set("setup_s", percentile(&boot_s, 75.0));
    let stretches = stretches(&stream, &served);
    let ms = |of| over_stretches(&stretches, of, SUSTAINED_PERCENTILE) / 1e3;
    outcome.set("alloc_ms", ms(|s| s.write_p50_us));
    outcome.set("alloc_tail_ms", ms(|s| s.write_p90_us));
    outcome.set("eval_ms", ms(|s| s.query_net_us));
    outcome.set(
        "ops_per_s",
        over_stretches(&stretches, |s| s.rate, 100.0 - SUSTAINED_PERCENTILE),
    );
    outcome.set("jain", median(&jain));
    outcome.set("peak_rss_mib", served.peak_rss_mib);
    Ok(outcome)
}

fn spec_device_count(spec: &ScenarioSpec) -> Result<usize, String> {
    lora_scenario::compile(spec)
        .map(|c| c.topology.device_count())
        .map_err(|e| e.to_string())
}

/// The traced replay: the same stream, in-process, in the order
/// `respond_journaled` uses — decode, journal append, respond, encode —
/// with a span around each call.
fn traced(
    args: &Args,
    outcome: &mut Outcome,
    spec: &ScenarioSpec,
    stream: &Stream,
    expected: &[String],
) -> Result<(), String> {
    let mut rec = Recorder::new();
    let journal_path = args
        .workdir
        .join(format!("serve-{}-traced.wal", std::process::id()));
    let options = ServerOptions::default();
    let phase_start = Instant::now();
    let mut state = rec.span("serve.state.boot", 0, |_| new_state(spec))?;
    let mut journal = rec.span("serve.journal.create", 0, |_| {
        new_journal(&journal_path, spec)
    })?;
    let mut replies = Vec::with_capacity(stream.lines.len());
    for (i, line) in stream.lines.iter().enumerate() {
        let id = i as u64 + 1;
        let reply = rec.span("serve.request", id, |rec| -> Result<String, String> {
            let request = rec.span("serve.protocol.decode", id, |_| {
                decode::<Request>(line.trim_end())
            })?;
            let response = match request {
                Request::Churn(_) => {
                    let record = JournalRecord::Mutation {
                        applied: state.mutations_applied(),
                        request: request.clone(),
                    };
                    let before = journal.bytes();
                    rec.span("serve.journal.append", id, |_| journal.append(&record))
                        .map_err(|e| e.to_string())?;
                    rec.add("serve.journal.bytes", (journal.bytes() - before) as f64);
                    let response = rec.span("serve.state.apply", id, |_| {
                        respond(&mut state, &options, request).0
                    });
                    if let Response::Churned {
                        candidates_evaluated,
                        reconfigured,
                        ..
                    } = &response
                    {
                        rec.add("core.incremental.candidates", *candidates_evaluated as f64);
                        rec.add("core.incremental.reconfigured", *reconfigured as f64);
                    }
                    response
                }
                Request::Metrics => rec.span("lora-model.evaluate", id, |_| {
                    respond(&mut state, &options, request).0
                }),
                other => rec.span("serve.state.lookup", id, |_| {
                    respond(&mut state, &options, other).0
                }),
            };
            Ok(rec.span("serve.protocol.encode", id, |_| encode(&response)))
        })?;
        replies.push(reply);
    }
    let phase_end = Instant::now();
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);

    let mismatches = replies.iter().zip(expected).filter(|(a, b)| a != b).count();
    outcome.check(mismatches == 0 && replies.len() == expected.len(), || {
        format!("traced replay differs from the daemon on {mismatches} replies")
    });

    let layers = [
        "serve.state.boot",
        "serve.journal.create",
        "serve.protocol.decode",
        "serve.journal.append",
        "serve.state.apply",
        "lora-model.evaluate",
        "serve.state.lookup",
        "serve.protocol.encode",
    ];
    finish_trace(args, outcome, &rec, &layers, phase_start, phase_end)?;
    let apply = rec.durations_us("serve.state.apply");
    let candidates = rec.count("core.incremental.candidates");
    let reconfigured = rec.count("core.incremental.reconfigured");
    outcome.set("serve.state.boot_ms", rec.total_ms("serve.state.boot"));
    outcome.set(
        "serve.protocol.self_ms",
        rec.self_ms("serve.protocol.decode") + rec.self_ms("serve.protocol.encode"),
    );
    outcome.set(
        "serve.journal.append_self_ms",
        rec.self_ms("serve.journal.append"),
    );
    outcome.set(
        "serve.journal.append_p99_us",
        tail(&rec.durations_us("serve.journal.append")),
    );
    outcome.set("serve.journal.bytes", rec.count("serve.journal.bytes"));
    outcome.set(
        "serve.state.apply_self_ms",
        rec.self_ms("serve.state.apply"),
    );
    outcome.set("serve.state.apply_p50_us", median(&apply));
    outcome.set("serve.state.apply_p99_us", percentile(&apply, 99.0));
    outcome.set("core.incremental.candidates", candidates);
    outcome.set("core.incremental.reconfigured", reconfigured);
    outcome.set(
        "core.incremental.reconfigured_per_kcand",
        if candidates > 0.0 {
            reconfigured / (candidates / 1e3)
        } else {
            0.0
        },
    );
    outcome.set(
        "lora-model.evaluate_p50_us",
        median(&rec.durations_us("lora-model.evaluate")),
    );
    let [min_ee, _, starved] = fairness(&state.cached_model().evaluate(state.alloc()));
    outcome.set("output.min_ee", min_ee);
    outcome.set("output.starved_share", starved);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_holds_the_population_in_load_generator_proportions() {
        let spec = spec().unwrap();
        let start = spec_device_count(&spec).unwrap();
        let stream = stream(7, 100, &spec.effective_classes(), start);
        let (mut pop, mut joins, mut leaves, mut migrations) = (start, 0, 0, 0);
        for (line, kind) in stream.lines.iter().zip(&stream.kinds) {
            match decode::<Request>(line.trim_end()).unwrap() {
                Request::Churn(ChurnEvent { event, .. }) => {
                    assert!(*kind == Kind::Write);
                    let moved = match event {
                        ChurnKind::Join { count, .. } => {
                            (pop, joins) = (pop + count, joins + 1);
                            count
                        }
                        ChurnKind::Leave { count } => {
                            (pop, leaves) = (pop - count, leaves + 1);
                            count
                        }
                        ChurnKind::Migrate { count, .. } => {
                            migrations += 1;
                            count
                        }
                    };
                    assert_eq!(moved, EVENT_SIZE, "every write moves as many devices");
                    assert!(
                        pop.abs_diff(start) <= EVENT_SIZE,
                        "a leave follows each join"
                    );
                }
                Request::Device { index } => assert!(index < pop),
                Request::Metrics => {}
                other => panic!("unexpected request {other:?}"),
            }
        }
        assert_eq!(pop, start);
        assert_eq!((joins, leaves, migrations), (40, 40, 20));
        assert_eq!(stream.lines.len(), REQUESTS_PER_WRITE * 100);
        let metrics = stream
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == Kind::Metrics);
        for (i, _) in metrics {
            assert!(stream.kinds[i - 1] == Kind::Lookup && stream.kinds[i + 1] == Kind::Lookup);
        }
    }

    #[test]
    fn stretches_net_out_the_lookups_and_skip_the_warm_up() {
        let spec = spec().unwrap();
        let start = spec_device_count(&spec).unwrap();
        let writes = WARMUP_WRITES + 2 * STRETCH_WRITES as u64;
        let stream = stream(3, writes, &spec.effective_classes(), start);
        let rtt_us: Vec<f64> = stream
            .kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| match kind {
                _ if i < timed_from() => 1e6,
                Kind::Write => 4_000.0,
                Kind::Metrics => 320.0,
                Kind::Lookup => 20.0,
            })
            .collect();
        let n = rtt_us.len();
        let served = Served {
            replies: Vec::new(),
            rtt_us,
            sent_s: (0..n).map(|i| i as f64 * 1e-3).collect(),
            wall_s: n as f64 * 1e-3,
            start_devices: start,
            end_devices: start,
            peak_rss_mib: 0.0,
            journal_bytes: 0,
        };
        let stretches = stretches(&stream, &served);
        assert_eq!(stretches.len(), 2);
        for s in &stretches {
            assert_eq!((s.write_p50_us, s.write_p90_us), (4_000.0, 4_000.0));
            assert_eq!(s.query_net_us, 300.0);
            assert!(
                (s.rate - 1_000.0).abs() < 1e-6,
                "one request per ms: {}",
                s.rate
            );
        }
    }
}
