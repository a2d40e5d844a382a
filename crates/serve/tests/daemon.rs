//! End-to-end daemon tests: spawn the real binaries, drive the wire
//! protocol, kill the process, and restore from the snapshot.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ef_lora::EfLora;
use ef_lora_serve::app::strategy_by_name;
use ef_lora_serve::journal::{self, JournalRecord};
use ef_lora_serve::protocol::{encode, Request};
use ef_lora_serve::reference::ReferenceState;
use ef_lora_serve::{loadgen, serve, RecoveryInfo, ServeState, ServerOptions};
use lora_scenario::catalog;

#[path = "support/temp_dir.rs"]
mod temp_dir;

use temp_dir::TempDir;

/// Spawns the daemon binary and scrapes the listen address from stdout.
fn spawn_daemon(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ef-lora-serve"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon must spawn");
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// A raw protocol connection capturing response lines verbatim.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = loadgen::connect_with_retry(addr, Duration::from_secs(10)).unwrap();
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn send_line(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "daemon closed the connection");
        response.trim_end().to_string()
    }

    fn send(&mut self, request: &Request) -> String {
        self.send_line(&encode(request))
    }
}

/// The query battery whose raw response bytes must survive a restart.
fn query_battery(client: &mut Client) -> Vec<String> {
    let mut lines = vec![
        client.send(&Request::Info),
        client.send(&Request::Metrics),
        client.send(&Request::Status),
    ];
    for index in [0usize, 7, 23] {
        lines.push(client.send(&Request::Device { index }));
    }
    lines
}

#[test]
fn kill_then_restore_resumes_with_byte_identical_queries() {
    let dir = TempDir::new("serve-restore");
    let snap = dir.path().join("snap.json");
    let (mut child, addr) = spawn_daemon(&[
        "--name",
        "churn-heavy",
        "--scale",
        "0.2",
        "--snapshot",
        snap.to_str().unwrap(),
    ]);

    // Drive a churn burst, snapshot through the protocol, and record the
    // query battery.
    let report = loadgen::run_burst(&addr, 11, 40, true, false).unwrap();
    assert_eq!(report.events, 40);
    assert!(snap.exists(), "snapshot must land on disk");
    let mut client = Client::connect(&addr);
    let before = query_battery(&mut client);
    drop(client);

    // Crash the daemon (no clean shutdown) and restore from the snapshot.
    child.kill().unwrap();
    child.wait().unwrap();
    let (mut child, addr) = spawn_daemon(&["--restore", snap.to_str().unwrap()]);
    let mut client = Client::connect(&addr);
    let after = query_battery(&mut client);
    // The daemon serves one connection at a time: release it before the
    // load generator dials in.
    drop(client);
    assert_eq!(
        before, after,
        "every query response must be byte-identical after restore"
    );

    // The restored daemon keeps serving churn from the same stream
    // cursor; then shut it down cleanly.
    let resumed = loadgen::run_burst(&addr, 12, 10, false, true).unwrap();
    assert_eq!(resumed.events, 10);
    let status = child.wait().unwrap();
    assert!(status.success(), "clean shutdown must exit zero");
}

#[test]
fn malformed_lines_get_in_band_errors_and_the_connection_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.1);
    let state = ServeState::new(spec, &EfLora::default()).unwrap();
    let server = std::thread::spawn(move || {
        serve(listener, state, &ServerOptions::default()).unwrap();
    });

    let mut client = Client::connect(&addr);
    let garbage = client.send_line("{definitely not json");
    assert!(garbage.contains("Error"), "got: {garbage}");
    let unknown = client.send_line(r#"{"Frobnicate":{}}"#);
    assert!(unknown.contains("Error"), "got: {unknown}");
    // Out-of-range device index: in-band error, connection stays open.
    let out_of_range = client.send(&Request::Device { index: 10_000 });
    assert!(out_of_range.contains("out of range"), "got: {out_of_range}");
    // Unconfigured snapshot path: in-band error.
    let no_snapshot = client.send(&Request::Snapshot);
    assert!(no_snapshot.contains("Error"), "got: {no_snapshot}");
    // The same connection still answers healthy requests.
    assert_eq!(client.send(&Request::Ping), r#""Pong""#);
    assert_eq!(client.send(&Request::Shutdown), r#""ShuttingDown""#);
    server.join().unwrap();
}

#[test]
fn measure_windows_feed_the_controller() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.1);
    let state = ServeState::new(spec, &EfLora::default()).unwrap();
    let server = std::thread::spawn(move || {
        serve(listener, state, &ServerOptions::default()).unwrap();
    });

    let mut client = Client::connect(&addr);
    let measured = client.send(&Request::Measure);
    assert!(measured.contains("Measured"), "got: {measured}");
    let status = client.send(&Request::Status);
    assert!(status.contains(r#""windows_observed":1"#), "got: {status}");
    client.send(&Request::Shutdown);
    server.join().unwrap();
}

/// Waits until the journal file grows past `threshold` bytes (or a
/// generous deadline passes — assertions downstream will then explain
/// what went wrong instead of hanging the suite).
fn wait_for_journal_growth(path: &Path, threshold: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) > threshold {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The churn-heavy class names, in the daemon's `Info` order, for
/// generating an event stream without a handshake.
fn churn_heavy_classes(scale: f64) -> Vec<String> {
    catalog::scale_devices(&catalog::churn_heavy(), scale)
        .classes
        .map(|classes| classes.into_iter().map(|c| c.name).collect())
        .unwrap_or_default()
}

/// The process-level chaos acceptance test: SIGKILL the daemon in the
/// middle of a journaled churn burst — no snapshot request anywhere in
/// flight — restart from the journal alone, and demand the recovered
/// daemon serve **byte-identical** responses to a from-scratch
/// [`ReferenceState`] replay of the durable record prefix.
#[test]
fn sigkill_mid_burst_recovers_exactly_the_durable_journal_prefix() {
    let dir = TempDir::new("serve-sigkill");
    let journal_path = dir.path().join("wal.journal");
    let (mut child, addr) = spawn_daemon(&[
        "--name",
        "churn-heavy",
        "--scale",
        "0.2",
        "--journal",
        journal_path.to_str().unwrap(),
        "--fsync",
        "always",
    ]);
    // Journal size right after boot: magic + the genesis base record.
    let base_len = std::fs::metadata(&journal_path).unwrap().len();

    // Burst thread: synchronous churn round-trips, tolerant of the
    // daemon dying mid-exchange (that is the point).
    let classes = churn_heavy_classes(0.2);
    let events = loadgen::generate_events(31, 400, &classes);
    let total = events.len();
    let addr_burst = addr.clone();
    let burst = std::thread::spawn(move || {
        let stream = loadgen::connect_with_retry(&addr_burst, Duration::from_secs(10)).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut acked = 0usize;
        for event in &events {
            let line = encode(&Request::Churn(event.clone()));
            let sent = writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            if sent.is_err() {
                break;
            }
            let mut response = String::new();
            match reader.read_line(&mut response) {
                Ok(n) if n > 0 && response.contains("Churned") => acked += 1,
                _ => break,
            }
        }
        acked
    });

    // SIGKILL once a few dozen mutation records are durable — a point
    // chosen by journal growth, not by any client-side coordination.
    wait_for_journal_growth(&journal_path, base_len + 4_000);
    child.kill().unwrap();
    child.wait().unwrap();
    let acked = burst.join().unwrap();
    assert!(acked > 0, "the daemon must have applied part of the burst");
    assert!(acked < total, "the kill must land mid-burst, not after it");

    // Ground truth: replay the durable journal prefix through the
    // independent reference oracle.
    let scanned = journal::scan(&journal_path).unwrap();
    let mut records = scanned.records.iter();
    let mut oracle = match records.next() {
        Some(JournalRecord::Genesis { strategy, spec }) => {
            let strategy = strategy_by_name(strategy).unwrap();
            ReferenceState::new(spec.clone(), strategy.as_ref()).unwrap()
        }
        other => panic!("journal must start with the genesis base, got {other:?}"),
    };
    let mut replayed = 0u64;
    for record in records {
        match record {
            JournalRecord::Mutation {
                request: Request::Churn(event),
                ..
            } => drop(oracle.apply_churn(event)),
            JournalRecord::Mutation {
                request: Request::Measure,
                ..
            } => drop(oracle.measure()),
            other => panic!("unexpected journal record {other:?}"),
        }
        replayed += 1;
    }
    // `--fsync always`: every acknowledged request was durable first.
    assert!(
        replayed as usize >= acked,
        "journal holds {replayed} mutations but {acked} were acked"
    );
    oracle.set_recovery(Some(RecoveryInfo {
        snapshot_loaded: false,
        replayed,
    }));

    // Restart from the journal alone and byte-compare the battery.
    let (mut child, addr) = spawn_daemon(&[
        "--journal",
        journal_path.to_str().unwrap(),
        "--fsync",
        "always",
    ]);
    let mut client = Client::connect(&addr);
    let live = query_battery(&mut client);
    let mut expected = vec![
        encode(&oracle.respond(Request::Info)),
        encode(&oracle.respond(Request::Metrics)),
        encode(&oracle.respond(Request::Status)),
    ];
    for index in [0usize, 7, 23] {
        expected.push(encode(&oracle.respond(Request::Device { index })));
    }
    assert_eq!(
        live, expected,
        "recovered daemon must serve the oracle's bytes for the durable prefix"
    );

    // The recovered daemon resumes appending: a continuation burst stays
    // in lockstep with the oracle, response by response.
    for event in loadgen::generate_events(32, 5, &classes) {
        let from_daemon = client.send(&Request::Churn(event.clone()));
        let from_oracle = encode(&oracle.respond(Request::Churn(event)));
        assert_eq!(from_daemon, from_oracle, "post-recovery churn diverged");
    }
    assert_eq!(client.send(&Request::Shutdown), r#""ShuttingDown""#);
    drop(client);
    let status = child.wait().unwrap();
    assert!(status.success(), "clean shutdown must exit zero");
}

#[test]
fn idle_connections_time_out_and_the_next_client_is_served() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.1);
    let state = ServeState::new(spec, &EfLora::default()).unwrap();
    let options = ServerOptions {
        read_timeout: Some(Duration::from_millis(60)),
        ..Default::default()
    };
    let server = std::thread::spawn(move || {
        serve(listener, state, &options).unwrap();
    });

    // A wedged client connects first and sends nothing. The daemon is
    // single-threaded: without the timeout this would starve everyone
    // behind it forever.
    let idle = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let mut client = Client::connect(&addr);
    assert_eq!(client.send(&Request::Ping), r#""Pong""#);
    // Only now release the idle connection: the Pong above proves the
    // *timeout* (not a client-side close) returned the loop to accept.
    drop(idle);
    assert_eq!(client.send(&Request::Shutdown), r#""ShuttingDown""#);
    server.join().unwrap();
}

#[test]
fn oversize_request_lines_get_an_in_band_error_and_the_connection_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.1);
    let state = ServeState::new(spec, &EfLora::default()).unwrap();
    let options = ServerOptions {
        max_line_bytes: 1024,
        ..Default::default()
    };
    let server = std::thread::spawn(move || {
        serve(listener, state, &options).unwrap();
    });

    let mut client = Client::connect(&addr);
    let oversize = "x".repeat(8 * 1024);
    let response = client.send_line(&oversize);
    assert!(
        response.contains("exceeds 1024 bytes"),
        "oversize lines must be refused in-band, got: {response}"
    );
    // The line was drained, not buffered: the connection still serves.
    assert_eq!(client.send(&Request::Ping), r#""Pong""#);
    assert_eq!(client.send(&Request::Shutdown), r#""ShuttingDown""#);
    server.join().unwrap();
}

/// The chaos loadgen rides through a SIGKILL + journal restart on the
/// same port: seeded retry/backoff reconnects, the interrupted event is
/// re-sent, and every event of the burst is eventually acknowledged.
#[test]
fn chaos_loadgen_rides_through_a_sigkill_restart() {
    let dir = TempDir::new("serve-chaos-loadgen");
    let journal_path = dir.path().join("wal.journal");
    let (mut child, addr) = spawn_daemon(&[
        "--name",
        "churn-heavy",
        "--scale",
        "0.15",
        "--journal",
        journal_path.to_str().unwrap(),
        "--fsync",
        "always",
    ]);
    let port = addr.rsplit(':').next().unwrap().to_string();
    let base_len = std::fs::metadata(&journal_path).unwrap().len();

    let addr_burst = addr.clone();
    let burst = std::thread::spawn(move || {
        loadgen::run_chaos_burst(
            &addr_burst,
            41,
            300,
            &loadgen::ChaosOptions {
                retries: 12,
                backoff_ms: 20,
            },
        )
    });

    wait_for_journal_growth(&journal_path, base_len + 2_500);
    child.kill().unwrap();
    child.wait().unwrap();
    // Restart on the same port so the client's redial lands.
    let (mut child, _) = spawn_daemon(&[
        "--journal",
        journal_path.to_str().unwrap(),
        "--fsync",
        "always",
        "--port",
        &port,
    ]);

    let report = burst
        .join()
        .unwrap()
        .expect("chaos burst must survive the restart");
    assert_eq!(
        report.events_pre_restart + report.events_post_restart,
        300,
        "every event must eventually be acknowledged: {report:?}"
    );
    assert!(
        report.reconnects >= 1 && report.resent >= 1,
        "the kill must interrupt the burst: {report:?}"
    );
    assert!(
        report.events_post_restart > 0,
        "the recovered daemon must keep taking events: {report:?}"
    );

    let mut client = Client::connect(&addr);
    assert_eq!(client.send(&Request::Shutdown), r#""ShuttingDown""#);
    drop(client);
    let status = child.wait().unwrap();
    assert!(status.success(), "clean shutdown must exit zero");
}

#[test]
fn loadgen_burst_is_deterministic_in_effects() {
    // Two daemons fed the same seed apply the same events: identical
    // population effects (latencies differ, effects must not).
    let run = || {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let spec = catalog::scale_devices(&catalog::churn_heavy(), 0.15);
        let state = ServeState::new(spec, &EfLora::default()).unwrap();
        let server = std::thread::spawn(move || {
            serve(listener, state, &ServerOptions::default()).unwrap();
        });
        let report = loadgen::run_burst(&addr, 21, 60, false, true).unwrap();
        server.join().unwrap();
        report
    };
    let (a, b) = (run(), run());
    assert_eq!(a.events, 60);
    assert_eq!(
        (a.joined, a.left, a.migrated, a.reconfigured, a.warnings),
        (b.joined, b.left, b.migrated, b.reconfigured, b.warnings)
    );
    assert!(
        a.events_per_sec > 0.0 && a.latency.p99_us > 0.0,
        "latency accounting must be populated"
    );
}
