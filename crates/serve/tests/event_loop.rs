//! Adversarial and lifecycle tests for the event-loop front end: clients
//! that drip, stall, pipeline, disconnect mid-request, or arrive faster
//! than the queue drains. Everything here talks raw TCP on purpose — the
//! polite `Client` wrapper can't misbehave in the ways these tests need.

use bbs_json::Json;
use bbs_models::zoo;
use bbs_serve::client::Client;
use bbs_serve::event_loop::PollerKind;
use bbs_serve::registry::accelerator_by_name;
use bbs_serve::server::{start, ServeConfig, ServerHandle};
use bbs_serve::service::ServiceConfig;
use bbs_sim::engine::simulate_with;
use bbs_sim::json::sim_result_to_json;
use bbs_sim::{ArrayConfig, WorkloadStore};
use bbs_telemetry::FaultPlan;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn server_with(configure: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            workers: 2,
            queue_depth: 16,
            max_cap: 65536,
            ..ServiceConfig::default()
        },
        ..ServeConfig::default()
    };
    configure(&mut config);
    start(config).expect("bind ephemeral port")
}

const SIM_BODY: &str =
    r#"{"model":"ViT-Small","accelerator":"stripes","seed":7,"max_weights_per_layer":128}"#;

fn http_post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one Content-Length-framed response off a raw socket; returns
/// `(status, headers, body)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, Vec<String>, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let (head_end, content_length, status, headers) = loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..pos]).expect("utf8 head");
            let mut lines = head.split("\r\n");
            let status: u16 = lines
                .next()
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|s| s.parse().ok())
                .expect("status line");
            let headers: Vec<String> = lines.map(str::to_string).collect();
            let content_length: usize = headers
                .iter()
                .find_map(|h| {
                    h.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(|v| v.trim().parse().expect("length"))
                })
                .expect("content-length header");
            break (pos + 4, content_length, status, headers);
        }
    };
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end..head_end + content_length].to_vec()).unwrap();
    // Anything past the body belongs to the next pipelined response; the
    // callers that pipeline keep their own buffer instead of this helper.
    assert_eq!(buf.len(), head_end + content_length, "over-read");
    (status, headers, body)
}

#[test]
fn slowloris_header_drip_is_reaped_on_the_request_deadline() {
    let server = server_with(|c| c.idle_timeout = Duration::from_millis(300));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Drip a byte of the request head every 50 ms, never finishing it.
    // The deadline anchors at the *first* byte, so the dripping cannot
    // keep the connection alive past idle_timeout.
    let started = Instant::now();
    let head = b"GET /healthz HTTP/1.1\r\nhost: t\r\nx-drip: ";
    let mut disconnected = false;
    for (i, byte) in head.iter().cycle().enumerate() {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            disconnected = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "server never dropped the slowloris connection (sent {i} bytes)"
        );
    }
    if !disconnected {
        let mut buf = [0u8; 16];
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0, "expected EOF");
    }
    assert!(
        started.elapsed() >= Duration::from_millis(250),
        "dropped before the deadline could have passed"
    );

    // The server itself is fine — a polite client still gets served.
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, _) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let server = server_with(|c| c.idle_timeout = Duration::from_millis(200));
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // One healthy exchange, then silence: the reaper should close us.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);

    let mut buf = [0u8; 16];
    let n = stream.read(&mut buf).expect("EOF, not a read error");
    assert_eq!(n, 0, "expected the idle connection to be closed");
    server.stop();
}

#[test]
fn pipelined_burst_returns_responses_in_order() {
    let server = server_with(|_| {});
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // A mixed burst in ONE write: routing responses interleaved with a
    // real simulation (which suspends parsing until the worker finishes).
    let burst = [
        http_post("/simulate", SIM_BODY),
        "GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n".to_string(),
        http_post("/simulate", SIM_BODY),
        "GET /models HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n".to_string(),
        "GET /nope HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n".to_string(),
    ]
    .concat();
    stream.write_all(burst.as_bytes()).unwrap();

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut statuses = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    while statuses.len() < 5 {
        let n = stream.read(&mut chunk).expect("read burst responses");
        assert!(
            n > 0,
            "connection closed after {} responses",
            statuses.len()
        );
        raw.extend_from_slice(&chunk[..n]);
        // Parse as many complete responses as the buffer holds.
        while let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..pos]).unwrap().to_string();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap();
            let len: usize = head
                .to_ascii_lowercase()
                .lines()
                .find_map(|l| {
                    l.strip_prefix("content-length:")
                        .map(|v| v.trim().to_string())
                })
                .and_then(|v| v.parse().ok())
                .unwrap();
            if raw.len() < pos + 4 + len {
                break;
            }
            bodies.push(String::from_utf8(raw[pos + 4..pos + 4 + len].to_vec()).unwrap());
            raw.drain(..pos + 4 + len);
            statuses.push(status);
        }
    }
    assert_eq!(statuses, [200, 200, 200, 200, 404], "pipeline order");
    assert!(
        bodies[0].contains("\"served\":\"simulated\""),
        "{}",
        bodies[0]
    );
    assert!(bodies[1].contains("\"status\":\"ok\""));
    // The duplicate simulation is a cache (or coalesce) hit, never re-run.
    assert!(bodies[2].contains("\"result\""), "{}", bodies[2]);
    assert!(bodies[3].contains("\"models\""));
    assert!(bodies[4].contains("no such route"));
    server.stop();
}

#[test]
fn request_split_across_many_tiny_writes_still_parses() {
    let server = server_with(|_| {});
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let request = http_post("/simulate", SIM_BODY);
    for chunk in request.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"result\""));
    server.stop();
}

#[test]
fn mid_body_disconnect_leaves_the_server_healthy() {
    let server = server_with(|_| {});

    // Disconnect halfway through a declared body.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let head = format!(
            "POST /simulate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            SIM_BODY.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&SIM_BODY.as_bytes()[..10]).unwrap();
        // Drop: FIN mid-request.
    }
    // Disconnect while a simulation is in flight (response never read).
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(http_post("/simulate", SIM_BODY).as_bytes())
            .unwrap();
        // Give the loop a moment to dispatch it, then vanish.
        std::thread::sleep(Duration::from_millis(50));
    }

    // The completion for the dead connection must not wedge the loop.
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, body) = client.simulate(SIM_BODY).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(
        stats.get("errors").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    server.stop();
}

#[test]
fn queue_full_connections_park_and_all_succeed() {
    // One worker, queue depth 1: concurrent distinct requests MUST
    // overflow the queue, so without parking some would 503. With parking
    // every one of them lands a 200.
    let server = server_with(|c| {
        c.service.workers = 1;
        c.service.queue_depth = 1;
        c.park_timeout = Duration::from_secs(60);
    });
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let body = format!(
                    "{{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
                     \"seed\":{},\"max_weights_per_layer\":64}}",
                    100 + i
                );
                client.simulate(&body).unwrap()
            })
        })
        .collect();
    for h in handles {
        let (status, body) = h.join().unwrap();
        assert_eq!(status, 200, "parked request failed: {body}");
    }

    let mut client = Client::connect(addr).unwrap();
    let (_, stats) = client.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("sim_runs").and_then(Json::as_u64), Some(6));
    assert!(
        stats.get("connections_peak").and_then(Json::as_u64) >= Some(6),
        "{stats}"
    );
    server.stop();
}

/// A server with one worker held `delay_ms` per simulation and a queue of
/// one: two distinct requests fill it, so any third waits on the queue
/// for as long as the delay lasts.
fn saturated_server(delay_ms: u64, park_timeout: Duration) -> ServerHandle {
    server_with(|c| {
        c.service.workers = 1;
        c.service.queue_depth = 1;
        c.service.faults = Arc::new(FaultPlan::parse(&format!("sim_delay_ms={delay_ms}")).unwrap());
        c.park_timeout = park_timeout;
    })
}

/// Sends `n` distinct `/simulate` requests at once, one connection each,
/// and returns every `(status, body, headers)`; the headers are the ones
/// the tests check (`retry-after`, `connection`, `x-bbs-trace`).
fn simultaneous_requests(server: &ServerHandle, n: u64) -> Vec<(u16, String, [Option<String>; 3])> {
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(n as usize));
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let body = format!(
                    "{{\"model\":\"ViT-Small\",\"accelerator\":\"stripes\",\
                     \"seed\":{},\"max_weights_per_layer\":64}}",
                    200 + i
                );
                barrier.wait();
                let (status, body) = client.simulate(&body).unwrap();
                let header = |name| client.response_header(name).map(str::to_string);
                let headers = [
                    header("retry-after"),
                    header("connection"),
                    header("x-bbs-trace"),
                ];
                (status, body, headers)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn zero_park_timeout_fails_fast_with_retry_after() {
    // park_timeout zero restores the old fail-fast 503, now with a
    // Retry-After header. The held worker admits at most two of the four
    // simultaneous requests while the first one sleeps, so at least two
    // are refused.
    let server = saturated_server(500, Duration::ZERO);
    let mut refused = 0;
    for (status, body, [retry_after, _, trace]) in simultaneous_requests(&server, 4) {
        match status {
            200 => assert!(body.contains("\"result\""), "{body}"),
            503 => {
                refused += 1;
                assert!(body.contains("queue full"), "{body}");
                assert_eq!(retry_after.as_deref(), Some("1"), "503 without Retry-After");
                let trace = trace.expect("x-bbs-trace on a refusal");
                assert!(trace.contains(";served=busy;"), "{trace}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(refused >= 2, "only {refused} of 4 requests were refused");
    server.stop();
}

#[test]
fn parked_request_expires_with_503_retry_after_and_close() {
    // The worker holds each job for a second and the queue takes one, so
    // one of three simultaneous requests parks and outlives its 200 ms
    // park deadline long before a slot frees.
    let server = saturated_server(1000, Duration::from_millis(200));
    let mut expired = 0;
    for (status, body, [retry_after, connection, trace]) in simultaneous_requests(&server, 3) {
        match status {
            200 => assert!(body.contains("\"result\""), "{body}"),
            503 => {
                expired += 1;
                assert!(body.contains("queue full"), "{body}");
                assert_eq!(retry_after.as_deref(), Some("1"), "503 without Retry-After");
                assert_eq!(connection.as_deref(), Some("close"), "expiry must close");
                let trace = trace.expect("x-bbs-trace on an expiry");
                assert!(trace.contains(";served=park-expired;"), "{trace}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(expired >= 1, "no parked request expired");
    server.stop();
}

#[test]
fn sweep_paused_at_the_high_water_mark_always_resumes() {
    // A high-water mark smaller than any NDJSON record forces the sweep
    // pump to pause after every append, so the stream only finishes if
    // the writable-drain path re-pumps it. Regression test for a stall
    // where the final in-flight cell completed while the out-buffer was
    // above the mark and nothing ever re-pumped: the remaining cells were
    // never submitted and the client hung until its read timeout.
    let server = server_with(|c| {
        c.high_water = 1;
        c.service.workers = 1;
    });
    let body = "{\"models\":[\"ViT-Small\"],\"accelerators\":[\"stripes\",\"bitwave\"],\
                \"seeds\":[11,12],\"max_weights_per_layer\":[64]}";
    let client = Client::connect_with_timeout(server.addr(), Duration::from_secs(30)).unwrap();
    let (status, lines) = client.sweep(body).unwrap();
    assert_eq!(status, 200);
    let lines = lines.collect_lines().expect("stream stalled before EOF");
    assert_eq!(lines.len(), 5, "4 cell records + summary: {lines:?}");
    let summary = Json::parse(lines.last().unwrap()).unwrap();
    let summary = summary.get("summary").expect("trailing summary record");
    assert_eq!(summary.get("cells").and_then(Json::as_u64), Some(4));
    assert_eq!(summary.get("ok").and_then(Json::as_u64), Some(4));
    server.stop();
}

#[test]
fn poll_backend_serves_identically() {
    let server = server_with(|c| c.poller = PollerKind::Poll);
    assert_eq!(server.backend(), "poll");
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, first) = client.simulate(SIM_BODY).unwrap();
    assert_eq!(status, 200);
    let (status, again) = client.simulate(SIM_BODY).unwrap();
    assert_eq!(status, 200);
    let first = Json::parse(&first).unwrap();
    let again = Json::parse(&again).unwrap();
    assert_eq!(first.get("result"), again.get("result"));
    assert_eq!(
        again
            .get("meta")
            .and_then(|m| m.get("cached"))
            .and_then(Json::as_bool),
        Some(true)
    );
    server.stop();
}

#[test]
fn connection_gauges_track_open_and_peak() {
    let server = server_with(|_| {});
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    // Touch every connection so all four are definitely registered.
    for c in clients.iter_mut() {
        let (status, _) = c.get("/healthz").unwrap();
        assert_eq!(status, 200);
    }
    let (_, stats) = clients[0].get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let open = stats
        .get("connections_open")
        .and_then(Json::as_u64)
        .unwrap();
    let peak = stats
        .get("connections_peak")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(open >= 4, "open={open} {stats}");
    assert!(peak >= open, "peak={peak} open={open}");
    assert_eq!(
        stats.get("connections").and_then(Json::as_u64),
        Some(open),
        "legacy gauge must mirror connections_open"
    );
    assert_eq!(
        stats.get("connections_parked").and_then(Json::as_u64),
        Some(0)
    );
    server.stop();
}

/// Slices the `result` payload out of a `/simulate` response body
/// (`{"meta":{...},"result":<payload>}`), byte for byte.
fn result_payload(body: &str) -> &str {
    let idx = body.find("\"result\":").expect("response has a result");
    body[idx + "\"result\":".len()..]
        .strip_suffix('}')
        .expect("result is the last field")
}

#[test]
fn keep_alive_flood_returns_the_engine_bytes() {
    // 256 keep-alive connections, all open at once, each sending a few
    // cache-hot requests. Every `result` must equal the engine's own JSON,
    // computed directly (no service, cache or HTTP), byte for byte.
    const CONNS: usize = 256;
    const ROUNDS: usize = 4;
    const CAP: usize = 256;
    const MODELS: [&str; 4] = ["ViT-Small", "ResNet-34", "Bert-SST2", "VGG-16"];
    const ACCELS: [&str; 4] = ["stripes", "bitwave", "bitvert-moderate", "bitlet"];
    let points: Vec<(&str, &str)> = ACCELS
        .iter()
        .flat_map(|&accel| MODELS.iter().map(move |&model| (model, accel)))
        .collect();
    let bodies: Arc<Vec<String>> = Arc::new(
        points
            .iter()
            .map(|(model, accel)| {
                format!(
                    "{{\"model\":\"{model}\",\"accelerator\":\"{accel}\",\
                     \"seed\":7,\"max_weights_per_layer\":{CAP}}}"
                )
            })
            .collect(),
    );
    let store = WorkloadStore::default();
    let expected: Arc<Vec<String>> = Arc::new(
        points
            .iter()
            .map(|(model, accel)| {
                let spec = zoo::by_name(model).unwrap();
                let accel = accelerator_by_name(accel).unwrap();
                let cfg = ArrayConfig::paper_16x32();
                let sim = simulate_with(&store, accel.as_ref(), &spec, &cfg, 7, CAP);
                sim_result_to_json(&sim).to_string()
            })
            .collect(),
    );

    let server = server_with(|_| {});
    let addr = server.addr();
    let mut warmer = Client::connect(addr).unwrap();
    for body in bodies.iter() {
        let (status, response) = warmer.simulate(body).unwrap();
        assert_eq!(status, 200, "{response}");
    }

    // Each connection is served once before the barrier, so all of them
    // are open on the server when the flood starts.
    let barrier = Arc::new(Barrier::new(CONNS));
    let handles: Vec<_> = (0..CONNS)
        .map(|c| {
            let (bodies, expected) = (Arc::clone(&bodies), Arc::clone(&expected));
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    assert_eq!(client.get("/healthz").unwrap().0, 200);
                    barrier.wait();
                    for round in 0..ROUNDS {
                        let i = (c + round) % bodies.len();
                        let (status, response) = client.simulate(&bodies[i]).unwrap();
                        assert_eq!(status, 200, "{response}");
                        assert!(
                            result_payload(&response) == expected[i],
                            "connection {c} round {round}: {} differs from the engine",
                            bodies[i]
                        );
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (_, stats) = warmer.get("/stats").unwrap();
    let stats = Json::parse(&stats).unwrap();
    let peak = stats.get("connections_peak").and_then(Json::as_u64);
    assert!(peak >= Some(CONNS as u64), "{stats}");
    let sim_runs = stats.get("sim_runs").and_then(Json::as_u64);
    assert_eq!(
        sim_runs,
        Some(bodies.len() as u64),
        "the flood must hit the cache"
    );
    server.stop();
}

#[test]
fn slow_reader_does_not_block_other_clients() {
    let server = server_with(|_| {});

    // A client that requests /models but reads one byte per 20 ms.
    let addr = server.addr();
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream
            .write_all(b"GET /models HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        let mut got = Vec::new();
        let mut byte = [0u8; 1];
        // The connection stays keep-alive after the response, so read only
        // as far as the status line — blocking for more would just wait
        // out the read timeout.
        while got.len() < 64 {
            match stream.read(&mut byte) {
                Ok(0) => break,
                Ok(_) => got.extend_from_slice(&byte),
                Err(e) => panic!("slow read failed: {e}"),
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(got.starts_with(b"HTTP/1.1 200"));
    });

    // Meanwhile the fast lane stays fast: 20 round trips while the slow
    // reader dawdles on the same single loop thread.
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..20 {
        let (status, _) = client.get("/healthz").unwrap();
        assert_eq!(status, 200);
    }
    slow.join().unwrap();
    server.stop();
}

#[test]
fn oversized_request_line_gets_a_400_not_a_hang() {
    let server = server_with(|_| {});
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let long_path = "x".repeat(10_000);
    let _ = stream.write_all(format!("GET /{long_path}").as_bytes());
    let (status, headers, body) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("malformed request"));
    // The 400 says `connection: close`, and the server does close: a
    // connection left open here would hold its slot until shutdown.
    assert!(
        headers.iter().any(|h| h == "connection: close"),
        "{headers:?}"
    );
    let mut buf = [0u8; 16];
    assert_eq!(stream.read(&mut buf).expect("EOF, not a timeout"), 0);
    server.stop();
}
