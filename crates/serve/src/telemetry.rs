//! The server's observability hub: per-stage latency histograms, the
//! process logger, slow-request accounting, and the renderers behind
//! `GET /metrics` and the `/stats` latency block.
//!
//! One [`Telemetry`] instance is shared (via `Arc`) by the event loop,
//! the worker pool and the router. Every histogram records microseconds
//! except [`Telemetry::ready_events`] (events per poller wake) and
//! [`Telemetry::out_depth`] (buffered response bytes at flush time).
//!
//! ## Stage map
//!
//! A request's end-to-end latency decomposes as:
//!
//! ```text
//! parse → route → [park] → queue → [lower] → sim → ser → write/flush
//! ```
//!
//! `parse` is HTTP parsing on the loop thread; `route` is routing the
//! parsed request there: decoding a `/simulate` or `/sweep` body and
//! taking its cache key (a sweep adds the key of every cell it submits),
//! or building an inline answer such as `/stats`; `park` only occurs when the
//! job queue was full and the connection waited for a slot; `queue` is
//! time between enqueue and a worker popping the job; `lower` only occurs
//! on a workload-store miss; `sim` and `ser` are the engine run and JSON
//! serialization on the worker; `write_flush` is time from the response
//! being buffered to the out-buffer draining to the socket.

use crate::service::Timing;
use bbs_json::Json;
use bbs_telemetry::prom::PromText;
use bbs_telemetry::{Histogram, Level, Logger, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared observability state for one server instance.
pub struct Telemetry {
    /// The process logger (`--log-level` / `--log-format`).
    pub logger: Logger,
    /// Requests slower than this (µs, end-to-end) log at `warn`.
    pub slow_us: u64,
    started: Instant,
    /// HTTP request parsing on the loop thread (µs).
    pub parse_us: Histogram,
    /// Routing on the loop thread: body decode and cache key, or an
    /// inline answer (µs).
    pub route_us: Histogram,
    /// Enqueue → worker pop (µs).
    pub queue_us: Histogram,
    /// Queue-full parking time, parked requests only (µs).
    pub park_us: Histogram,
    /// `lower_model` on a workload-store miss (µs).
    pub lower_us: Histogram,
    /// Cycle-accurate simulation on a worker (µs).
    pub sim_us: Histogram,
    /// Result JSON serialization on a worker (µs).
    pub ser_us: Histogram,
    /// Response buffered → out-buffer fully drained (µs).
    pub flush_us: Histogram,
    /// End-to-end: request parsed → response buffered (µs).
    pub total_us: Histogram,
    /// Poller wait per event-loop turn (µs).
    pub poll_wait_us: Histogram,
    /// Event-loop turn duration after the wait (µs).
    pub turn_us: Histogram,
    /// Ready events per poller wake.
    pub ready_events: Histogram,
    /// Out-buffer depth (bytes) at each flush attempt.
    pub out_depth: Histogram,
    /// Requests that crossed [`Telemetry::slow_us`].
    pub slow_requests: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry {{ requests: {}, slow: {} }}",
            self.total_us.count(),
            self.slow_requests.load(Ordering::Relaxed)
        )
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(Logger::default(), 500)
    }
}

impl Telemetry {
    /// Fresh telemetry with `logger` and a slow-request threshold in
    /// milliseconds.
    pub fn new(logger: Logger, slow_ms: u64) -> Telemetry {
        Telemetry {
            logger,
            slow_us: slow_ms.saturating_mul(1000),
            started: Instant::now(),
            parse_us: Histogram::new(),
            route_us: Histogram::new(),
            queue_us: Histogram::new(),
            park_us: Histogram::new(),
            lower_us: Histogram::new(),
            sim_us: Histogram::new(),
            ser_us: Histogram::new(),
            flush_us: Histogram::new(),
            total_us: Histogram::new(),
            poll_wait_us: Histogram::new(),
            turn_us: Histogram::new(),
            ready_events: Histogram::new(),
            out_depth: Histogram::new(),
            slow_requests: AtomicU64::new(0),
        }
    }

    /// Seconds since this telemetry (≈ the server) started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records a completed request's span into the stage histograms and
    /// emits the span log (debug always; warn past the slow threshold).
    /// `total_us` is parse-start → response-buffered on the loop thread.
    #[allow(clippy::too_many_arguments)]
    pub fn record_request(
        &self,
        trace_hex: &str,
        route: &'static str,
        served: &'static str,
        parse_us: u64,
        route_us: u64,
        park_us: u64,
        timing: Timing,
        total_us: u64,
    ) {
        self.total_us.record(total_us);
        self.route_us.record(route_us);
        if park_us > 0 {
            self.park_us.record(park_us);
        }
        let slow = total_us >= self.slow_us;
        if slow {
            self.slow_requests.fetch_add(1, Ordering::Relaxed);
        }
        let level = if slow { Level::Warn } else { Level::Debug };
        if self.logger.enabled(level) {
            self.logger.log(
                level,
                if slow { "slow request" } else { "request" },
                &[
                    ("trace", Value::Str(trace_hex)),
                    ("route", Value::Str(route)),
                    ("served", Value::Str(served)),
                    ("parse_us", Value::U64(parse_us)),
                    ("route_us", Value::U64(route_us)),
                    ("park_us", Value::U64(park_us)),
                    ("queue_us", Value::U64(timing.queue_us)),
                    ("lower_us", Value::U64(timing.lower_us)),
                    ("sim_us", Value::U64(timing.sim_us)),
                    ("ser_us", Value::U64(timing.ser_us)),
                    ("total_us", Value::U64(total_us)),
                ],
            );
        }
    }

    /// The `x-bbs-trace` header value: the trace id plus the per-stage
    /// breakdown as `key=value` pairs, for clients that time stages.
    pub fn trace_header(
        trace_hex: &str,
        served: &'static str,
        parse_us: u64,
        route_us: u64,
        park_us: u64,
        timing: Timing,
        total_us: u64,
    ) -> String {
        format!(
            "id={trace_hex};served={served};parse_us={parse_us};route_us={route_us};\
             queue_us={};lower_us={};sim_us={};ser_us={};park_us={park_us};total_us={total_us}",
            timing.queue_us, timing.lower_us, timing.sim_us, timing.ser_us
        )
    }

    /// Every stage histogram with its metric name and help text.
    fn stages(&self) -> [(&'static str, &'static str, &Histogram); 13] {
        [
            (
                "parse",
                "HTTP request parsing on the loop thread.",
                &self.parse_us,
            ),
            (
                "route",
                "Routing on the loop thread: body decode and cache key.",
                &self.route_us,
            ),
            (
                "queue",
                "Job queue wait (enqueue to worker pop).",
                &self.queue_us,
            ),
            (
                "park",
                "Queue-full parking wait (parked requests only).",
                &self.park_us,
            ),
            (
                "lower",
                "Model lowering on a workload-store miss.",
                &self.lower_us,
            ),
            (
                "sim",
                "Cycle-accurate simulation on a worker.",
                &self.sim_us,
            ),
            (
                "ser",
                "Result JSON serialization on a worker.",
                &self.ser_us,
            ),
            (
                "write_flush",
                "Response buffered to out-buffer drained.",
                &self.flush_us,
            ),
            (
                "total",
                "End-to-end: parsed to response buffered.",
                &self.total_us,
            ),
            (
                "poll_wait",
                "Poller wait per event-loop turn.",
                &self.poll_wait_us,
            ),
            (
                "turn",
                "Event-loop turn duration after the poller wait.",
                &self.turn_us,
            ),
            (
                "ready_events",
                "Ready events per poller wake (count, not time).",
                &self.ready_events,
            ),
            (
                "out_depth",
                "Out-buffer depth at flush attempts (bytes, not time).",
                &self.out_depth,
            ),
        ]
    }

    /// Appends this instance's histograms and log counters to a Prometheus
    /// exposition under construction.
    pub fn append_prometheus(&self, p: &mut PromText) {
        p.gauge(
            "bbs_uptime_seconds",
            "Seconds since the server started.",
            self.uptime_seconds(),
        );
        p.counter(
            "bbs_slow_requests_total",
            "Requests slower than the --slow-ms threshold.",
            self.slow_requests.load(Ordering::Relaxed),
        );
        p.counter_vec(
            "bbs_log_events_total",
            "Log events accepted, by level.",
            "level",
            &[
                ("error", self.logger.emitted(Level::Error)),
                ("warn", self.logger.emitted(Level::Warn)),
                ("info", self.logger.emitted(Level::Info)),
                ("debug", self.logger.emitted(Level::Debug)),
            ],
        );
        for (stage, help, hist) in self.stages() {
            // Times in seconds per Prometheus convention; the two
            // dimensionless histograms keep their raw unit.
            let (name, scale) = match stage {
                "ready_events" => ("bbs_loop_ready_events".to_string(), 1.0),
                "out_depth" => ("bbs_conn_out_depth_bytes".to_string(), 1.0),
                // Event-loop internals are not request stages.
                "poll_wait" | "turn" => (format!("bbs_loop_{stage}_seconds"), 1e-6),
                _ => (format!("bbs_stage_{stage}_seconds"), 1e-6),
            };
            p.histogram(&name, help, &hist.snapshot(), scale);
        }
    }

    /// The `/stats` `latency_us` block: per-stage summaries in µs.
    pub fn latency_json(&self) -> Json {
        Json::obj(
            self.stages()
                .into_iter()
                .map(|(stage, _, hist)| {
                    let s = hist.snapshot();
                    (
                        stage,
                        Json::obj(vec![
                            ("count", Json::from_u64(s.count)),
                            ("p50", Json::from_u64(s.percentile(0.50))),
                            ("p90", Json::from_u64(s.percentile(0.90))),
                            ("p99", Json::from_u64(s.percentile(0.99))),
                            ("max", Json::from_u64(s.max)),
                            ("mean", Json::Num(s.mean())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_header_is_parseable() {
        let t = Timing {
            queue_us: 10,
            lower_us: 0,
            sim_us: 1000,
            ser_us: 50,
        };
        let h = Telemetry::trace_header("00000000deadbeef", "simulated", 5, 7, 0, t, 1100);
        assert_eq!(
            h,
            "id=00000000deadbeef;served=simulated;parse_us=5;route_us=7;queue_us=10;\
             lower_us=0;sim_us=1000;ser_us=50;park_us=0;total_us=1100"
        );
        // Round-trip the k=v pairs.
        for part in h.split(';') {
            assert!(part.contains('='), "{part}");
        }
    }

    #[test]
    fn slow_requests_are_counted_and_logged() {
        let tel = Telemetry::new(
            Logger::with_ring(Level::Info, bbs_telemetry::Format::Json, true, 16),
            1, // 1 ms threshold
        );
        tel.record_request(
            "abc",
            "/simulate",
            "simulated",
            1,
            2,
            0,
            Timing::default(),
            500,
        );
        assert_eq!(tel.slow_requests.load(Ordering::Relaxed), 0);
        tel.record_request(
            "abc",
            "/simulate",
            "simulated",
            1,
            2,
            0,
            Timing::default(),
            2000,
        );
        assert_eq!(tel.slow_requests.load(Ordering::Relaxed), 1);
        let tail = tel.logger.tail(10);
        assert_eq!(tail.len(), 1, "only the slow request logs at info level");
        assert!(tail[0].contains("slow request"));
        assert_eq!(tel.total_us.count(), 2);
    }

    #[test]
    fn prometheus_includes_every_stage() {
        let tel = Telemetry::default();
        tel.parse_us.record(3);
        tel.route_us.record(12);
        tel.sim_us.record(900);
        let mut p = PromText::new();
        tel.append_prometheus(&mut p);
        let body = p.finish();
        for name in [
            "bbs_uptime_seconds",
            "bbs_slow_requests_total",
            "bbs_log_events_total{level=\"error\"}",
            "bbs_stage_parse_seconds_bucket",
            "bbs_stage_route_seconds_count 1",
            "bbs_stage_sim_seconds_count 1",
            "bbs_stage_total_seconds",
            "bbs_loop_ready_events",
            "bbs_conn_out_depth_bytes",
        ] {
            assert!(body.contains(name), "missing {name} in:\n{body}");
        }
    }

    #[test]
    fn latency_json_summarizes_stages() {
        let tel = Telemetry::default();
        for v in [100u64, 200, 300] {
            tel.total_us.record(v);
        }
        let j = tel.latency_json().to_string();
        assert!(j.contains("\"total\""), "{j}");
        assert!(j.contains("\"count\":3"), "{j}");
        assert!(j.contains("\"max\":300"), "{j}");
    }
}
