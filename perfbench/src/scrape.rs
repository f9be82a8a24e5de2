//! The `scrape` workload: the telemetry plane's read path.
//!
//! Set-up fills the process-global registry with a small fleet, records
//! it into a `MetricStore` with `sample_at` ticks an `AlertEngine`
//! evaluates, and starts `ObsServer::start_with` on a loopback port.
//! The measured loop is closed, with one client and one connection at a
//! time (the server answers one request per connection): it cycles
//! `/metrics`, `/healthz`, `/query` (rate), `/query` (quantile) and
//! `/snapshot`, and checks every answer.

use crate::fleet::{self, Delta};
use crate::spans::SpanLog;
use crate::stats::Timing;
use crate::{Opts, Report};
use netmaster_obs::{
    AlertEngine, AlertRule, MetricStore, ObsServer, ServeOptions, ServeState, TelemetryHub,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Members in the set-up fleet, run in `CHUNKS` parts with a store
/// sample after each.
const MEMBERS: usize = 64;
const CHUNKS: usize = 4;
/// Further store samples after the fleet, one per simulated 15 s.
const IDLE_TICKS: u64 = 60;
const TICK_MS: u64 = 15_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Client socket timeout: a stalled request fails instead of hanging.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The request mix, cycled in order.
const ROUTES: [(&str, &str); 5] = [
    ("metrics", "/metrics"),
    ("healthz", "/healthz"),
    ("query", "/query?metric=fleet_members_total&fn=rate"),
    (
        "query",
        "/query?metric=stage_plan_day_seconds&fn=quantile&q=0.99",
    ),
    ("snapshot", "/snapshot"),
];

/// The telemetry plane under test.
struct Plane {
    server: ObsServer,
    store: Arc<MetricStore>,
    saving: f64,
    last_ms: u64,
}

/// A metrics-history store and an alert engine recording the live
/// registry at simulated 15 s ticks.
pub struct History {
    store: Arc<MetricStore>,
    engine: Arc<AlertEngine>,
    t_ms: u64,
}

impl History {
    /// An empty store and the benchmark's two alert rules.
    pub fn new() -> Result<History, String> {
        let rules = AlertRule::parse_list(
            "saving-floor:fleet_saving_ratio<0.2:for=3:sev=warn;drops:burn(journal_dropped_total,60,300,0.5)",
        )?;
        Ok(History {
            store: Arc::new(MetricStore::default()),
            engine: Arc::new(AlertEngine::new(rules)),
            t_ms: 0,
        })
    }

    /// Records one sample and evaluates the rules on it.
    pub fn tick(&mut self) {
        self.t_ms += TICK_MS;
        self.store.sample_at(self.t_ms, &netmaster_obs::snapshot());
        self.engine.evaluate(&self.store, self.t_ms);
    }

    /// Records the idle ticks and starts the server over the registry,
    /// which holds a fleet whose mean saving is `saving`.
    fn serve(mut self, saving: f64) -> Result<Plane, String> {
        for _ in 0..IDLE_TICKS {
            self.tick();
        }
        let state = ServeState {
            store: Some(Arc::clone(&self.store)),
            alerts: Some(self.engine),
            profile: None,
        };
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeOptions::default()
        };
        let server = ObsServer::start_with(opts, Arc::new(TelemetryHub::new()), state)?;
        Ok(Plane {
            server,
            store: self.store,
            saving,
            last_ms: self.t_ms,
        })
    }
}

/// Fills the registry and store and starts the server. With a log, the
/// fleet runs traced and its batches are returned.
fn set_up(
    seed: u64,
    members: usize,
    log: Option<&Arc<SpanLog>>,
) -> Result<(Plane, Vec<fleet::TracedBatch>, Vec<Delta>), String> {
    netmaster_obs::reset();
    let mut history = History::new()?;
    let per = members.div_ceil(CHUNKS);
    let mut batches = Vec::new();
    let mut deltas = Vec::new();
    let mut saving = 0.0;
    for c in 0..CHUNKS {
        let base = seed.wrapping_add((c * per) as u64 * 7919);
        let report = match log {
            Some(log) => {
                let mut d = Delta::begin();
                let (report, b) = fleet::run_traced(base, per, log, true);
                d.end();
                deltas.push(d);
                batches.push(b);
                report
            }
            None => fleet::run_untraced(base, per).0,
        };
        saving = report.saving.mean;
        history.tick();
    }
    Ok((history.serve(saving)?, batches, deltas))
}

/// Makes closing `s` abort the connection (`SO_LINGER` 0), so neither
/// end keeps it in TIME_WAIT. At thousands of connections a second the
/// TIME_WAIT table otherwise grows by about a minute's worth of
/// connections and slows later connects, in this run and the next.
#[cfg(target_os = "linux")]
fn abort_on_close(s: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `s`, which is open for the whole
    // call; the pointer and length describe `linger`, a live
    // `struct linger` (two C ints) that the kernel only reads.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn abort_on_close(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// One GET on a fresh connection: status and body. The server answers
/// and closes; the client reads to the end, then aborts its side.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    abort_on_close(&s).map_err(|e| format!("SO_LINGER: {e}"))?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|e| format!("utf-8: {e}"))?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("bad status line")?;
    let len: Option<usize> = head.lines().find_map(|l| {
        l.strip_prefix("Content-Length:")
            .and_then(|v| v.trim().parse().ok())
    });
    if len != Some(body.len()) {
        return Err(format!(
            "content-length {len:?} but {} body bytes",
            body.len()
        ));
    }
    Ok((status, body.to_owned()))
}

/// Checks one answer; `Ok` carries the scraped fleet saving for
/// `/metrics`.
fn check(route: &str, status: u16, body: &str) -> Result<Option<f64>, String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if route == "metrics" {
        netmaster_obs::validate_prometheus(body)?;
        let saving = body
            .lines()
            .find_map(|l| l.strip_prefix("netmaster_fleet_saving_ratio "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("no netmaster_fleet_saving_ratio sample")?;
        return Ok(Some(saving));
    }
    serde_json::from_str::<serde_json::Value>(body).map_err(|e| format!("bad JSON: {e}"))?;
    Ok(None)
}

/// Per-request latencies of one measured window.
#[derive(Default)]
struct Window {
    secs: Vec<f64>,
    by_route: Vec<(&'static str, f64)>,
    failed: u64,
    failures: Vec<String>,
    scraped_saving: Option<f64>,
}

/// Sends requests until `until`, recording spans into `log` if given.
fn window(
    addr: SocketAddr,
    until: Instant,
    start: usize,
    log: Option<&SpanLog>,
    w: &mut Window,
) -> usize {
    let mut i = start;
    while Instant::now() < until {
        let (route, path) = ROUTES[i % ROUTES.len()];
        let t = Instant::now();
        let a = log.map(SpanLog::now_ns);
        let got = get(addr, path);
        let secs = t.elapsed().as_secs_f64();
        if let (Some(log), Some(a)) = (log, a) {
            log.push(route_span(route), a, log.now_ns(), i as u64);
        }
        w.secs.push(secs);
        if log.is_some() {
            w.by_route.push((route, secs));
        }
        let verdict = got.and_then(|(status, body)| check(route, status, &body));
        match verdict {
            Ok(Some(s)) => w.scraped_saving = Some(s),
            Ok(None) => {}
            Err(e) => {
                w.failed += 1;
                if w.failures.len() < 5 {
                    w.failures.push(format!("request {i} {path}: {e}"));
                }
            }
        }
        i += 1;
    }
    i
}

fn route_span(route: &str) -> &'static str {
    match route {
        "metrics" => "obs.route.metrics",
        "healthz" => "obs.route.healthz",
        "query" => "obs.route.query",
        _ => "obs.route.snapshot",
    }
}

/// One client with one request in flight has no parallelism to use, so
/// client, server threads and set-up share one CPU. Spread over two
/// vCPUs, every request paid cross-CPU wake-ups, which doubled its p99.
fn pin(rep: &mut Report) {
    match crate::sys::pin_to_one_cpu() {
        Ok(cpu) => rep.note(format!("scrape: pinned to CPU {cpu}")),
        Err(e) => rep.note(format!("scrape: not pinned ({e})")),
    }
}

/// Checks a window's answers and its scraped fleet saving, counting its
/// requests as operations.
fn settle(w: &Window, plane: &Plane, rep: &mut Report) {
    rep.ops(w.secs.len() as u64, w.failed);
    for f in &w.failures {
        rep.explain(f.clone());
    }
    if w.secs.is_empty() {
        return;
    }
    match w.scraped_saving {
        Some(s) if (s - plane.saving).abs() <= 1e-9 * plane.saving.abs().max(1.0) => {}
        other => rep.fail(format!(
            "scraped fleet_saving_ratio {other:?} differs from the fleet's {}",
            plane.saving
        )),
    }
}

/// The read-path layer metrics of a traced window: each route's median
/// round trip, the in-process registry and store calls, and what the
/// server adds to `/metrics` beyond them.
fn read_path_metrics(traced: &Window, plane: &Plane, rep: &mut Report) {
    let route_p50 = |name: &str| {
        let v: Vec<f64> = traced
            .by_route
            .iter()
            .filter(|(r, _)| *r == name)
            .map(|(_, s)| s * 1e3)
            .collect();
        crate::stats::median(&v).unwrap_or(0.0)
    };
    for r in ["metrics", "healthz", "query", "snapshot"] {
        rep.set(&format!("{}_p50_ms", route_span(r)), route_p50(r));
    }
    crate::obs_read_metrics(Some((&plane.store, plane.last_ms)), rep);
    let inproc = rep.get("obs.snapshot_us") + rep.get("obs.prometheus_render_us");
    rep.set("obs.serve_overhead_us", route_p50("metrics") * 1e3 - inproc);
}

/// Serves the registry a fleet workload filled (mean saving `saving`),
/// with the `history` it recorded, and measures its read path with a
/// traced window of `secs` seconds. Pins the calling thread to one CPU,
/// so call it last.
pub fn read_path_layers(history: History, log: &SpanLog, saving: f64, secs: f64, rep: &mut Report) {
    pin(rep);
    let plane = match history.serve(saving) {
        Ok(p) => p,
        Err(e) => {
            rep.fail(format!("telemetry plane: {e}"));
            return;
        }
    };
    let mut w = Window::default();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    window(plane.server.local_addr(), until, 0, Some(log), &mut w);
    settle(&w, &plane, rep);
    read_path_metrics(&w, &plane, rep);
    rep.note(format!(
        "read path: {} traced requests against the fleet's registry",
        w.secs.len()
    ));
    plane.server.shutdown();
}

/// Runs the workload.
pub fn run(opts: &Opts, rep: &mut Report) {
    pin(rep);
    let members = if opts.tiny { 8 } else { MEMBERS };
    let log = Arc::new(SpanLog::default());
    let mut setups = Vec::new();
    let mut plane: Option<Plane> = None;
    let mut setup_fleet = (Vec::new(), Vec::new());
    for k in 0..SETUPS {
        if let Some(p) = plane.take() {
            p.server.shutdown();
        }
        // The last set-up, which the loop measures against, runs its
        // fleet traced in a traced run.
        let traced = opts.trace && k + 1 == SETUPS;
        let t = Instant::now();
        match set_up(opts.seed, members, traced.then_some(&log)) {
            Ok((p, batches, deltas)) => {
                setups.push(t.elapsed().as_secs_f64());
                plane = Some(p);
                setup_fleet = (batches, deltas);
            }
            Err(e) => {
                rep.fail(format!("set-up: {e}"));
                return;
            }
        }
    }
    rep.setup(&setups);
    let plane = plane.expect("set-up ran");
    let addr = plane.server.local_addr();
    rep.note(format!(
        "scrape: closed loop, 1 client, 1 connection per request, against {addr}; {} series in the store",
        plane.store.series_list().len()
    ));

    let spans_before = log.len();
    let slice = Duration::from_secs_f64((opts.seconds / 8.0).clamp(0.05, 1.0));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    // Room for every latency up front, so memory does not depend on
    // how many requests a run manages.
    let room = (opts.seconds * 20_000.0) as usize;
    let mut plain = Window {
        secs: Vec::with_capacity(room),
        ..Window::default()
    };
    let mut traced = Window {
        secs: Vec::with_capacity(if opts.trace { room } else { 0 }),
        by_route: Vec::with_capacity(if opts.trace { room } else { 0 }),
        ..Window::default()
    };
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut i = 0usize;
    let mut round = 0usize;
    let mut traced_wall = 0.0;
    let mut server_cpu_secs = 0.0;
    while round < 2 || Instant::now() < deadline {
        let is_traced = opts.trace && matches!(round % 4, 1 | 2);
        let w = if is_traced { &mut traced } else { &mut plain };
        let before = (w.secs.len(), w.secs.iter().sum::<f64>());
        let c = crate::sys::other_threads_cpu_secs();
        let t = Instant::now();
        i = window(addr, t + slice, i, is_traced.then_some(&*log), w);
        if is_traced {
            traced_wall += t.elapsed().as_secs_f64();
        } else {
            server_cpu_secs += crate::sys::other_threads_cpu_secs() - c;
        }
        let n = (w.secs.len() - before.0) as f64;
        let busy = w.secs.iter().sum::<f64>() - before.1;
        if n > 0.0 {
            if is_traced {
                &mut traced_rates
            } else {
                &mut rates
            }
            .push(n / busy);
        }
        round += 1;
    }
    settle(&plain, &plane, rep);
    settle(&traced, &plane, rep);
    rep.set("saving_mean", plain.scraped_saving.unwrap_or(0.0));
    let timing = Timing::of(&plain.secs).unwrap_or(Timing {
        count: 0,
        p50: 0.0,
        tail: None,
    });
    let busy: f64 = plain.secs.iter().sum();
    rep.set(
        "throughput_per_s",
        crate::stats::median(&rates).unwrap_or(0.0),
    );
    rep.set(
        "cpu_ms_per_op",
        server_cpu_secs * 1e3 / plain.secs.len().max(1) as f64,
    );
    rep.set("p50_ms", timing.p50 * 1e3);
    rep.set("tail_ms", timing.tail_value() * 1e3);
    rep.note(format!(
        "requests: {} in {busy:.2} s of round trips; p50 {:.4} ms, {} = {:.4} ms; server CPU {:.3} ms/request",
        plain.secs.len(),
        timing.p50 * 1e3,
        timing.tail_label(),
        timing.tail_value() * 1e3,
        server_cpu_secs * 1e3 / plain.secs.len().max(1) as f64
    ));
    rep.alias("req_per_s", "throughput_per_s", "req/s");
    rep.alias("req_p50_ms", "p50_ms", "ms");
    rep.alias("req_p99_ms", "tail_ms", "ms");

    if opts.trace {
        let (batches, deltas) = &setup_fleet;
        fleet::layer_metrics(&log, batches, deltas, rep);
        read_path_metrics(&traced, &plane, rep);
        let pairs: Vec<f64> = rates
            .iter()
            .zip(&traced_rates)
            .map(|(u, t)| u / t - 1.0)
            .collect();
        rep.set(
            "obs.tracing_overhead",
            crate::stats::median(&pairs).unwrap_or(0.0),
        );
        let totals = log.totals_since(spans_before);
        crate::print_layer_table(
            &totals,
            traced_wall * 1e9,
            traced.secs.len() as f64,
            "request",
        );
        rep.write_spans(&log);
    }
    plane.server.shutdown();
}
