//! The serve path: open-loop query windows over real TCP against the
//! registry the day phase publishes into, at fixed offered rates. A
//! server runs for each cycle of days, and a window follows every day,
//! so each window opens on the epoch that day published (and so with a
//! cold response cache), and the windows are spread over the whole run
//! rather than bunched at its end, where one stretch of the host's load
//! would decide them all.
//!
//! The generator is one thread on one connection: it sends request `i`
//! at `t0 + i / rate` whatever the replies do and matches replies in
//! order. Latency runs from the scheduled send time, so a stall also
//! delays the requests queued behind it; how late the generator itself
//! sent is reported separately.

use expanse_addr::fanout::splitmix64;
use expanse_addr::Prefix;
use expanse_packet::{ProtoSet, Protocol};
use expanse_serve::protocol::{decode_response, encode_request, MAX_FRAME_LEN};
use expanse_serve::{
    BindAddr, DrainReport, FrameAssembler, Query, Request, ResponseBody, Server, ServerConfig,
    SnapshotRegistry, SnapshotView,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv6Addr, Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request kinds, in metric-name order.
pub const KINDS: [&str; 4] = ["lookup", "select", "sample", "stats"];

/// Threads and connections the generator uses.
pub const GEN_THREADS: usize = 1;
pub const GEN_CONNECTIONS: usize = 1;

/// Where the query windows run: `(server cpu, generator cpu)`, or `None`
/// when fewer than two cpus are allowed and nothing is pinned.
pub fn placement() -> Option<(usize, usize)> {
    let cpus = crate::affinity::allowed();
    (cpus.len() >= 2).then(|| (cpus[0], cpus[1]))
}

/// The query mix of the repository's serve experiments (`exp_serve`):
/// half lookups (one in five a guaranteed miss), 30% selects, 10%
/// samples, 10% stats. Request `i` is drawn from `seed` and `i` only.
pub fn request_pool(view: &SnapshotView, count: usize, seed: u64) -> Vec<(Request, usize)> {
    let live: Vec<Ipv6Addr> = view
        .live_set()
        .iter()
        .map(|id| view.table().addr(id))
        .collect();
    let key = splitmix64(seed ^ 0x5e7e_0bad);
    (0..count)
        .map(|i| {
            let r = splitmix64(key ^ i as u64);
            let addr = live[(r >> 8) as usize % live.len()];
            match r % 10 {
                0..=3 => (Request::Lookup { addr }, 0),
                4 => (
                    Request::Lookup {
                        addr: expanse_addr::u128_to_addr(u128::MAX ^ r as u128),
                    },
                    0,
                ),
                5 | 6 => (
                    Request::Select {
                        query: Query::all().under(Prefix::new(addr, 32 + (r % 3) as u8 * 16)),
                        cursor: None,
                        limit: 128,
                    },
                    1,
                ),
                7 => (
                    Request::Select {
                        query: Query::all()
                            .responsive()
                            .on_protocols(ProtoSet::only(Protocol::ALL[(r % 5) as usize]))
                            .non_aliased(),
                        cursor: None,
                        limit: 128,
                    },
                    1,
                ),
                8 => (
                    Request::Sample {
                        query: Query::all().responsive(),
                        k: 64,
                        seed: r,
                    },
                    2,
                ),
                _ => (
                    Request::Stats {
                        prefix: Some(Prefix::new(addr, 32)),
                    },
                    3,
                ),
            }
        })
        .collect()
}

/// One query window's outcome.
#[derive(Default)]
pub struct Window {
    /// Per request in send order: `(kind, latency µs)`, `None` when the
    /// request failed (lost, undecodable, or answered with an error).
    pub latency_us: Vec<(usize, Option<f64>)>,
    pub late_us: Vec<f64>,
    pub epoch_regressions: usize,
}

impl Window {
    pub fn failed(&self) -> usize {
        self.latency_us.iter().filter(|(_, l)| l.is_none()).count()
    }
}

/// Everything the query windows of a run measured.
#[derive(Default)]
pub struct ServeOut {
    /// Windows at the `lo` and at the `hi` offered rate.
    pub lo: Vec<Window>,
    pub hi: Vec<Window>,
    /// One drain report per server, i.e. per cycle of days.
    pub drains: Vec<DrainReport>,
}

/// A server on one allowed core, serving a cycle's registry.
pub struct Serving {
    server: Server,
    addr: SocketAddr,
    cpus: Vec<usize>,
    placed: bool,
}

impl Serving {
    /// Start a server on `registry`. Its threads inherit the placement
    /// of the thread that starts it (its connection threads are spawned
    /// by its accept thread), so it is started on the first allowed
    /// core when there are two or more.
    pub fn start(registry: Arc<SnapshotRegistry>) -> Result<Serving, String> {
        let cpus = crate::affinity::allowed();
        let placed = cpus.len() >= 2 && crate::affinity::restrict(&cpus[..1]);
        let server = Server::start(
            registry,
            &[BindAddr::Tcp(
                "127.0.0.1:0".parse().expect("literal address"),
            )],
            ServerConfig::default(),
        );
        crate::affinity::restrict(&cpus);
        let server = server.map_err(|e| format!("server start: {e}"))?;
        let BindAddr::Tcp(addr) = server.local_addrs()[0] else {
            unreachable!("bound a tcp listener");
        };
        Ok(Serving {
            server,
            addr,
            cpus,
            placed,
        })
    }

    /// Offer `rate` requests per second, `n` requests in all, drawn in
    /// turn from `pool`, on one fresh connection. The generator runs on
    /// the second allowed core while an idle-class spinner keeps the
    /// server's core awake.
    pub fn window(
        &self,
        pool: &[(Request, usize)],
        rate: usize,
        n: usize,
    ) -> Result<Window, String> {
        let framed: Vec<Vec<u8>> = pool.iter().map(|(r, _)| encode_request(r)).collect();
        let kinds: Vec<usize> = pool.iter().map(|&(_, k)| k).collect();
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            if self.placed {
                s.spawn(|| keep_awake(&self.cpus[..1], &stop));
                crate::affinity::restrict(&self.cpus[1..2]);
            }
            let out = run_window(self.addr, &framed, &kinds, rate, n);
            stop.store(true, Ordering::Relaxed);
            out
        });
        crate::affinity::restrict(&self.cpus);
        out
    }

    /// Drain the server; every connection has closed by now.
    pub fn stop(self) -> DrainReport {
        self.server.drain()
    }
}

/// Offer `rate` requests per second, `n` in all, on one fresh
/// connection.
///
/// The generator is one thread that polls a nonblocking socket: it
/// sends request `i` at `t0 + i / rate` whatever the replies do, and
/// between sends reads whatever replies have arrived. Nothing on the
/// generator's side waits for a wake-up, so a reply is timed when it
/// lands rather than when the scheduler gets round to a reader.
fn run_window(
    addr: SocketAddr,
    framed: &[Vec<u8>],
    kinds: &[usize],
    rate: usize,
    n: usize,
) -> Result<Window, String> {
    let gap = Duration::from_secs_f64(1.0 / rate as f64);
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_nodelay(true).map_err(|e| e.to_string())?;
    warm_up(&mut sock)?;
    sock.set_nonblocking(true).map_err(|e| e.to_string())?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| t0 + gap.mul_f64(i as f64);
    let mut w = Window {
        late_us: Vec::with_capacity(n),
        latency_us: Vec::with_capacity(n),
        ..Window::default()
    };
    let outcome = poll_loop(&mut sock, framed, kinds, n, &due, &mut w);
    // Requests never answered count as failed.
    for i in w.latency_us.len()..n {
        w.latency_us.push((kinds[i % kinds.len()], None));
    }
    outcome.map(|()| w)
}

/// One round trip before the clock starts: the server's accept loop
/// polls, so the first requests on a new connection would otherwise
/// queue behind the accept. The request, a lookup of `::`, is never in
/// a pool (see [`request_pool`]), so it leaves the pool's cache
/// behaviour as it was.
fn warm_up(sock: &mut TcpStream) -> Result<(), String> {
    let probe = Request::Lookup {
        addr: Ipv6Addr::UNSPECIFIED,
    };
    sock.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    sock.write_all(&encode_request(&probe))
        .map_err(|e| format!("warm-up write: {e}"))?;
    let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
    let mut chunk = [0u8; 4096];
    loop {
        match asm.next_frame() {
            Ok(Some(_)) => return Ok(()),
            Ok(None) => {}
            Err(e) => return Err(format!("oversized frame from server: {e}")),
        }
        match sock.read(&mut chunk) {
            Ok(0) => return Err("server closed during warm-up".into()),
            Ok(k) => asm.push(&chunk[..k]),
            Err(e) => return Err(format!("warm-up read: {e}")),
        }
    }
}

/// The generator's loop: send what is due, read what has arrived, and
/// yield the core when neither had anything to do. After the last send
/// it half-closes; the server answers what is in flight, then closes.
fn poll_loop(
    sock: &mut TcpStream,
    framed: &[Vec<u8>],
    kinds: &[usize],
    n: usize,
    due: &dyn Fn(usize) -> Instant,
    w: &mut Window,
) -> Result<(), String> {
    let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
    let mut chunk = [0u8; 16 * 1024];
    let deadline = due(n) + Duration::from_secs(20);
    let mut sent = 0;
    let mut unsent: &[u8] = &[];
    let mut half_closed = false;
    let mut last_epoch = 0u64;
    while w.latency_us.len() < n {
        let mut busy = false;
        // Send: finish the frame in progress, then every request due.
        loop {
            if unsent.is_empty() && sent < n && Instant::now() >= due(sent) {
                w.late_us.push(due(sent).elapsed().as_secs_f64() * 1e6);
                unsent = &framed[sent % framed.len()];
                sent += 1;
            }
            if unsent.is_empty() {
                break;
            }
            match sock.write(unsent) {
                Ok(k) => {
                    unsent = &unsent[k..];
                    busy = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if sent == n && unsent.is_empty() && !half_closed {
            let _ = sock.shutdown(Shutdown::Write);
            half_closed = true;
        }
        // Receive: time every reply that has arrived.
        match sock.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(k) => {
                asm.push(&chunk[..k]);
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        loop {
            let frame = match asm.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => return Err(format!("oversized frame from server: {e}")),
            };
            let i = w.latency_us.len();
            if i >= n {
                return Err("more replies than requests".into());
            }
            let lat = due(i).elapsed().as_secs_f64() * 1e6;
            let ok = match decode_response(&frame) {
                Ok(resp) => {
                    if resp.epoch < last_epoch {
                        w.epoch_regressions += 1;
                    }
                    last_epoch = resp.epoch;
                    !matches!(resp.body, ResponseBody::Error { .. })
                }
                Err(_) => false,
            };
            w.latency_us
                .push((kinds[i % kinds.len()], ok.then_some(lat)));
        }
        if !busy {
            if Instant::now() >= deadline {
                return Err("read deadline exceeded".into());
            }
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Spin on `cpu` until `stop` is set, in the idle scheduling class, so
/// the spinner runs only while the server thread there has nothing to
/// do. A halted virtual core wakes in a time that depends on the host's
/// load, which would otherwise enter every request's latency and move
/// the median from run to run.
fn keep_awake(cpu: &[usize], stop: &AtomicBool) {
    if crate::affinity::restrict(cpu) && crate::affinity::lowest_priority() {
        while !stop.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
    }
}
