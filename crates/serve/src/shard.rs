//! Shard event loops: each shard owns `1/N` of the daemon's connections
//! (assigned by session id) on one thread, multiplexing them with
//! nonblocking sockets and a [`poll`](crate::poll) readiness loop instead
//! of a thread per connection.
//!
//! The loop is event-driven: it blocks in `poll(2)` on its connections
//! plus its own [`Waker`], and runs one iteration per wakeup. Other threads
//! hand it work through its inbox — newly accepted sockets, and encoded
//! replies for its connections: finished compute jobs and published drift
//! frames — and wake it when the inbox goes from empty to non-empty;
//! shutdown, accept-stop and force-close wake every shard. The only
//! timeout is the next idle-sweep deadline, floored at
//! [`MIN_POLL_TIMEOUT`], so an idle shard sleeps until something happens.
//!
//! An iteration: take the inbox, then service only the connections that
//! poll reported ready or that the inbox touched — read whatever the
//! kernel has, feed it through the incremental [`FrameDecoder`], handle
//! complete frames (queueing replies into a per-connection out-buffer),
//! and flush the out-buffer until `WouldBlock`; a watcher whose unsent
//! drift outgrows its bound is shed. The poll table persists across
//! iterations and changes only on insert, teardown and interest changes. When the sweep deadline
//! passes, idle connections are reaped (replacing the old GC thread).
//! Finally the shard records its self-health: service-pass and loop-lag
//! histograms plus the last-pass levels in [`ShardState`].
//!
//! Each connection has exactly one [`Role`]. It starts `Fresh`, and the
//! first `Hello`, watch `Subscribe` or `SubmitJob` makes it a `Session`,
//! a `Watch` or a `Compute` channel for the rest of its life. Every frame
//! is dispatched on the pair of role and frame, in one match:
//!
//! | frame \ role         | Fresh        | Session      | Compute     |
//! |----------------------|--------------|--------------|-------------|
//! | `Hello`              | admit        | refuse       | refuse      |
//! | `Events` `Flush` `Finish` `Resim` | refuse | serve | refuse   |
//! | `Stats` `Blackbox`   | reply        | reply        | reply       |
//! | `TraceCtx` `TraceExport` | reply    | reply        | refuse      |
//! | `Subscribe`          | reply; watch → `Watch` | reply; watch refused | refuse |
//! | `SubmitJob`          | → `Compute`  | refuse       | submit      |
//!
//! A watcher's bytes are never decoded: whatever it sends is ignored.
//! A refusal is a returned [`Refusal`], and [`close_with`] — the one way
//! the shard ends a connection — queues its `Error` or `Busy` frame and
//! closes once the out-buffer drains. Every session ends through
//! [`end_session`], on `Finish` or when its connection closes under it:
//! the program detach publishes the session's last drift before the slot
//! is released, and exactly one of `finished` or `aborted` is counted.
//!
//! An `Events` frame is decoded in place into the connection's recycled
//! event vector, and handled with one virtual call into the session's
//! [`SessionSim`], which runs one monomorphic loop over the frame:
//! predictor step, 2D accumulation, stream tally and recording. The
//! direction bits are data on that path — the two-bit counter update is a
//! table lookup and the recording shifts each bit into place — so no
//! per-event branch follows the branch being profiled.
//!
//! Admission is tiered per shard: sessions are accepted with full service
//! while the shard's resident recorded-trace bytes sit below half its
//! memory budget, admitted *degraded* (no recording, streaming verdicts
//! still flow) above that watermark, and shed with `Busy` + a retry-after
//! hint at the full budget. Recorded sessions spill to disk segments via
//! [`SessionTrace`] so residency stays bounded regardless of session
//! length.
//!
//! Fabric compute connections live here too. Each `SubmitJob` goes to the
//! compute pool, whose engine answers it from its cache tier or computes
//! it; the worker pushes the `JobResult` onto the owning shard's inbox. The
//! push wakes the shard, which moves the reply into the connection's
//! out-buffer at once. The shard itself never reads the disk cache.

use crate::config::ServerConfig;
use crate::flight::FlightKind;
use crate::poll::{PollSet, Waker};
use crate::server::{detach_program, publish_drift, ProgramSession, Shared, Subscriber};
use crate::session::{session_sim, SessionSim};
use crate::spill::SessionTrace;
use crate::wire::{
    codes, AdmissionTier, ClientFrame, FrameDecoder, Hello, ServerFrame, MAX_SITES,
    PROTOCOL_VERSION,
};
use bpred::PredictorKind;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use twodprof_core::SliceConfig;
use twodprof_obs::trace::{self, Span, TraceContext};
use twodprof_obs::{Family, Histogram};

/// Floor on a shard's poll timeout. The timeout is the next idle-sweep
/// deadline, and a sweep due sooner than this waits this long, so a shard
/// never polls in a tight loop on an almost-due deadline.
const MIN_POLL_TIMEOUT: Duration = Duration::from_millis(10);

/// Slot of a shard's poll table that holds its waker; connections follow.
const WAKER_SLOT: usize = 0;

/// Per-connection, per-iteration ceiling on bytes pulled off the socket,
/// so one fire-hose session cannot starve its shard siblings. A socket
/// with bytes left stays readable, so the next poll returns at once: this
/// caps latency, not throughput.
const MAX_READ_PER_TICK: usize = 4 << 20;

/// Largest `Events` vector a connection keeps for reuse (512 KiB, eight
/// default client batches). A rare larger frame's vector is freed rather
/// than pinned for the life of the connection.
const MAX_SPARE_EVENTS: usize = 1 << 16;

/// Loop lag past which an iteration is notable enough for the flight
/// recorder: the shard spent this long outside `poll` on one iteration,
/// starving its other connections.
const SLOW_TICK_LAG: Duration = Duration::from_millis(250);

/// The longest encoded `DriftEvent` frame: length prefix, tag, sub-tag and
/// the widest site and epoch varints. `limits.max_subscriber_queue` of
/// these bound a watcher's unsent drift bytes.
const MAX_DRIFT_FRAME_LEN: usize = 20;

/// State shared between a shard's event loop, the accept loop that feeds
/// it, and admission decisions made on other threads.
pub(crate) struct ShardState {
    pub(crate) index: usize,
    /// Newly accepted sockets from the accept loop, and encoded replies
    /// from compute workers and drift publishers, taken by the shard's
    /// loop each iteration under one lock.
    inbox: Mutex<Vec<Inbox>>,
    /// Ends the shard's poll wait: written when the inbox goes from empty
    /// to non-empty, and on shutdown, accept-stop and force-close.
    waker: Waker,
    /// Resident bytes of this shard's recorded session traces — the input
    /// to tiered admission.
    pub(crate) resident_bytes: AtomicU64,
    /// Bytes this shard's sessions currently hold in spill segments.
    pub(crate) spilled_bytes: AtomicU64,
    /// Sessions currently open on this shard.
    pub(crate) sessions: AtomicUsize,
    /// Duration of the last service pass (poll return to iteration end),
    /// in microseconds; `serve_shard{i}_last_tick_micros` in snapshots.
    pub(crate) last_tick_micros: AtomicU64,
    /// Loop lag of the last iteration — its time outside `poll` — in
    /// microseconds.
    pub(crate) last_lag_micros: AtomicU64,
    /// Deepest per-connection reply backlog this shard has ever seen, in
    /// bytes.
    pub(crate) out_high_water: AtomicU64,
}

/// One entry of a shard's inbox.
enum Inbox {
    /// A newly accepted socket and its connection id.
    Socket(u64, TcpStream),
    /// Encoded frames for the connection with this id: one `JobResult`,
    /// or one publish's `DriftEvent`s.
    Reply(u64, Vec<u8>),
}

impl ShardState {
    pub(crate) fn new(index: usize) -> io::Result<Self> {
        Ok(Self {
            index,
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            resident_bytes: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            sessions: AtomicUsize::new(0),
            last_tick_micros: AtomicU64::new(0),
            last_lag_micros: AtomicU64::new(0),
            out_high_water: AtomicU64::new(0),
        })
    }

    /// Ends the shard's current poll wait so it re-reads the daemon's
    /// shutdown state.
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Hands a newly accepted socket to this shard.
    pub(crate) fn push_socket(&self, id: u64, stream: TcpStream) {
        self.push(Inbox::Socket(id, stream));
    }

    /// Queues encoded frames for connection `conn`; the shard delivers
    /// them at once, or drops them if the connection is gone or closing.
    pub(crate) fn push_reply(&self, conn: u64, bytes: Vec<u8>) {
        self.push(Inbox::Reply(conn, bytes));
    }

    /// Takes the queued replies, in push order, as `(connection, frames)`.
    #[cfg(test)]
    pub(crate) fn take_replies(&self) -> Vec<(u64, Vec<u8>)> {
        let inbox = std::mem::take(&mut *self.inbox.lock().expect("shard inbox"));
        inbox
            .into_iter()
            .filter_map(|entry| match entry {
                Inbox::Reply(conn, bytes) => Some((conn, bytes)),
                Inbox::Socket(..) => None,
            })
            .collect()
    }

    /// Appends to the inbox, waking the shard on the empty → non-empty
    /// edge: a non-empty inbox already has a wake in flight, because the
    /// loop drains its waker before it takes the inbox.
    fn push(&self, entry: Inbox) {
        let mut inbox = self.inbox.lock().expect("shard inbox");
        let was_empty = inbox.is_empty();
        inbox.push(entry);
        drop(inbox);
        if was_empty {
            self.waker.wake();
        }
    }
}

/// The admission tier a shard is in *right now*, derived from its resident
/// recording bytes against the configured budget: full service below half
/// the budget, Degrade past that watermark, Shed at the budget. One
/// definition shared by [`admit`], the shard loop's tier-transition
/// records, and the `serve_shard{i}_tier` gauge of `Shared::snapshot`
/// (which `/healthz`, `/vars` and the stats summary read), so they can
/// never disagree.
pub(crate) fn current_tier(config: &ServerConfig, shard: &ShardState) -> AdmissionTier {
    if !config.record_sessions {
        return AdmissionTier::Accept;
    }
    let budget = config.shards.memory_budget as u64;
    let resident = shard.resident_bytes.load(Ordering::Relaxed);
    if resident >= budget {
        AdmissionTier::Shed
    } else if resident >= budget / 2 {
        AdmissionTier::Degrade
    } else {
        AdmissionTier::Accept
    }
}

/// Per-shard histogram families: one handle per shard index, named and
/// registered on first use (the `histogram!` macro's per-call-site cache
/// would pin every shard to shard 0's name; [`Family`] keys the cache by
/// index). The shard's levels are not registry metrics: they live in
/// [`ShardState`] and join each read through `Shared::snapshot`.
static SHARD_TICK_HIST: Family<Histogram> = Family::histogram(
    "serve_shard",
    "_tick_micros",
    "Shard service-pass duration per loop iteration, in microseconds.",
);
static SHARD_LAG_HIST: Family<Histogram> = Family::histogram(
    "serve_shard",
    "_loop_lag_micros",
    "Shard loop lag per iteration (time outside poll), in microseconds.",
);

/// One live profiling session (between `Hello` and its end).
struct LiveSession {
    /// The session predictor's 2D-profiling run, one virtual call per
    /// `Events` frame.
    sim: Box<dyn SessionSim>,
    num_sites: u32,
    events: u64,
    /// The session's spillable branch-stream recording, present when the
    /// daemon records sessions and admission granted full service.
    recorded: Option<SessionTrace>,
    /// Resident/spilled bytes last folded into the shard accounting, so
    /// per-frame updates are deltas, not rescans.
    resident_last: u64,
    spilled_last: u64,
    /// The session's slice geometry, reused verbatim for re-simulations.
    slice: SliceConfig,
    /// Attachment to the shared per-program streaming profiler, when the
    /// session's `Hello` named a program.
    program: Option<ProgramSession>,
    /// Admission tier the session was granted (Accept or Degrade).
    tier: AdmissionTier,
    /// Context per-frame spans attach under.
    child_ctx: TraceContext,
    /// Covers the whole Hello→Finish (or abort) window; records itself
    /// into the trace collector when the session is dropped.
    _span: Span,
}

/// What a connection is for. It starts `Fresh`, and its first `Hello`,
/// watch `Subscribe` or `SubmitJob` fixes its role for life.
enum Role {
    /// No role yet: only sessionless queries so far.
    Fresh,
    /// A profiling session between `Hello` and its end.
    Session(Box<LiveSession>),
    /// A watch subscription: drift frames arrive as replies, and the
    /// client's bytes are ignored.
    Watch(Watch),
    /// A fabric compute channel with `owed` submitted jobs still waiting
    /// for their `JobResult`.
    Compute { owed: usize },
}

/// One multiplexed connection owned by a shard.
struct Conn {
    stream: TcpStream,
    /// This connection's slot in the shard's poll table.
    slot: usize,
    decoder: FrameDecoder,
    /// The last `Events` frame's vector, handed back to the decoder so a
    /// session's frames reuse one allocation.
    spare_events: Vec<(u32, bool)>,
    /// Reply bytes not yet accepted by the kernel; `out_pos` is the sent
    /// prefix.
    out: Vec<u8>,
    out_pos: usize,
    last_seen: Instant,
    conn_ctx: TraceContext,
    role: Role,
    /// Set by [`close_with`]: flush `out`, then close.
    closing: bool,
    /// Peer closed its write side.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream, slot: usize) -> Self {
        Self {
            stream,
            slot,
            decoder: FrameDecoder::new(),
            spare_events: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_seen: Instant::now(),
            conn_ctx: TraceContext::NONE,
            role: Role::Fresh,
            closing: false,
            eof: false,
        }
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Whether reading could still matter: not after the peer's EOF, nor
    /// once the daemon is saying goodbye. Hangups and errors are reported
    /// regardless, so dropping read interest never hides a dead peer.
    fn wants_read(&self) -> bool {
        !self.eof && !self.closing
    }

    /// Whether the client's bytes are frames; a watcher's are ignored.
    fn reads_frames(&self) -> bool {
        !matches!(self.role, Role::Watch(_))
    }

    /// Spared by the idle sweep unless closing: a compute channel still
    /// owed replies, or a watcher, which is idle on purpose between drift
    /// events. A shed watcher that never reads is reaped.
    fn idle_exempt(&self) -> bool {
        !self.closing
            && match self.role {
                Role::Compute { owed } => owed > 0,
                Role::Watch(_) => true,
                Role::Fresh | Role::Session(_) => false,
            }
    }
}

/// A watch connection's subscription.
struct Watch {
    /// Keeps the connection's entry in the program's subscriber list live.
    _sub: Arc<Subscriber>,
    /// Unsent bytes queued before the first drift frame (the verdict
    /// snapshot), which do not count against the drift bound.
    lead: usize,
}

/// A watcher's bound on unsent drift bytes: `limits.max_subscriber_queue`
/// of the widest drift frames. It caps both the shard's out-buffer and the
/// socket's kernel send buffer.
fn drift_bound(config: &ServerConfig) -> usize {
    config
        .limits
        .max_subscriber_queue
        .saturating_mul(MAX_DRIFT_FRAME_LEN)
}

fn push_frame(out: &mut Vec<u8>, frame: &ServerFrame) {
    frame.write_to(out).expect("vec write");
}

/// A refused frame's reply, an `Error` or a `Busy`, which [`close_with`]
/// queues just before the connection closes.
struct Refusal(ServerFrame);

fn refusal(code: u64, msg: impl Into<String>) -> Refusal {
    let msg = msg.into();
    Refusal(ServerFrame::Error { code, msg })
}

fn bad_state(msg: impl Into<String>) -> Refusal {
    refusal(codes::BAD_STATE, msg)
}

fn busy(msg: String, retry_after_ms: u64) -> Refusal {
    let tier = AdmissionTier::Shed;
    Refusal(ServerFrame::Busy {
        msg,
        tier,
        retry_after_ms,
    })
}

/// The one way the shard ends a connection: queues `goodbye` (a refusal,
/// or the report a `Finish` owes) and closes once the out-buffer drains.
fn close_with(conn: &mut Conn, goodbye: Option<ServerFrame>) {
    if let Some(frame) = goodbye {
        push_frame(&mut conn.out, &frame);
    }
    conn.closing = true;
}

/// What to do with a connection after servicing it this iteration.
enum Fate {
    Keep,
    /// Tear the connection down (flushing was already attempted).
    Close,
}

/// Applies a resident/spilled byte delta to a shard total.
fn apply_delta(total: &AtomicU64, old: u64, new: u64) {
    if new >= old {
        total.fetch_add(new - old, Ordering::Relaxed);
    } else {
        total.fetch_sub(old - new, Ordering::Relaxed);
    }
}

/// A shard's connections and the persistent poll table that watches them:
/// slot [`WAKER_SLOT`] is the waker, every other slot one connection.
struct ConnTable {
    conns: HashMap<u64, Conn>,
    set: PollSet,
    /// Connection id per poll slot (the waker's slot holds 0, never an id).
    slot_ids: Vec<u64>,
}

impl ConnTable {
    fn new(waker: &Waker) -> Self {
        let mut set = PollSet::new();
        set.push(waker.fd());
        Self {
            conns: HashMap::new(),
            set,
            slot_ids: vec![0],
        }
    }

    fn insert(&mut self, id: u64, stream: TcpStream) {
        let slot = self.set.push(crate::poll::fd_of(&stream));
        self.slot_ids.push(id);
        self.conns.insert(id, Conn::new(stream, slot));
    }

    /// Takes a connection out of the table, moving the last slot's
    /// connection into its poll slot.
    fn remove(&mut self, id: u64) -> Conn {
        let conn = self.conns.remove(&id).expect("conn");
        self.set.swap_remove(conn.slot);
        self.slot_ids.swap_remove(conn.slot);
        if let Some(&moved) = self.slot_ids.get(conn.slot) {
            self.conns.get_mut(&moved).expect("moved conn").slot = conn.slot;
        }
        conn
    }

    /// Brings a kept connection's poll interest up to date.
    fn refresh_interest(&mut self, id: u64) {
        let conn = &self.conns[&id];
        self.set
            .set_interest(conn.slot, conn.wants_read(), conn.out_pending());
    }
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<Instant>, b: Instant) -> Option<Instant> {
    Some(a.map_or(b, |a| a.min(b)))
}

/// The shard thread body: multiplexes this shard's connections until
/// shutdown has drained them all.
pub(crate) fn shard_loop(shared: &Arc<Shared>, shard: &Arc<ShardState>) {
    let tick_hist = SHARD_TICK_HIST.get(shard.index);
    let lag_hist = SHARD_LAG_HIST.get(shard.index);
    let idle_timeout = shared.config.limits.idle_timeout;
    let mut table = ConnTable::new(&shard.waker);
    let mut intake: Vec<Inbox> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    // when the idle sweep next has something that could expire
    let mut next_sweep: Option<Instant> = None;
    let mut prev_tier = AdmissionTier::Accept;
    let mut iter_end = Instant::now();
    loop {
        if shared.is_draining() && table.conns.is_empty() && shared.accept_stopped() {
            // re-check the inbox under its lock: the accept loop stopped,
            // but a socket may have landed after our last intake — its push
            // woke us, so the wait below returns at once (orphan replies
            // don't hold the shard up)
            let inbox = shard.inbox.lock().expect("shard inbox");
            if !inbox.iter().any(|e| matches!(e, Inbox::Socket(..))) {
                break;
            }
        }

        let wait_start = Instant::now();
        table.set.wait(next_sweep.map(|at| {
            at.saturating_duration_since(wait_start)
                .max(MIN_POLL_TIMEOUT)
        }));
        let service_start = Instant::now();
        // read after the wait: a shutdown wake must see the new state
        let draining = shared.is_draining();
        let force = shared.force_closing();
        let woken = table.set.is_ready(WAKER_SLOT);
        if woken {
            // drain before taking the inbox, so a push racing with the take
            // leaves the waker readable for the next wait
            shard.waker.drain();
        }

        // read before taking the inbox: a session publishes its last drift
        // before it releases its slot, so when none was live every drift
        // frame still to come is in the intake below
        let drained = draining && shared.live_sessions.load(Ordering::SeqCst) == 0;

        // intake: newly accepted sockets, compute replies and drift frames
        touched.clear();
        std::mem::swap(&mut intake, &mut *shard.inbox.lock().expect("shard inbox"));
        for entry in intake.drain(..) {
            match entry {
                Inbox::Socket(id, stream) => {
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        shared.conn_gone();
                        continue;
                    }
                    table.insert(id, stream);
                    next_sweep = earliest(next_sweep, service_start + idle_timeout);
                }
                // a reply whose connection is gone or closing goes into the
                // void
                Inbox::Reply(id, bytes) => {
                    if let Some(conn) = table.conns.get_mut(&id) {
                        if let Role::Compute { owed } = &mut conn.role {
                            *owed = owed.saturating_sub(1);
                        }
                        if !conn.closing {
                            conn.out.extend_from_slice(&bytes);
                            conn.last_seen = service_start;
                            next_sweep = earliest(next_sweep, service_start + idle_timeout);
                            touched.push(id);
                        }
                    }
                }
            }
        }
        // the ready set; a forced close or a drain-time wake widens it to
        // every connection: a drain-time wake may mean the last session
        // ended, so every watcher re-checks whether it can close
        if force || (draining && woken) {
            touched.extend(table.conns.keys().copied());
        } else {
            touched.extend(
                (1..table.set.len())
                    .filter(|&slot| table.set.is_ready(slot))
                    .map(|slot| table.slot_ids[slot]),
            );
        }
        touched.sort_unstable();
        touched.dedup();

        let mut backlog = 0u64;
        for &id in &touched {
            let Some(conn) = table.conns.get_mut(&id) else {
                continue;
            };
            let ready = table.set.readiness(conn.slot);
            let tick = Tick {
                readable: ready.read,
                // output produced since the last wait was not registered
                // for write interest, so attempt it optimistically;
                // backlogged output waits for the kernel to report
                // writability
                writable: !table.set.wants_write(conn.slot) || ready.write,
                drained,
                force,
            };
            match service_conn(shared, shard, id, conn, tick) {
                Fate::Keep => {
                    backlog = backlog.max((conn.out.len() - conn.out_pos) as u64);
                    table.refresh_interest(id);
                }
                Fate::Close => {
                    let conn = table.remove(id);
                    teardown(shared, shard, id, conn);
                }
            }
        }
        if next_sweep.is_some_and(|at| service_start >= at) {
            next_sweep = sweep_idle(shared, shard, &mut table, idle_timeout);
        }

        // self-health: service-pass duration, loop lag (the iteration's
        // time outside poll), the deepest reply backlog, and tier
        // transitions
        let now = Instant::now();
        let tick_time = now.duration_since(service_start);
        let lag = now
            .duration_since(iter_end)
            .saturating_sub(service_start.duration_since(wait_start));
        iter_end = now;
        tick_hist.observe_duration(tick_time);
        lag_hist.observe_duration(lag);
        shard
            .last_tick_micros
            .store(tick_time.as_micros() as u64, Ordering::Relaxed);
        shard
            .last_lag_micros
            .store(lag.as_micros() as u64, Ordering::Relaxed);
        shard.out_high_water.fetch_max(backlog, Ordering::Relaxed);
        if lag >= SLOW_TICK_LAG {
            shared.flight.record(
                FlightKind::SlowTick,
                shard.index as u32,
                0,
                format!(
                    "loop iteration spent {}ms outside poll ({} connection(s))",
                    lag.as_millis(),
                    table.conns.len()
                ),
            );
        }
        let tier = current_tier(&shared.config, shard);
        if tier != prev_tier {
            let kind = match tier {
                AdmissionTier::Degrade => Some(FlightKind::Degrade),
                AdmissionTier::Shed => Some(FlightKind::Shed),
                AdmissionTier::Accept => None,
            };
            if let Some(kind) = kind {
                shared.flight.record(
                    kind,
                    shard.index as u32,
                    0,
                    format!(
                        "admission tier {} -> {} ({} byte(s) resident of {} budget)",
                        prev_tier.label(),
                        tier.label(),
                        shard.resident_bytes.load(Ordering::Relaxed),
                        shared.config.shards.memory_budget
                    ),
                );
            }
            prev_tier = tier;
        }
    }
}

/// Reaps every connection idle past `idle_timeout` that is not exempt,
/// and returns when the earliest survivor could next expire (`None` when
/// nothing can).
fn sweep_idle(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    table: &mut ConnTable,
    idle_timeout: Duration,
) -> Option<Instant> {
    let mut expired = Vec::new();
    let mut next = None;
    for (&id, conn) in &table.conns {
        if conn.idle_exempt() {
            continue;
        }
        if conn.last_seen.elapsed() > idle_timeout {
            expired.push(id);
        } else {
            next = earliest(next, conn.last_seen + idle_timeout);
        }
    }
    for id in expired {
        shared.log(format_args!("conn {id}: idle timeout, reaping"));
        twodprof_obs::counter!(
            "serve_sessions_reaped_total",
            "Connections reaped by the idle-timeout sweep."
        )
        .inc();
        let conn = table.remove(id);
        teardown(shared, shard, id, conn);
    }
    next
}

/// One iteration's view of a connection, as the shard loop observed it.
#[derive(Clone, Copy)]
struct Tick {
    readable: bool,
    writable: bool,
    /// Draining, and no session was live before the inbox was taken: no
    /// more drift can be published.
    drained: bool,
    force: bool,
}

/// Services one connection for one iteration: read + decode + handle
/// frames, flush the out-buffer, check a watcher's drift backlog, then
/// decide its fate. Idle reaping is the sweep's job, not this one's.
fn service_conn(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    id: u64,
    conn: &mut Conn,
    tick: Tick,
) -> Fate {
    let mut io_dead = false;
    if tick.readable && !conn.closing {
        match read_available(conn) {
            Ok(()) => process_frames(shared, shard, id, conn),
            Err(e) => {
                shared.log(format_args!("conn {id}: {e}"));
                io_dead = true;
            }
        }
    }

    let mut sent = 0;
    if conn.out_pending() && tick.writable {
        match flush_out(conn) {
            Ok(n) => sent = n,
            Err(e) => {
                shared.log(format_args!("conn {id}: write failed: {e}"));
                io_dead = true;
            }
        }
    }
    check_watch(shared, conn, sent, tick.drained);

    // close once the peer finished sending or we said goodbye, and
    // anything we owed it has been flushed
    if tick.force || io_dead || ((conn.eof || conn.closing) && !conn.out_pending()) {
        Fate::Close
    } else {
        Fate::Keep
    }
}

/// Reads until `WouldBlock`, EOF, or the per-iteration fairness cap, feeding
/// the incremental decoder. A watcher's bytes are discarded instead: they
/// are not frames.
fn read_available(conn: &mut Conn) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    let mut total = 0usize;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.last_seen = Instant::now();
                if conn.reads_frames() {
                    conn.decoder.push(&buf[..n]);
                }
                total += n;
                if total >= MAX_READ_PER_TICK {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Decodes and handles every complete frame the decoder holds, until the
/// connection closes or becomes a watcher, whose later bytes are ignored.
fn process_frames(shared: &Arc<Shared>, shard: &Arc<ShardState>, id: u64, conn: &mut Conn) {
    while conn.reads_frames() && !conn.closing {
        let frame = match conn.decoder.next_client_reusing(&mut conn.spare_events) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                twodprof_obs::counter!(
                    "serve_frame_decode_errors_total",
                    "Client frames that failed to decode."
                )
                .inc();
                shared.flight.record(
                    FlightKind::DecodeError,
                    shard.index as u32,
                    id,
                    e.to_string(),
                );
                shared.log(format_args!("conn {id}: {e}"));
                // the decoder yields only whole frames, so any error is a
                // malformed frame (a body cut short included): answer it
                close_with(
                    conn,
                    Some(refusal(codes::BAD_FRAME, format!("bad frame: {e}")).0),
                );
                return;
            }
        };
        conn.last_seen = Instant::now();
        if let Err(Refusal(reply)) = handle_frame(shared, shard, id, conn, frame) {
            close_with(conn, Some(reply));
        }
    }
}

/// Handles one decoded frame: one match on the pair of the connection's
/// role and the frame (the table in the module doc). A refused frame
/// returns its reply, and the caller closes the connection.
fn handle_frame(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    id: u64,
    conn: &mut Conn,
    frame: ClientFrame,
) -> Result<(), Refusal> {
    // Adopt a TraceCtx before opening its own frame span, so even that
    // first span lands in the client's trace.
    if let ClientFrame::TraceCtx { trace, parent } = &frame {
        conn.conn_ctx = TraceContext {
            trace: *trace,
            parent: *parent,
        };
    }
    let frame_ctx = match &conn.role {
        Role::Session(live) => live.child_ctx,
        _ => conn.conn_ctx,
    };
    let _ctx_guard = frame_ctx.is_active().then(|| trace::attach(frame_ctx));
    let _frame_span = twodprof_obs::span!(crate::server::frame_name(&frame));
    let reply = match (&mut conn.role, frame) {
        (Role::Session(live), ClientFrame::Events(events)) => {
            ingest(shared, shard, id, live, &events)?;
            if events.capacity() <= MAX_SPARE_EVENTS {
                conn.spare_events = events;
            }
            return Ok(());
        }
        // unreachable: `reads_frames` stops decoding a watcher's bytes
        (Role::Watch(_), _) => return Ok(()),
        (_, ClientFrame::Stats) => ServerFrame::StatsReply(shared.snapshot().to_bytes()),
        // ships the flight recorder's ring as one checksummed block
        (_, ClientFrame::Blackbox) => ServerFrame::BlackboxReply(shared.flight.encode()),
        (Role::Compute { owed }, ClientFrame::SubmitJob { job_id, spec }) => {
            // a worker replies through this shard's inbox, out of
            // submission order
            compute_pool(shared)?.submit(job_id, spec, shard.clone(), id);
            *owed += 1;
            return Ok(());
        }
        (Role::Fresh, ClientFrame::SubmitJob { job_id, spec }) => {
            compute_pool(shared)?.submit(job_id, spec, shard.clone(), id);
            shared.log(format_args!("conn {id}: fabric compute channel opened"));
            conn.role = Role::Compute { owed: 1 };
            return Ok(());
        }
        (Role::Compute { .. }, frame) => {
            return Err(bad_state(format!(
                "{} is not allowed on a compute channel",
                crate::server::frame_name(&frame)
            )))
        }
        // conn_ctx was adopted above, before the frame span opened; reply
        // with our trace clock so the client can align the two processes'
        // epochs from one round trip
        (_, ClientFrame::TraceCtx { .. }) => ServerFrame::TraceAck {
            anchor_us: trace::now_micros(),
        },
        // drain every ring (including those of finished threads) and ship
        // whatever this daemon recorded for the requested trace
        (_, ClientFrame::TraceExport { trace: trace_id }) => {
            let spans = trace::collector().collect_trace(trace_id);
            ServerFrame::TraceSpans(trace::encode_spans(trace_id, &spans))
        }
        (Role::Fresh, ClientFrame::Hello(hello)) => {
            let live = admit(shared, shard, id, &hello, conn.conn_ctx)?;
            let tier = live.tier;
            conn.role = Role::Session(live);
            shard.sessions.fetch_add(1, Ordering::Relaxed);
            shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
            ServerFrame::HelloOk {
                session_id: id,
                tier,
            }
        }
        (Role::Session(live), ClientFrame::Flush) => ServerFrame::Ack {
            events_total: live.events,
        },
        (Role::Session(_), ClientFrame::Finish) => {
            end_session(shared, shard, id, conn, End::Finish);
            return Ok(());
        }
        // the session stays open: more events or further resims may follow
        (Role::Session(live), ClientFrame::Resim(kind)) => resimulate(shared, id, live, kind)?,
        (Role::Session(_), ClientFrame::Hello(_)) => return Err(bad_state("duplicate Hello")),
        (Role::Session(_), ClientFrame::Subscribe { watch: true, .. }) => {
            return Err(bad_state("watch is not allowed on a session connection"))
        }
        (Role::Session(_), ClientFrame::SubmitJob { .. }) => {
            return Err(bad_state(
                "job frames are not allowed on a session connection",
            ))
        }
        (_, ClientFrame::Subscribe { program, watch }) => {
            return subscribe(shared, shard, id, conn, &program, watch)
        }
        (Role::Fresh, ClientFrame::Events(_)) => return Err(bad_state("Events before Hello")),
        (Role::Fresh, ClientFrame::Flush) => return Err(bad_state("Flush before Hello")),
        (Role::Fresh, ClientFrame::Finish) => return Err(bad_state("Finish before Hello")),
        (Role::Fresh, ClientFrame::Resim(_)) => return Err(bad_state("Resim before Hello")),
    };
    push_frame(&mut conn.out, &reply);
    Ok(())
}

/// The daemon's compute pool, or the refusal of a daemon without
/// `--compute`.
fn compute_pool(shared: &Shared) -> Result<&crate::compute::ComputePool, Refusal> {
    shared
        .compute
        .as_deref()
        .ok_or_else(|| bad_state("compute service is disabled on this daemon"))
}

/// Runs one `Events` frame through a session: the event limit and the
/// site range are checked first, and a frame that fails either is refused
/// whole.
fn ingest(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    id: u64,
    live: &mut LiveSession,
    events: &[(u32, bool)],
) -> Result<(), Refusal> {
    let n = events.len() as u64;
    let limit = shared.config.limits.max_events_per_session;
    if live.events.saturating_add(n) > limit {
        // explicit backpressure: the session's abort is counted when the
        // connection closes
        return Err(busy(format!("event limit {limit} exceeded"), 0));
    }
    // one branch-free max over the frame; the search below runs only to
    // name the offender
    if events.iter().map(|&(site, _)| site).max() >= Some(live.num_sites) {
        let (site, _) = events
            .iter()
            .find(|&&(site, _)| site >= live.num_sites)
            .expect("an event past the table");
        return Err(refusal(
            codes::SITE_RANGE,
            format!("site {site} outside table of {}", live.num_sites),
        ));
    }
    live.sim.ingest(
        events,
        live.program.as_mut().map(|ps| &mut ps.ingest),
        live.recorded.as_mut(),
    );
    live.events += n;
    shared.events_ingested.fetch_add(n, Ordering::Relaxed);
    // spill the recording tail if it crossed the threshold, then fold the
    // resident/spilled deltas into the shard accounting
    if let Some(rec) = live.recorded.as_mut() {
        match rec.maybe_spill() {
            Ok(0) => {}
            Ok(bytes) => {
                twodprof_obs::counter!(
                    "serve_spill_segments_total",
                    "Session recording segments spilled to disk."
                )
                .inc();
                twodprof_obs::counter!(
                    "serve_spill_bytes_total",
                    "Bytes of session recordings spilled to disk."
                )
                .add(bytes);
                shared.flight.record(
                    FlightKind::Spill,
                    shard.index as u32,
                    id,
                    format!("{bytes} byte(s) spilled to a segment"),
                );
            }
            Err(e) => {
                shared.log(format_args!(
                    "conn {id}: spill failed ({e}); keeping the session resident"
                ));
                shared.flight.record(
                    FlightKind::Spill,
                    shard.index as u32,
                    id,
                    format!("spill failed: {e}; session kept resident"),
                );
            }
        }
        let resident = rec.resident_bytes();
        let spilled = rec.spilled_bytes();
        apply_delta(&shard.resident_bytes, live.resident_last, resident);
        apply_delta(&shard.spilled_bytes, live.spilled_last, spilled);
        live.resident_last = resident;
        live.spilled_last = spilled;
    }
    // hand completed epochs to the program's shared profiler and fan out
    // any drift its folds confirmed
    if let Some(ps) = live.program.as_mut() {
        if ps.ingest.pending_epochs() > 0 {
            let mut drift = Vec::new();
            {
                let mut profiler = ps.stream.profiler.lock().expect("stream profiler");
                if let Some(p) = profiler.as_mut() {
                    p.ingest(&mut ps.ingest, &mut drift);
                }
            }
            if !drift.is_empty() {
                publish_drift(&ps.stream, &drift);
            }
        }
    }
    Ok(())
}

/// Replays a session's recording under another predictor and returns the
/// report frame.
fn resimulate(
    shared: &Shared,
    id: u64,
    live: &LiveSession,
    kind: PredictorKind,
) -> Result<ServerFrame, Refusal> {
    let Some(rec) = live.recorded.as_ref() else {
        return Err(bad_state(if live.tier == AdmissionTier::Degrade {
            "session was admitted degraded (memory pressure); recording disabled"
        } else {
            "session recording is disabled on this daemon"
        }));
    };
    let mut sim = session_sim(kind, live.num_sites as usize, live.slice);
    sim.replay(rec)
        .map_err(|e| bad_state(format!("recorded segments unreadable: {e}")))?;
    let report = sim.finish();
    twodprof_obs::counter!(
        "trace_replay_total",
        "Jobs served by replaying a recorded trace; one simulation may serve several."
    )
    .inc();
    shared.log(format_args!(
        "conn {id}: resimulated {} event(s) under {kind}",
        rec.events()
    ));
    Ok(ServerFrame::Report(report.to_bytes()))
}

/// Answers a `Subscribe` with the program's verdict snapshot; with `watch`
/// the connection becomes a watcher, its kernel send buffer capped at the
/// drift bound.
fn subscribe(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    id: u64,
    conn: &mut Conn,
    program: &str,
    watch: bool,
) -> Result<(), Refusal> {
    let stream = shared
        .programs
        .lock()
        .expect("program table")
        .get(program)
        .cloned()
        .ok_or_else(|| bad_state(format!("unknown program {program:?}")))?;
    let snapshot = shared.program_snapshot(&stream);
    push_frame(
        &mut conn.out,
        &ServerFrame::VerdictSnapshot(snapshot.to_bytes()),
    );
    if watch {
        let sub = Arc::new(Subscriber {
            shard: shard.clone(),
            conn: id,
        });
        stream
            .subscribers
            .lock()
            .expect("subscriber list")
            .push(Arc::downgrade(&sub));
        shared.log(format_args!("conn {id}: watching program {program:?}"));
        crate::poll::cap_send_buffer(
            crate::poll::fd_of(&conn.stream),
            drift_bound(&shared.config),
        );
        conn.role = Role::Watch(Watch {
            _sub: sub,
            lead: conn.out.len() - conn.out_pos,
        });
    }
    Ok(())
}

/// After a watcher's flush, which wrote `sent` bytes, sheds it with `Busy`
/// once its unsent drift outgrows [`drift_bound`], and closes it cleanly
/// once no session can publish more drift (the watcher sees EOF after the
/// frames already queued).
fn check_watch(shared: &Arc<Shared>, conn: &mut Conn, sent: usize, drained: bool) {
    let Role::Watch(watch) = &mut conn.role else {
        return;
    };
    watch.lead = watch.lead.saturating_sub(sent);
    if conn.closing {
        return;
    }
    let drift = (conn.out.len() - conn.out_pos).saturating_sub(watch.lead);
    if drift > drift_bound(&shared.config) {
        twodprof_obs::counter!(
            "serve_subscriber_drops_total",
            "Watch subscribers shed because their unsent drift outgrew the bound."
        )
        .inc();
        let shed = busy(
            format!("subscriber lagging: {drift} unsent drift byte(s)"),
            0,
        );
        close_with(conn, Some(shed.0));
    } else if drained {
        close_with(conn, None);
    }
}

/// Writes the out-buffer until done or `WouldBlock`, and returns how many
/// bytes the kernel took.
fn flush_out(conn: &mut Conn) -> io::Result<usize> {
    let start = conn.out_pos;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let sent = conn.out_pos - start;
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos >= (1 << 16) {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(sent)
}

/// Removes a connection: aborts its session, if one is open, and shuts the
/// socket; dropping a watcher's subscription retires its subscriber-list
/// entry.
fn teardown(shared: &Arc<Shared>, shard: &Arc<ShardState>, id: u64, mut conn: Conn) {
    end_session(shared, shard, id, &mut conn, End::Abort);
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.conn_gone();
}

/// How a session ends.
enum End {
    /// The client's `Finish`: the report is the goodbye.
    Finish,
    /// The connection closed under the session: a disconnect, a refused
    /// frame, an idle reap or a forced close.
    Abort,
}

/// The one way a session ends; a connection without a session is left as
/// it was. The recording goes first, deleting its spill segments, then
/// the program detach, which publishes the session's last drift. Only then
/// are the shard accounting and the session slot released, so a drain that
/// sees no live session knows every drift frame is in the inboxes. Exactly
/// one of `finished` or `aborted` is counted, after the release.
fn end_session(shared: &Arc<Shared>, shard: &Arc<ShardState>, id: u64, conn: &mut Conn, end: End) {
    let mut live = match std::mem::replace(&mut conn.role, Role::Fresh) {
        Role::Session(live) => live,
        role => {
            conn.role = role;
            return;
        }
    };
    let recorded = live.recorded.take().is_some();
    if let Some(ps) = live.program.take() {
        detach_program(ps);
    }
    apply_delta(&shard.resident_bytes, live.resident_last, 0);
    apply_delta(&shard.spilled_bytes, live.spilled_last, 0);
    shard.sessions.fetch_sub(1, Ordering::Relaxed);
    shared.release_session_slot();
    let events = live.events;
    match end {
        End::Finish => {
            shared.sessions_finished.fetch_add(1, Ordering::SeqCst);
            if recorded {
                twodprof_obs::counter!(
                    "trace_record_total",
                    "Branch streams recorded from live workload runs."
                )
                .inc();
            }
            let report = live.sim.finish();
            shared.log(format_args!(
                "conn {id}: session finished, {events} event(s), {} site(s)",
                report.num_sites()
            ));
            close_with(conn, Some(ServerFrame::Report(report.to_bytes())));
        }
        End::Abort => {
            shared.sessions_aborted.fetch_add(1, Ordering::SeqCst);
            let msg = format!("session dropped after {events} event(s)");
            shared.log(format_args!("conn {id}: {msg}"));
            shared
                .flight
                .record(FlightKind::SessionAbort, shard.index as u32, id, msg);
        }
    }
}

/// Validates a `Hello` and applies tiered admission: protocol checks, the
/// global session-table slot, then the shard's memory-budget tiering.
/// `ctx` is the connection's announced trace context; the session span
/// joins it (or starts a fresh trace when none was sent).
fn admit(
    shared: &Arc<Shared>,
    shard: &Arc<ShardState>,
    id: u64,
    hello: &Hello,
    ctx: TraceContext,
) -> Result<Box<LiveSession>, Refusal> {
    let reject = |code: u64, msg: String| {
        shared.log(format_args!("conn {id}: bad hello ({msg})"));
        refusal(code, msg)
    };
    let shed = |msg: String| {
        shared.log(format_args!("conn {id}: busy ({msg})"));
        twodprof_obs::counter!(
            "serve_admit_shed_total",
            "Sessions refused by tiered admission control."
        )
        .inc();
        busy(msg, shared.config.limits.retry_after.as_millis() as u64)
    };
    if hello.protocol != PROTOCOL_VERSION {
        return Err(reject(
            codes::PROTOCOL,
            format!(
                "protocol {} unsupported (server speaks {PROTOCOL_VERSION})",
                hello.protocol
            ),
        ));
    }
    if hello.num_sites == 0 || hello.num_sites > MAX_SITES {
        return Err(reject(
            codes::BAD_HELLO,
            format!("num_sites {} outside 1..={MAX_SITES}", hello.num_sites),
        ));
    }
    if hello.slice_len == 0 || hello.exec_threshold >= hello.slice_len {
        return Err(reject(
            codes::BAD_HELLO,
            format!(
                "invalid slice config (len {}, threshold {})",
                hello.slice_len, hello.exec_threshold
            ),
        ));
    }
    if shared.is_draining() {
        return Err(shed("daemon is shutting down".into()));
    }
    // atomically claim a session slot
    let claimed = shared
        .live_sessions
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            (cur < shared.config.limits.max_sessions).then_some(cur + 1)
        });
    if claimed.is_err() {
        return Err(shed(format!(
            "session table full ({} sessions)",
            shared.config.limits.max_sessions
        )));
    }
    // tiered admission against the shard's memory budget: full service
    // below the degrade watermark (half the budget), recording disabled
    // up to the budget, shed beyond it (same tiering `/healthz` reports)
    let tier = match current_tier(&shared.config, shard) {
        AdmissionTier::Shed => {
            shared.release_session_slot();
            let msg = format!(
                "shard {} memory budget exhausted ({} of {} bytes resident)",
                shard.index,
                shard.resident_bytes.load(Ordering::Relaxed),
                shared.config.shards.memory_budget
            );
            shared
                .flight
                .record(FlightKind::Shed, shard.index as u32, id, msg.clone());
            return Err(shed(msg));
        }
        tier => tier,
    };
    let program = if hello.program.is_empty() {
        None
    } else {
        match shared.join_program(&hello.program, hello.num_sites) {
            Ok(ps) => Some(ps),
            Err(msg) => {
                // release the session slot claimed above
                shared.release_session_slot();
                return Err(reject(codes::BAD_HELLO, msg));
            }
        }
    };
    match tier {
        AdmissionTier::Degrade => {
            twodprof_obs::counter!(
                "serve_admit_degrade_total",
                "Sessions admitted without recording (shard over its degrade watermark)."
            )
            .inc();
        }
        _ => {
            twodprof_obs::counter!(
                "serve_admit_accept_total",
                "Sessions admitted with full service."
            )
            .inc();
        }
    }
    let config = SliceConfig::new(hello.slice_len, hello.exec_threshold);
    let span = Span::child_of(ctx, "serve.session");
    let child_ctx = span.context();
    let recorded = (shared.config.record_sessions && tier == AdmissionTier::Accept).then(|| {
        SessionTrace::new(
            hello.num_sites as usize,
            id,
            shared.config.shards.spill_threshold,
            shared.spill_dir.clone(),
        )
    });
    Ok(Box::new(LiveSession {
        sim: session_sim(hello.predictor, hello.num_sites as usize, config),
        num_sites: hello.num_sites,
        events: 0,
        recorded,
        resident_last: 0,
        spilled_last: 0,
        slice: config,
        program,
        tier,
        child_ctx,
        _span: span,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twodprof_core::Classification;
    use twodprof_stream::DriftEvent;

    #[test]
    fn the_widest_drift_event_fills_max_drift_frame_len() {
        let mut frame = Vec::new();
        let widest = DriftEvent {
            site: u32::MAX,
            epoch: u64::MAX,
            from: Classification::Insufficient,
            to: Classification::Insufficient,
        };
        push_frame(&mut frame, &ServerFrame::DriftEvent(widest.to_bytes()));
        assert_eq!(frame.len(), MAX_DRIFT_FRAME_LEN);
    }
}
