//! Minimal readiness waiting for the daemon's event loops, std-only.
//!
//! On unix this is `poll(2)` through a direct `extern "C"` declaration —
//! std already links libc, the same trick `cli.rs` uses for `signal(2)` —
//! so no crate dependency is needed; so is `setsockopt(2)`, which caps a
//! watcher's kernel send buffer. Elsewhere it degrades to a bounded sleep
//! that reports every descriptor ready.
//!
//! Two pieces: a [`PollSet`], the persistent descriptor table a loop keeps
//! across iterations (updated on insert, removal and interest changes
//! instead of being rebuilt per wait), and a [`Waker`], the
//! self-pipe another thread — or a signal handler — writes to end a wait
//! early. Every loop polls its own waker beside its sockets, so no loop
//! needs a timer to notice work handed to it.
//!
//! Readiness here is advisory, never load-bearing: every socket the loops
//! own is nonblocking and every read/write handles `WouldBlock`, so a
//! spurious "ready" costs one syscall. That property is what makes the
//! fallback correct.

pub(crate) use imp::cap_send_buffer;
use std::io;
use std::time::Duration;

/// What came back for one descriptor of a [`PollSet`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Readiness {
    /// Reading (or accepting the peer's close/error) won't block.
    pub read: bool,
    /// Writing won't block.
    pub write: bool,
}

/// One `struct pollfd`, laid out as the C library expects it.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(unix)]
mod imp {
    use super::PollFd;
    use std::io::{self, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    // nfds_t is `unsigned long` on linux, `unsigned int` on the BSDs/macOS
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    // (SOL_SOCKET, SO_SNDBUF): linux's values, else the BSD ones
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const SNDBUF: (i32, i32) = (1, 7);
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const SNDBUF: (i32, i32) = (0xffff, 0x1001);

    /// Caps a socket's kernel send buffer at about `bytes` (`SO_SNDBUF`,
    /// which linux doubles for its bookkeeping), so a peer that stops
    /// reading pins no more than that in the kernel. Off unix: a no-op.
    pub(crate) fn cap_send_buffer(fd: i32, bytes: usize) {
        let value = bytes.min(i32::MAX as usize) as i32;
        // best effort: a refusal leaves the kernel's own size
        let _ = unsafe { setsockopt(fd, SNDBUF.0, SNDBUF.1, &value, 4) };
    }

    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        // round up, so a deadline 300µs away never becomes a busy 0 ms poll
        let millis = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        // EINTR or a transient failure leaves every revents zero: nothing is
        // reported ready, the caller's loop retries, and WouldBlock covers
        // correctness
        let _ = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
    }

    /// The waker's descriptors: a nonblocking `UnixStream` pair.
    pub(super) struct Pipe {
        rx: UnixStream,
        pub(super) tx: UnixStream,
    }

    impl Pipe {
        pub(super) fn new() -> io::Result<Self> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Self { rx, tx })
        }

        pub(super) fn fd(&self) -> i32 {
            self.rx.as_raw_fd()
        }

        pub(super) fn write_byte(&self) {
            let _ = (&self.tx).write(&[1]);
        }

        pub(super) fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use super::PollFd;
    use std::time::Duration;

    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) {
        // no poll(2): bound the latency with a short sleep and claim
        // everything ready — WouldBlock on the nonblocking sockets turns
        // the spurious readiness into a few cheap syscalls per pass
        let ceiling = Duration::from_millis(10);
        std::thread::sleep(timeout.map_or(ceiling, |t| t.min(ceiling)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
    }

    pub(crate) fn cap_send_buffer(_fd: i32, _bytes: usize) {}

    /// No waker descriptors: the bounded sleep above stands in for them.
    pub(super) struct Pipe;

    impl Pipe {
        pub(super) fn new() -> std::io::Result<Self> {
            Ok(Self)
        }

        pub(super) fn fd(&self) -> i32 {
            0
        }

        pub(super) fn write_byte(&self) {}

        pub(super) fn drain(&self) {}
    }
}

/// The raw descriptor to register for `socket` (unused off unix, where
/// the fallback wait reports every entry ready).
#[cfg(unix)]
pub(crate) fn fd_of(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_socket: &T) -> i32 {
    0
}

/// A loop's persistent descriptor table: read interest on every new entry,
/// write interest only where [`set_interest`](Self::set_interest) asks.
/// Slots are dense; removal swaps the last entry into the freed slot, as
/// `Vec::swap_remove` does.
#[derive(Debug, Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a descriptor with read interest (reads double as close
    /// detection) and returns its slot.
    pub(crate) fn push(&mut self, fd: i32) -> usize {
        self.fds.push(PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Removes the descriptor in `slot`; the last slot's entry moves into
    /// it.
    pub(crate) fn swap_remove(&mut self, slot: usize) {
        self.fds.swap_remove(slot);
    }

    /// Number of descriptors in the table.
    pub(crate) fn len(&self) -> usize {
        self.fds.len()
    }

    /// Sets what `slot` waits for: readability, and writability (wanted
    /// only while an out-buffer is pending). Errors and hangups are
    /// reported whatever is asked.
    pub(crate) fn set_interest(&mut self, slot: usize, read: bool, write: bool) {
        self.fds[slot].events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
    }

    /// Whether `slot` has write interest registered.
    pub(crate) fn wants_write(&self, slot: usize) -> bool {
        self.fds[slot].events & POLLOUT != 0
    }

    /// Waits until at least one descriptor is ready or `timeout` elapses;
    /// `None` waits until something is ready. The result is read back per
    /// slot with [`readiness`](Self::readiness).
    pub(crate) fn wait(&mut self, timeout: Option<Duration>) {
        imp::wait(&mut self.fds, timeout);
    }

    /// What the last [`wait`](Self::wait) reported for `slot`. Errors and
    /// hangups surface through `read()`/`write()`, so they fold into both
    /// readiness bits rather than a separate channel.
    pub(crate) fn readiness(&self, slot: usize) -> Readiness {
        let revents = self.fds[slot].revents;
        Readiness {
            read: revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
            write: revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0,
        }
    }

    /// Whether the last wait reported anything at all for `slot`.
    pub(crate) fn is_ready(&self, slot: usize) -> bool {
        self.fds[slot].revents != 0
    }
}

/// A self-pipe that ends another thread's [`PollSet::wait`] early.
///
/// On unix it is a nonblocking `UnixStream` pair: the waiting loop polls
/// the read end, [`wake`](Self::wake) writes one byte to the other and
/// ignores `WouldBlock` (a full buffer already means "woken"), and
/// [`drain`](Self::drain) reads until `WouldBlock`, so any number of wakes
/// coalesce into one readable state. Callers wake only on an empty→non-empty
/// edge of the state they publish, so bursts stay cheap. `wake` is a single
/// `write(2)`, async-signal-safe, so signal handlers may call it.
///
/// Elsewhere it is inert and the fallback [`PollSet::wait`]'s bounded
/// sleep stands in for it.
pub(crate) struct Waker {
    pipe: imp::Pipe,
}

impl Waker {
    /// Creates the pair.
    ///
    /// # Errors
    ///
    /// Propagates `socketpair(2)` and `fcntl(2)` failures.
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            pipe: imp::Pipe::new()?,
        })
    }

    /// The descriptor to put in a [`PollSet`]: readable while woken.
    pub(crate) fn fd(&self) -> i32 {
        self.pipe.fd()
    }

    /// Makes the waker readable until the next [`drain`](Self::drain).
    /// Never blocks and never fails: a full buffer already means "woken".
    pub(crate) fn wake(&self) {
        self.pipe.write_byte();
    }

    /// Consumes every pending wake. Call before looking at the state the
    /// wakers published, so a wake racing with the look leaves the waker
    /// readable for the next wait instead of being lost.
    pub(crate) fn drain(&self) {
        self.pipe.drain();
    }

    /// Waits until woken or `timeout` elapses, without draining; returns
    /// whether the waker is readable. For loops that have nothing else to
    /// poll (the sampler), and for error backoffs that shutdown must be
    /// able to cut short.
    pub(crate) fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut set = PollSet::new();
        set.push(self.fd());
        set.wait(timeout);
        set.readiness(0).read
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn readable_after_peer_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut set = PollSet::new();
        let slot = set.push(server.as_raw_fd());
        // nothing sent yet: a short poll should time out unready
        set.wait(Some(Duration::from_millis(1)));
        assert!(!set.readiness(slot).read);
        assert!(!set.is_ready(slot));

        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        set.wait(Some(Duration::from_millis(2000)));
        assert!(set.readiness(slot).read);
    }

    #[test]
    fn hangup_reports_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        drop(client);
        let mut set = PollSet::new();
        set.push(server.as_raw_fd());
        set.wait(Some(Duration::from_millis(2000)));
        assert!(set.readiness(0).read, "peer close must wake the reader");
    }

    #[test]
    fn write_interest_is_per_slot_and_survives_swap_remove() {
        let mut set = PollSet::new();
        let waker = Waker::new().unwrap();
        for _ in 0..3 {
            set.push(waker.fd());
        }
        set.set_interest(1, true, true);
        assert!(!set.wants_write(0) && set.wants_write(1) && !set.wants_write(2));
        set.set_interest(2, false, true);
        set.swap_remove(1);
        assert_eq!(set.len(), 2);
        assert!(!set.wants_write(0) && set.wants_write(1));
    }

    #[test]
    fn a_wake_before_the_wait_returns_at_once() {
        let waker = Waker::new().unwrap();
        waker.wake();
        let start = Instant::now();
        let mut set = PollSet::new();
        set.push(waker.fd());
        set.wait(Some(Duration::from_secs(10)));
        assert!(set.readiness(0).read);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the wait slept through a wake"
        );
        assert!(waker.wait(None), "an undrained wake stays readable");
    }

    #[test]
    fn wakes_coalesce_and_drain_leaves_the_waker_unready() {
        let waker = Waker::new().unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        assert!(waker.wait(Some(Duration::from_millis(2000))));
        waker.drain();
        assert!(
            !waker.wait(Some(Duration::from_millis(1))),
            "drain left a wake behind"
        );
        // and a wake after the drain is seen again
        waker.wake();
        assert!(waker.wait(Some(Duration::from_millis(2000))));
    }

    #[test]
    fn a_wake_after_a_drain_is_never_lost_to_a_concurrent_waker() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        let waker = Arc::new(Waker::new().unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let noise = {
            let (waker, stop) = (Arc::clone(&waker), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    waker.wake();
                }
            })
        };
        // a second thread publishes a generation and wakes after each drain
        // it is told about; every such wake must end the next wait
        let drained = Arc::new(AtomicU64::new(0));
        let seen = Arc::new(AtomicU64::new(0));
        let publisher = {
            let (waker, drained, seen) =
                (Arc::clone(&waker), Arc::clone(&drained), Arc::clone(&seen));
            std::thread::spawn(move || {
                for round in 1..=2000u64 {
                    while drained.load(Ordering::SeqCst) < round {
                        std::thread::yield_now();
                    }
                    seen.store(round, Ordering::SeqCst);
                    waker.wake();
                }
            })
        };
        for round in 1..=2000u64 {
            waker.drain();
            drained.store(round, Ordering::SeqCst);
            while seen.load(Ordering::SeqCst) < round {
                assert!(
                    waker.wait(Some(Duration::from_secs(1))),
                    "round {round}: a wake issued after the drain was lost"
                );
                if seen.load(Ordering::SeqCst) < round {
                    // woken by the noise thread before the publisher ran
                    waker.drain();
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        noise.join().unwrap();
        publisher.join().unwrap();
    }

    #[test]
    fn wake_on_a_full_pipe_neither_blocks_nor_errors() {
        let waker = Waker::new().unwrap();
        // fill the socket buffer behind the waker's back
        let mut filled = 0usize;
        loop {
            match (&waker.pipe.tx).write(&[0u8; 4096]) {
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("filling the pipe failed: {e}"),
            }
        }
        assert!(filled > 0);
        let start = Instant::now();
        waker.wake();
        waker.wake();
        assert!(start.elapsed() < Duration::from_secs(1), "wake blocked");
        assert!(waker.wait(Some(Duration::from_millis(2000))));
        waker.drain();
        assert!(!waker.wait(Some(Duration::from_millis(1))));
    }
}
