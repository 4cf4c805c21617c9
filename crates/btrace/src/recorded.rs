//! Columnar recorded traces: record a branch stream once, replay it many
//! times.
//!
//! [`RecordedTrace`] is the one recorded form of a branch stream: the
//! record-once/simulate-many buffer behind the sweep engine's trace cache,
//! the daemon's `Resim` and its spill files. It stores the stream in two
//! columns:
//!
//! * **site ids**, delta-encoded against the previous event's site and
//!   written as zigzag LEB128 varints — consecutive events usually revisit
//!   nearby sites, so most deltas fit in one byte;
//! * **directions**, packed one bit per event into `u64` words.
//!
//! A 10M-event run therefore costs ~11 MB (a packed `u32` per event would
//! cost 40 MB), and [`replay_into`](RecordedTrace::replay_into) decodes with a
//! tight monomorphized loop — no boxed closure, no per-event allocation.
//!
//! # Serialized format (`2DPR`, version 1)
//!
//! ```text
//! magic      "2DPR"              4 bytes
//! version    u8                  currently 1
//! num_sites  u32 LE
//! num_events u64 LE
//! checksum   u64 LE              FNV-1a over num_sites ‖ num_events ‖ body
//! body:
//!   delta_len varint             byte length of the delta column
//!   deltas    zigzag-LEB128*     one varint per event
//!   taken     u64 LE * ceil(num_events / 64)
//! ```
//!
//! [`from_bytes`](RecordedTrace::from_bytes) validates everything up front
//! — magic, version, checksum, every delta's site bounds, and exact byte
//! consumption — so a trace that decodes successfully can always be
//! replayed without panicking.

use crate::serial::{invalid, read_array, read_u8, read_varint, write_varint};
use crate::{Fnv1a, SiteId, Tracer};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"2DPR";
const VERSION: u8 = 1;
/// Magic, version, `num_sites`, `num_events` and checksum.
const HEADER_LEN: u64 = 4 + 1 + 4 + 8 + 8;

/// A recorded conditional-branch stream in columnar form.
///
/// Implements [`Tracer`], so a workload can record straight into it:
///
/// ```
/// use btrace::{RecordedTrace, SiteId, Tracer, CountingTracer};
///
/// let mut trace = RecordedTrace::new(2);
/// trace.branch(SiteId(0), true);
/// trace.branch(SiteId(1), false);
/// let mut counter = CountingTracer::new();
/// trace.replay_into(&mut counter);
/// assert_eq!(counter.count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordedTrace {
    num_sites: u32,
    num_events: u64,
    /// Site of the most recent event (delta-encoding state).
    last_site: u32,
    /// Zigzag-LEB128 deltas of each event's site against the previous one.
    site_deltas: Vec<u8>,
    /// Direction bitset: bit `i % 64` of word `i / 64` is event `i`.
    taken: Vec<u64>,
}

impl RecordedTrace {
    /// Creates an empty trace for a workload with `num_sites` static
    /// branches.
    pub fn new(num_sites: usize) -> Self {
        Self {
            num_sites: num_sites as u32,
            ..Self::default()
        }
    }

    /// Number of dynamic branch events recorded.
    pub fn events(&self) -> u64 {
        self.num_events
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.num_events == 0
    }

    /// Size of the traced workload's static site table.
    pub fn num_sites(&self) -> usize {
        self.num_sites as usize
    }

    /// Approximate heap memory held by the trace, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.site_deltas.capacity() + self.taken.capacity() * 8
    }

    /// Appends one event.
    ///
    /// The direction is stored as data — `taken` is shifted into its bit
    /// of the direction word, never branched on — so recording an
    /// input-dependent branch costs the same as recording a biased one.
    /// The only branches are on the event count (a fresh word every 64
    /// events) and on the site delta's width, whose multi-byte case lives
    /// out of line.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for this trace's site table.
    #[inline]
    pub fn push(&mut self, site: SiteId, taken: bool) {
        assert!(
            site.0 < self.num_sites,
            "site {site} out of range (table has {} sites)",
            self.num_sites
        );
        let delta = site.0 as i64 - self.last_site as i64;
        let z = ((delta << 1) ^ (delta >> 63)) as u64;
        if z < 0x80 {
            // common case: a near-by site, one delta byte
            self.site_deltas.push(z as u8);
        } else {
            self.push_long_delta(z);
        }
        let bit = self.num_events & 63;
        let dir = (taken as u64) << bit;
        if bit == 0 {
            self.taken.push(dir);
        } else {
            let last = self.taken.len() - 1;
            self.taken[last] |= dir;
        }
        self.last_site = site.0;
        self.num_events += 1;
    }

    /// Appends a zigzagged site delta of two or more LEB128 bytes.
    #[cold]
    fn push_long_delta(&mut self, mut z: u64) {
        loop {
            let byte = (z & 0x7F) as u8;
            z >>= 7;
            if z == 0 {
                self.site_deltas.push(byte);
                return;
            }
            self.site_deltas.push(byte | 0x80);
        }
    }

    /// Feeds every event, in order, into `tracer`.
    ///
    /// The loop is monomorphized per concrete tracer; pass `&mut dyn Tracer`
    /// to get the dynamic-dispatch version (one virtual call per event, no
    /// per-event decoding allocation either way).
    pub fn replay_into<T: Tracer + ?Sized>(&self, tracer: &mut T) {
        let mut site = 0i64;
        let mut deltas = self.site_deltas.as_slice();
        let mut remaining = self.num_events;
        // one direction word per 64 events, shifted instead of re-indexed;
        // single-byte deltas (the overwhelmingly common case) skip the
        // generic varint loop
        for &word in &self.taken {
            let n = remaining.min(64);
            let mut bits = word;
            for _ in 0..n {
                let z = match deltas.split_first() {
                    Some((&b, rest)) if b < 0x80 => {
                        deltas = rest;
                        b as u64
                    }
                    _ => decode_varint(&mut deltas).expect("validated delta column"),
                };
                site += unzigzag(z);
                tracer.branch(SiteId(site as u32), bits & 1 == 1);
                bits >>= 1;
            }
            remaining -= n;
        }
    }

    /// Serializes the trace to the header described in the module docs.
    ///
    /// The checksum is folded over the columns in place and the columns are
    /// then written straight to `w`, so serializing copies nothing beyond a
    /// small staging buffer for the direction words.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut delta_len = Vec::with_capacity(10);
        write_varint(&mut delta_len, self.site_deltas.len() as u64)?;
        // the checksum covers the length fields too, so a header bit flip
        // can never pass as a (differently shaped) valid trace
        let mut h = Fnv1a::default();
        h.update(&self.num_sites.to_le_bytes());
        h.update(&self.num_events.to_le_bytes());
        h.update(&delta_len);
        h.update(&self.site_deltas);
        for word in &self.taken {
            h.update(&word.to_le_bytes());
        }
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        w.write_all(&self.num_sites.to_le_bytes())?;
        w.write_all(&self.num_events.to_le_bytes())?;
        w.write_all(&h.finish().to_le_bytes())?;
        w.write_all(&delta_len)?;
        w.write_all(&self.site_deltas)?;
        let mut staged = [0u8; 8 * 512];
        for words in self.taken.chunks(512) {
            for (bytes, word) in staged.chunks_exact_mut(8).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            w.write_all(&staged[..words.len() * 8])?;
        }
        Ok(())
    }

    /// The exact length of [`write_to`](Self::write_to)'s output, computed
    /// from the column lengths without serializing anything.
    pub fn encoded_len(&self) -> u64 {
        let delta_len = self.site_deltas.len() as u64;
        // one LEB128 byte per started 7 bits of the delta column's length
        let varint_len = (64 - delta_len.leading_zeros()).max(1).div_ceil(7) as u64;
        HEADER_LEN + varint_len + delta_len + self.taken.len() as u64 * 8
    }

    /// Serializes the trace to a byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("vec write");
        buf
    }

    /// Deserializes a trace written by [`write_to`](Self::write_to),
    /// validating the checksum, every event's site bounds, and exact byte
    /// consumption. A trace this returns is always safe to replay.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any corruption (bad magic/version, checksum
    /// mismatch, out-of-range site, truncated or oversized columns);
    /// `UnexpectedEof` on truncation inside a fixed-width field.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        if &read_array(r)? != MAGIC {
            return Err(invalid("not a 2DPR recorded trace"));
        }
        if read_u8(r)? != VERSION {
            return Err(invalid("unsupported recorded-trace version"));
        }
        let sites: [u8; 4] = read_array(r)?;
        let num_sites = u32::from_le_bytes(sites);
        let events: [u8; 8] = read_array(r)?;
        let num_events = u64::from_le_bytes(events);
        let checksum = read_array(r)?;
        let mut body = Vec::new();
        r.read_to_end(&mut body)?;
        let mut h = Fnv1a::default();
        h.update(&sites);
        h.update(&events);
        h.update(&body);
        if h.finish() != u64::from_le_bytes(checksum) {
            return Err(invalid("recorded-trace checksum mismatch"));
        }
        let mut b = body.as_slice();
        let delta_len = read_varint(&mut b)? as usize;
        // a delta varint is at most 10 bytes, and there is one per event
        if delta_len as u64 > num_events.saturating_mul(10) {
            return Err(invalid("delta column longer than the event count allows"));
        }
        if b.len() < delta_len {
            return Err(invalid("delta column truncated"));
        }
        let (deltas, rest) = b.split_at(delta_len);
        let expected_words = num_events.div_ceil(64) as usize;
        if rest.len() != expected_words * 8 {
            return Err(invalid("taken bitset has the wrong length"));
        }
        let taken: Vec<u64> = rest
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        // decode the whole delta column once, proving every site is in
        // bounds and the column holds exactly num_events varints, so replay
        // can never panic
        let mut site = 0i64;
        let mut last_site = 0u32;
        let mut cursor = deltas;
        for _ in 0..num_events {
            let z = decode_varint(&mut cursor)
                .ok_or_else(|| invalid("delta column holds fewer varints than events"))?;
            site += unzigzag(z);
            if site < 0 || site >= num_sites as i64 {
                return Err(invalid("event site outside the declared table"));
            }
            last_site = site as u32;
        }
        if !cursor.is_empty() {
            return Err(invalid("trailing bytes in the delta column"));
        }
        // bits past num_events in the last word must be zero (canonical form)
        if let Some(&last) = taken.last() {
            let used = num_events - (expected_words as u64 - 1) * 64;
            if used < 64 && last >> used != 0 {
                return Err(invalid("nonzero padding bits in the taken bitset"));
            }
        }
        Ok(Self {
            num_sites,
            num_events,
            last_site,
            site_deltas: deltas.to_vec(),
            taken,
        })
    }

    /// Deserializes a trace from a byte slice, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// As [`read_from`](Self::read_from).
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut r = bytes;
        let trace = Self::read_from(&mut r)?;
        // read_from consumes to EOF, so nothing can trail it
        Ok(trace)
    }

    /// Iterates over the stream as same-site runs of up to 64 events each.
    ///
    /// Consecutive events at the same site are grouped into one [`SiteRun`]
    /// carrying the site, the run length, and the packed directions, so a
    /// consumer can hash the site once per run instead of once per event.
    /// Runs are word-aligned: a run never straddles a 64-event direction
    /// word, so a streak is cut at every multiple of 64 events (and a
    /// longer streak comes out as several runs). Concatenating all runs in
    /// order reproduces the stream exactly.
    pub fn site_runs(&self) -> SiteRuns<'_> {
        self.runs_cut_at(u64::MAX)
    }

    /// [`site_runs`](Self::site_runs) with one more cut: a run also ends
    /// at every multiple of `period` events, so a consumer that closes a
    /// window every `period` events (the 2D profiler's slices) gets runs
    /// that each lie wholly inside one window.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn site_runs_cut(&self, period: u64) -> SiteRuns<'_> {
        assert!(period > 0, "cut period must be positive");
        self.runs_cut_at(period)
    }

    fn runs_cut_at(&self, period: u64) -> SiteRuns<'_> {
        SiteRuns {
            deltas: self.site_deltas.as_slice(),
            taken: &self.taken,
            left: self.num_events,
            base: 0,
            period,
            next_cut: period,
            site: 0,
            word: Word::EMPTY,
        }
    }
}

/// A streak of consecutive events at one site, at most 64 events long and
/// never straddling a 64-event direction word.
///
/// Produced by [`RecordedTrace::site_runs`] and
/// [`RecordedTrace::site_runs_cut`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteRun {
    /// The static branch all events in the run execute.
    pub site: SiteId,
    /// Number of events in the run, `1..=64`.
    pub len: u32,
    /// Directions of the run's events in the low `len` bits (bit 0 is the
    /// earliest event); bits at and above `len` are zero.
    pub bits: u64,
}

/// Iterator over a trace's same-site runs; see [`RecordedTrace::site_runs`].
///
/// The decoder works one 64-event direction word at a time. A word whose
/// events all have one-byte deltas (every built-in workload's words: at
/// most 27 sites, so every zigzag delta is below 0x80) gets its run starts
/// from eight SWAR loads — one bit per nonzero delta, plus bit 0 and any
/// cut bits — and each run then spans one start bit to the next. A word
/// holding a multi-byte varint finds its starts one event at a time
/// instead. [`fold`](Iterator::fold) (and so `for_each`) walks words and
/// start bits in two nested loops with the word state in locals; `next`
/// takes the same per-run step one run at a time.
pub struct SiteRuns<'a> {
    /// Delta bytes of the words not yet loaded.
    deltas: &'a [u8],
    /// Direction words not yet loaded.
    taken: &'a [u64],
    /// Events in the words not yet loaded.
    left: u64,
    /// Index of the first event of the next word to load.
    base: u64,
    /// Cut period in events (`u64::MAX`: no cut beyond the words).
    period: u64,
    /// Index of the next event at which a cut starts a run.
    next_cut: u64,
    /// Site of the last run emitted.
    site: i64,
    /// The loaded word; its runs are exhausted when `starts` is zero.
    word: Word<'a>,
}

/// One loaded direction word and its run starts not yet emitted.
#[derive(Clone, Copy)]
struct Word<'a> {
    /// Direction bits of the word's events.
    bits: u64,
    /// One bit per event that starts a run and has not been emitted yet.
    starts: u64,
    /// Number of events in the word, `1..=64`.
    live: u32,
    /// The word's deltas: exactly one byte per event when `bytewise`, else
    /// the varints from the next run's first event onward.
    deltas: &'a [u8],
    bytewise: bool,
}

impl Word<'static> {
    const EMPTY: Self = Word {
        bits: 0,
        starts: 0,
        live: 0,
        deltas: &[],
        bytewise: true,
    };
}

impl Word<'_> {
    /// Emits the run at the lowest start bit, moving `site` to its site.
    /// `BYTEWISE` must equal the word's `bytewise`; must not be called once
    /// `starts` is zero.
    #[inline(always)]
    fn run<const BYTEWISE: bool>(&mut self, site: &mut i64) -> SiteRun {
        let i = self.starts.trailing_zeros();
        self.starts &= self.starts - 1;
        // no start left: the run goes to the word's last live event
        let len = self.starts.trailing_zeros().min(self.live) - i;
        let z = if BYTEWISE {
            self.deltas[i as usize] as u64
        } else {
            self.varint_run(len)
        };
        *site += unzigzag(z);
        SiteRun {
            site: SiteId(*site as u32),
            len,
            bits: (self.bits >> i) & (u64::MAX >> (64 - len)),
        }
    }

    /// The start delta of a `len`-event run in a word with multi-byte
    /// varints, consuming the run's varints. The rest of the run repeats
    /// the site, but each of its deltas is still decoded: a validated
    /// column may spell zero in more than one byte.
    #[cold]
    fn varint_run(&mut self, len: u32) -> u64 {
        let z = decode_varint(&mut self.deltas).expect("validated delta column");
        for _ in 1..len {
            decode_varint(&mut self.deltas).expect("validated delta column");
        }
        z
    }
}

impl<'a> SiteRuns<'a> {
    /// Loads the next direction word and finds its run starts: one bit per
    /// event whose site differs from the previous event's, bit 0, and one
    /// bit per cut. `None` once every word is loaded.
    #[inline(always)]
    fn load_word(&mut self) -> Option<Word<'a>> {
        let (&bits, rest) = self.taken.split_first()?;
        self.taken = rest;
        let live = self.left.min(64) as u32;
        self.left -= live as u64;
        let base = self.base;
        self.base += 64;
        let mut cuts = 1u64;
        while self.next_cut < self.base {
            cuts |= 1 << (self.next_cut - base);
            self.next_cut = self.next_cut.saturating_add(self.period);
        }
        // a column shorter than 64 bytes is the tail word, all of it
        let mut pad = [0u8; 64];
        let block = match self.deltas.first_chunk::<64>() {
            Some(block) => block,
            None => {
                pad[..self.deltas.len()].copy_from_slice(self.deltas);
                &pad
            }
        };
        let word_deltas = self.deltas;
        let (changes, bytewise) = match nonzero_bytes(block) {
            // no continuation bit among the word's first 64 bytes: each of
            // its events is one byte
            Some(changes) => {
                self.deltas = &word_deltas[live as usize..];
                (changes, true)
            }
            None => (self.varint_changes(live), false),
        };
        Some(Word {
            bits,
            starts: (changes | cuts) & (u64::MAX >> (64 - live)),
            live,
            deltas: word_deltas,
            bytewise,
        })
    }

    /// The site-change bits of a `live`-event word that holds a multi-byte
    /// varint, decoded one event at a time; skips the word's deltas.
    #[cold]
    fn varint_changes(&mut self, live: u32) -> u64 {
        let mut changes = 0u64;
        for i in 0..live {
            let z = decode_varint(&mut self.deltas).expect("validated delta column");
            changes |= ((z != 0) as u64) << i;
        }
        changes
    }
}

impl Iterator for SiteRuns<'_> {
    type Item = SiteRun;

    fn next(&mut self) -> Option<SiteRun> {
        if self.word.starts == 0 {
            self.word = self.load_word()?;
        }
        Some(if self.word.bytewise {
            self.word.run::<true>(&mut self.site)
        } else {
            self.word.run::<false>(&mut self.site)
        })
    }

    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, SiteRun) -> B,
    {
        let mut acc = init;
        let mut site = self.site;
        let mut word = self.word;
        loop {
            // the word kind is checked once per word, not once per run
            if word.bytewise {
                while word.starts != 0 {
                    acc = f(acc, word.run::<true>(&mut site));
                }
            } else {
                while word.starts != 0 {
                    acc = f(acc, word.run::<false>(&mut site));
                }
            }
            match self.load_word() {
                Some(next) => word = next,
                None => return acc,
            }
        }
    }
}

/// Bit `j` set where `block[j]` is nonzero, or `None` if any byte has its
/// continuation bit set. Eight SWAR loads: within a word of bytes below
/// 0x80, adding 0x7F to each byte sets its top bit exactly when the byte is
/// nonzero, and one multiply gathers the eight top bits into a byte.
#[inline(always)]
fn nonzero_bytes(block: &[u8; 64]) -> Option<u64> {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut any_high = 0u64;
    let mut mask = 0u64;
    for (k, chunk) in block.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        any_high |= x;
        let top = (x.wrapping_add(LOW7) & HIGH) >> 7;
        mask |= (top.wrapping_mul(GATHER) >> 56) << (8 * k);
    }
    (any_high & HIGH == 0).then_some(mask)
}

/// The signed site delta a zigzag varint value encodes.
#[inline(always)]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

impl Tracer for RecordedTrace {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.push(site, taken);
    }
}

/// LEB128 varint decode over a slice cursor; `None` on truncation or an
/// over-long encoding. A slice-specialized twin of [`read_varint`] that the
/// per-event replay loop can afford.
#[inline]
fn decode_varint(cursor: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = cursor.split_first()?;
        *cursor = rest;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects a replayed stream back into a flat event list.
    #[derive(Default)]
    struct Collector(Vec<(SiteId, bool)>);

    impl Tracer for Collector {
        fn branch(&mut self, site: SiteId, taken: bool) {
            self.0.push((site, taken));
        }
    }

    fn sample() -> RecordedTrace {
        let mut t = RecordedTrace::new(5);
        for i in 0..200u32 {
            t.push(SiteId(i % 5), i % 3 == 0);
        }
        t
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let t = sample();
        assert_eq!(t.events(), 200);
        let expected: Vec<_> = (0..200u32).map(|i| (SiteId(i % 5), i % 3 == 0)).collect();
        assert_eq!(recorded_events(&t), expected);
    }

    #[test]
    fn serialization_roundtrips() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = RecordedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
        // empty trace too
        let empty = RecordedTrace::new(3);
        let back = RecordedTrace::from_bytes(&empty.to_bytes()).unwrap();
        assert_eq!(back, empty);
        assert!(back.is_empty());
    }

    #[test]
    fn encoded_len_is_the_serialized_length() {
        let mut long = RecordedTrace::new(300);
        for i in 0..20_000u32 {
            // far-apart sites give multi-byte deltas and a 3-byte length
            long.push(SiteId(i * 131 % 300), i % 7 < 3);
        }
        for t in [sample(), RecordedTrace::new(3), long] {
            assert_eq!(t.encoded_len(), t.to_bytes().len() as u64);
        }
    }

    #[test]
    fn columnar_beats_row_format_on_hot_sites() {
        let t = sample();
        // 200 events: one delta byte each vs 4 bytes each in row format
        assert!(t.memory_bytes() < 200 * 4 / 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range_site() {
        let mut t = RecordedTrace::new(2);
        t.push(SiteId(2), true);
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                RecordedTrace::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_checksummed() {
        let t = sample();
        let clean = t.to_bytes();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                // decoding either fails or — never — yields the same trace
                if let Ok(decoded) = RecordedTrace::from_bytes(&flipped) {
                    panic!(
                        "bit {bit} of byte {byte} decoded silently ({} events)",
                        decoded.events()
                    );
                }
            }
        }
    }

    /// Expands a trace's runs back into a flat event list.
    fn flatten_runs(t: &RecordedTrace) -> Vec<(SiteId, bool)> {
        let mut events = Vec::new();
        for run in t.site_runs() {
            assert!((1..=64).contains(&run.len), "run length {}", run.len);
            if run.len < 64 {
                assert_eq!(run.bits >> run.len, 0, "bits above len must be zero");
            }
            for i in 0..run.len {
                events.push((run.site, run.bits >> i & 1 == 1));
            }
        }
        events
    }

    fn recorded_events(t: &RecordedTrace) -> Vec<(SiteId, bool)> {
        let mut events = Collector::default();
        t.replay_into(&mut events);
        events.0
    }

    #[test]
    fn site_runs_reproduce_the_stream() {
        let t = sample();
        assert_eq!(flatten_runs(&t), recorded_events(&t));
        // hot-site sample alternates sites, so every run is one event
        assert!(t.site_runs().all(|r| r.len == 1));
    }

    #[test]
    fn site_runs_group_streaks_and_split_at_64() {
        // a 200-event streak at one site must come out as 64+64+64+8
        let mut t = RecordedTrace::new(2);
        for i in 0..200u32 {
            t.push(SiteId(1), i % 3 == 0);
        }
        let runs: Vec<_> = t.site_runs().collect();
        assert_eq!(
            runs.iter().map(|r| r.len).collect::<Vec<_>>(),
            [64, 64, 64, 8]
        );
        assert!(runs.iter().all(|r| r.site == SiteId(1)));
        assert_eq!(flatten_runs(&t), recorded_events(&t));
    }

    #[test]
    fn site_runs_handle_word_straddling_streaks() {
        // leading single events misalign the streak against the 64-bit
        // direction words, so the streak is cut where each word ends
        for lead in 1..5u32 {
            let mut t = RecordedTrace::new(3);
            for i in 0..lead {
                t.push(SiteId(i % 2), true);
            }
            for i in 0..150u32 {
                t.push(SiteId(2), i % 2 == 0);
            }
            assert_eq!(flatten_runs(&t), recorded_events(&t), "lead {lead}");
        }
    }

    #[test]
    fn site_runs_handle_chunk_spanning_streaks_and_partial_final_word() {
        // one streak far longer than the engine's 2048-event fan-out chunk,
        // ending mid-word (4100 % 64 != 0)
        let mut t = RecordedTrace::new(1);
        for i in 0..4100u32 {
            t.push(SiteId(0), i % 5 < 2);
        }
        assert_eq!(t.events() % 64, 4100 % 64);
        let runs: Vec<_> = t.site_runs().collect();
        assert_eq!(runs.len(), 4100usize.div_ceil(64));
        assert_eq!(runs.last().unwrap().len, 4100 % 64);
        assert_eq!(flatten_runs(&t), recorded_events(&t));
        // round-tripping through bytes preserves the view
        let back = RecordedTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(flatten_runs(&back), recorded_events(&t));
    }

    #[test]
    fn site_runs_handle_single_event_and_empty_traces() {
        let empty = RecordedTrace::new(4);
        assert_eq!(empty.site_runs().count(), 0);
        let mut one = RecordedTrace::new(4);
        one.push(SiteId(3), true);
        let runs: Vec<_> = one.site_runs().collect();
        assert_eq!(
            runs,
            vec![SiteRun {
                site: SiteId(3),
                len: 1,
                bits: 1
            }]
        );
    }

    /// A stream over `num_sites` sites: far jumps across the whole table
    /// (multi-byte deltas once it is wide), near steps, and streaks long
    /// enough to cross direction words.
    fn wide_stream(num_sites: u32, events: u64, seed: u64) -> RecordedTrace {
        let mut t = RecordedTrace::new(num_sites as usize);
        let mut x = seed | 1;
        let mut site = 0u32;
        while t.events() < events {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            site = match x % 4 {
                0 | 1 => (x >> 8) as u32 % num_sites,
                2 => (site + 1) % num_sites,
                _ => site,
            };
            let streak = 1 + (x >> 40) % [1u64, 2, 40, 150][(x >> 60) as usize % 4];
            for i in 0..streak.min(events - t.events()) {
                t.push(SiteId(site), (x >> (i % 29)) & 1 == 1);
            }
        }
        t
    }

    /// Checks the run view of `t`, cut every `period` events: the runs
    /// flatten to the replayed stream, none straddles a word or a cut, each
    /// ends at a site change, a word boundary, a cut or the end of the
    /// trace, and `next`, `fold` and a
    /// `fold` resumed after some `next` calls all yield the same runs.
    fn check_runs(t: &RecordedTrace, period: u64) {
        let runs = || {
            if period == u64::MAX {
                t.site_runs()
            } else {
                t.site_runs_cut(period)
            }
        };
        let mut by_next = Vec::new();
        for run in runs() {
            by_next.push(run);
        }
        let by_fold = runs().fold(Vec::new(), |mut v, run| {
            v.push(run);
            v
        });
        assert_eq!(by_next, by_fold, "period {period}");
        for split in [1, 2, 3, 17, by_next.len() / 2] {
            let mut it = runs();
            let mut resumed: Vec<_> = it.by_ref().take(split).collect();
            resumed = it.fold(resumed, |mut v, run| {
                v.push(run);
                v
            });
            assert_eq!(resumed, by_next, "period {period}, split {split}");
        }
        let events = recorded_events(t);
        let mut flat = Vec::new();
        for run in &by_next {
            assert!((1..=64).contains(&run.len), "run length {}", run.len);
            if run.len < 64 {
                assert_eq!(run.bits >> run.len, 0, "bits above len must be zero");
            }
            let start = flat.len() as u64;
            let end = start + run.len as u64;
            assert_eq!(start / 64, (end - 1) / 64, "run straddles a word");
            assert_eq!(start / period, (end - 1) / period, "run straddles a cut");
            for i in 0..run.len {
                flat.push((run.site, run.bits >> i & 1 == 1));
            }
            let at = end as usize;
            assert!(
                at == events.len()
                    || events[at].0 != run.site
                    || end.is_multiple_of(64)
                    || end.is_multiple_of(period),
                "run ending at {end} (period {period}) ends for no reason"
            );
        }
        assert_eq!(flat, events, "period {period}");
    }

    #[test]
    fn site_runs_decode_wide_site_tables() {
        for (num_sites, widest) in [(300, 2), (20_000, 3)] {
            let t = wide_stream(num_sites, 30_000, 0x5eed ^ num_sites as u64);
            // the stream reaches the multi-byte varint path, at full width
            assert!(t.site_deltas.len() as u64 > t.events());
            let mut cursor = t.site_deltas.as_slice();
            let mut longest = 0;
            while !cursor.is_empty() {
                let before = cursor.len();
                decode_varint(&mut cursor).unwrap();
                longest = longest.max(before - cursor.len());
            }
            assert_eq!(longest, widest, "{num_sites} sites");
            assert!(t.site_runs().any(|r| r.len == 64), "streaks fill words");
            for period in [u64::MAX, 1, 63, 64, 65, 500] {
                check_runs(&t, period);
            }
        }
    }

    #[test]
    fn site_runs_cut_ends_runs_at_every_multiple() {
        // one site throughout: every run boundary is a word or a cut
        let mut t = RecordedTrace::new(1);
        for i in 0..1000u32 {
            t.push(SiteId(0), i % 3 == 0);
        }
        let ends = |period| {
            let mut end = 0u64;
            t.site_runs_cut(period)
                .map(|r| {
                    end += r.len as u64;
                    end
                })
                .collect::<Vec<_>>()
        };
        assert!(ends(1).iter().copied().eq(1..=1000));
        assert!(ends(64)
            .iter()
            .copied()
            .eq((64..1000).step_by(64).chain([1000])));
        let mut want: Vec<u64> = (64..1000)
            .step_by(64)
            .chain((500..1000).step_by(500))
            .collect();
        want.push(1000);
        want.sort_unstable();
        want.dedup();
        assert_eq!(ends(500), want);
        for period in [1, 63, 64, 65, 500, u64::MAX] {
            check_runs(&t, period);
        }
        // a trace read back from bytes decodes the same runs
        let wide = wide_stream(300, 5000, 9);
        let back = RecordedTrace::from_bytes(&wide.to_bytes()).unwrap();
        assert!(back.site_runs_cut(65).eq(wide.site_runs_cut(65)));
    }

    #[test]
    #[should_panic(expected = "cut period")]
    fn site_runs_cut_rejects_a_zero_period() {
        sample().site_runs_cut(0);
    }

    #[test]
    fn site_runs_mixed_lengths_fuzz() {
        // deterministic pseudo-random mix of short and long streaks
        let mut t = RecordedTrace::new(7);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut event = 0u64;
        while event < 10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let site = SiteId((x % 7) as u32);
            let streak = 1 + (x >> 32) % 130;
            for i in 0..streak {
                t.push(site, (x >> (i % 23)) & 1 == 1);
            }
            event += streak;
        }
        assert_eq!(flatten_runs(&t), recorded_events(&t));
    }
}
