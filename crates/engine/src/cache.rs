//! The persistent on-disk result cache.
//!
//! Layout: two files per (workload, input, scale) trace under
//! `<root>/v<SCHEMA>/`, both named by the content hash of the trace's spec
//! ([`crate::TraceRef::spec`]):
//!
//! * `<workload>-<input>-<scale>-trace-<hash>.bin`, the *trace entry*,
//!   holds the recorded trace;
//! * `<workload>-<input>-<scale>-results-<hash>.bin`, the *results file*,
//!   holds every other output of the trace — its branch count, accuracy
//!   profiles and 2D reports — one record per spec.
//!
//! Both start with the same header:
//!
//! ```text
//! magic    "2DPC"                      4 bytes
//! version  u8                          currently 3
//! trace    u64 LE                      content hash of the trace spec
//! kind     u8                          3 = trace entry, 4 = results file
//! ```
//!
//! A trace entry continues with the trace's 2DPR encoding
//! ([`btrace::RecordedTrace::write_to`]) and ends there. The 2DPR carries
//! its own FNV-1a and is checked structurally, so the entry needs no second
//! checksum: a trace is hashed once when it is stored and once when it is
//! loaded, and its payload length is the file length minus the header. A
//! results file continues with its records and a checksum:
//!
//! ```text
//! count    varint                      records that follow
//! record   spec u64 LE                 content hash of the record's spec
//!          tag u8                      0 = count, 1 = accuracy, 2 = 2D report
//!          len varint                  payload length
//!          payload                     JobOutput::to_payload
//! checksum u64 LE                      FNV-1a of every byte before it
//! ```
//!
//! A store writes a temp file and renames it over the destination. Storing
//! results merges them into their trace's results file: read the file,
//! replace or append each spec's record, write, rename. The engine stores
//! all results a work unit computed in one merge, so a cold sweep creates
//! two files per trace. Within a process the merges into one file are
//! serialized. Across processes two merges into one file can race, and the
//! later rename drops the records the earlier one added; that loses work,
//! never correctness, because a dropped record is a miss and is recomputed.
//!
//! Invalidation is by construction rather than by deletion: the schema
//! version participates in both the directory name and every content hash
//! (see [`crate::CACHE_SCHEMA_VERSION`]), so a version bump makes all old
//! entries unreachable. A file that fails validation reads as
//! [`CacheLookup::Corrupt`] — a distinct outcome so the engine can count
//! recoveries — for every spec it holds: a results file that fails its
//! checksum makes every result of its trace corrupt. The engine recomputes
//! them, and the next store rewrites the file from scratch. A cache can
//! always be deleted outright with `rm -r`.

use crate::{JobKind, JobSpec, TraceRef, CACHE_SCHEMA_VERSION};
use bpred::AccuracyProfile;
use btrace::serial::{
    ensure_consumed, invalid, read_array, read_len, read_u8, read_varint, read_whole,
    strip_checksum, with_declared_capacity, write_varint,
};
use btrace::{Fnv1a, RecordedTrace};
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use twodprof_core::ProfileReport;

const MAGIC: &[u8; 4] = b"2DPC";
const VERSION: u8 = 3;
/// Header kind byte of a trace entry (the trace output's tag).
const TRACE_ENTRY: u8 = 3;
/// Header kind byte of a results file.
const RESULTS_FILE: u8 = 4;
/// Magic, version, trace hash and kind.
const HEADER_LEN: u64 = 4 + 1 + 8 + 1;
/// The shortest record: spec hash, tag, a one-byte length, no payload.
const MIN_RECORD_LEN: usize = 8 + 1 + 1;

/// One job's computed result.
///
/// Profiles and reports are behind `Arc` so cache hits can be shared with
/// experiment code without cloning `O(sites)` payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Total dynamic conditional branches of the run.
    Count(u64),
    /// Per-branch accuracy profile.
    Accuracy(Arc<AccuracyProfile>),
    /// Full 2D-profiling report.
    Report(Arc<ProfileReport>),
    /// The recorded branch stream (record-once/simulate-many buffer).
    Trace(Arc<RecordedTrace>),
}

impl JobOutput {
    /// Dynamic branch events the result represents (for throughput
    /// accounting).
    pub fn events(&self) -> u64 {
        match self {
            JobOutput::Count(n) => *n,
            JobOutput::Accuracy(p) => p.total_executions(),
            JobOutput::Report(r) => r.total_branches(),
            JobOutput::Trace(t) => t.events(),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            JobOutput::Count(_) => 0,
            JobOutput::Accuracy(_) => 1,
            JobOutput::Report(_) => 2,
            JobOutput::Trace(_) => 3,
        }
    }

    /// The tag an output for `kind` must carry.
    fn expected_tag(kind: JobKind) -> u8 {
        match kind {
            JobKind::BranchCount => 0,
            JobKind::Accuracy(_) => 1,
            JobKind::TwoD(_) => 2,
            JobKind::Trace => 3,
        }
    }

    /// Serializes the output's payload — the encoding a results-file record
    /// or a trace entry carries after its header, and the encoding job
    /// results cross the fabric wire in.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            JobOutput::Count(n) => write_varint(&mut payload, *n).expect("vec write"),
            JobOutput::Accuracy(p) => p.write_to(&mut payload).expect("vec write"),
            JobOutput::Report(r) => r.write_to(&mut payload).expect("vec write"),
            JobOutput::Trace(t) => t.write_to(&mut payload).expect("vec write"),
        }
        payload
    }

    /// Decodes a payload written by [`to_payload`](Self::to_payload), typed
    /// by the spec kind that produced it.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed payloads or trailing bytes;
    /// `UnexpectedEof` on truncation.
    pub fn from_payload(kind: JobKind, payload: &[u8]) -> io::Result<Self> {
        read_whole(payload, |p| {
            Ok(match Self::expected_tag(kind) {
                0 => JobOutput::Count(read_varint(p)?),
                1 => JobOutput::Accuracy(Arc::new(AccuracyProfile::read_from(p)?)),
                3 => JobOutput::Trace(Arc::new(RecordedTrace::read_from(p)?)),
                _ => JobOutput::Report(Arc::new(ProfileReport::read_from(p)?)),
            })
        })
    }
}

/// FNV-1a over a serialized payload — the checksum fabric `JobResult`
/// frames carry so receivers can verify payload bytes end-to-end before
/// decoding.
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    Fnv1a::hash(bytes)
}

/// The outcome of a cache probe (see [`DiskCache::lookup`]).
///
/// Distinguishing [`Corrupt`](Self::Corrupt) from [`Miss`](Self::Miss)
/// matters operationally: a rising corrupt count means disk trouble or a
/// torn write, while misses are just cold entries.
#[derive(Debug)]
pub enum CacheLookup {
    /// No entry on disk.
    Miss,
    /// A valid entry.
    Hit(JobOutput),
    /// The file that would hold the entry exists but failed validation
    /// (truncated, bit-flipped, version- or kind-mismatched). The caller
    /// recomputes, and the next store rewrites the file.
    Corrupt,
}

/// A directory of serialized job outputs, safe for concurrent use from many
/// worker threads (see the module docs for how stores stay atomic).
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the cache under `dir`. The schema
    /// version is a subdirectory, so caches from different schema eras
    /// coexist without interference.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let root = dir.join(format!("v{CACHE_SCHEMA_VERSION}"));
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The versioned cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the file holding `spec`'s output: the trace entry for a
    /// trace spec, its trace's results file for any other.
    pub fn entry_path(&self, spec: &JobSpec) -> PathBuf {
        if spec.kind == JobKind::Trace {
            return self.root.join(spec.cache_file_name());
        }
        let trace = TraceRef::of_spec(spec).spec();
        self.root.join(format!(
            "{}-{}-{}-results-{:016x}.bin",
            trace.workload,
            trace.input,
            crate::scale_id(trace.scale),
            trace.content_hash()
        ))
    }

    /// Probes the cache for `spec`, distinguishing a cold miss from an
    /// entry that exists but fails validation. Never errors: an unreadable
    /// entry is [`CacheLookup::Corrupt`] and the caller recomputes.
    pub fn lookup(&self, spec: &JobSpec) -> CacheLookup {
        let found = if spec.kind == JobKind::Trace {
            self.read_trace(spec)
        } else {
            self.read_result(spec)
        };
        match found {
            Ok(Some(output)) => CacheLookup::Hit(output),
            Ok(None) => CacheLookup::Miss,
            Err(e) if e.kind() == io::ErrorKind::NotFound => CacheLookup::Miss,
            Err(_) => CacheLookup::Corrupt,
        }
    }

    /// Stores `output` as the result of `spec`.
    ///
    /// # Errors
    ///
    /// `InvalidData` when `output` is not of `spec`'s kind; otherwise
    /// propagates I/O failures (callers typically degrade to warn-and-
    /// continue: a broken cache must not fail a sweep).
    pub fn store(&self, spec: &JobSpec, output: &JobOutput) -> io::Result<()> {
        self.store_all(&[(spec, output)])
    }

    /// Stores the outputs of one trace at once: the trace itself to its own
    /// entry, every other output in one merge into the trace's results file.
    ///
    /// # Errors
    ///
    /// As [`store`](Self::store), and `InvalidData` when the outputs belong
    /// to more than one trace; stops at the first failure.
    pub fn store_all(&self, outputs: &[(&JobSpec, &JobOutput)]) -> io::Result<()> {
        let Some(&(first, _)) = outputs.first() else {
            return Ok(());
        };
        let trace = TraceRef::of_spec(first).spec();
        let mut results = Vec::with_capacity(outputs.len());
        for &(spec, output) in outputs {
            if output.tag() != JobOutput::expected_tag(spec.kind) {
                return Err(invalid(format!(
                    "{} cannot hold this output",
                    spec.describe()
                )));
            }
            if TraceRef::of_spec(spec).spec() != trace {
                return Err(invalid("one store holds the outputs of one trace"));
            }
            match output {
                JobOutput::Trace(recorded) => self.store_trace(spec, recorded)?,
                _ => results.push((spec, output)),
            }
        }
        if results.is_empty() {
            return Ok(());
        }
        self.merge_results(&trace, &results)
    }

    /// The payload length of `spec`'s stored trace entry, from the file's
    /// length alone, so a caller can size a trace without loading it.
    /// `None` when `spec` is not a trace or no entry is stored.
    pub fn trace_payload_len(&self, spec: &JobSpec) -> Option<u64> {
        if spec.kind != JobKind::Trace {
            return None;
        }
        let len = fs::metadata(self.entry_path(spec)).ok()?.len();
        len.checked_sub(HEADER_LEN)
    }

    fn read_trace(&self, spec: &JobSpec) -> io::Result<Option<JobOutput>> {
        let mut r = BufReader::new(File::open(self.entry_path(spec))?);
        read_header(&mut r, spec, TRACE_ENTRY)?;
        // the 2DPR's own checksum and structural checks cover the rest
        let trace = RecordedTrace::read_from(&mut r)?;
        Ok(Some(JobOutput::Trace(Arc::new(trace))))
    }

    fn read_result(&self, spec: &JobSpec) -> io::Result<Option<JobOutput>> {
        let bytes = fs::read(self.entry_path(spec))?;
        let records = read_records(&bytes, &TraceRef::of_spec(spec).spec())?;
        let hash = spec.content_hash();
        match records.iter().find(|r| r.spec == hash) {
            None => Ok(None),
            Some(r) if r.tag != JobOutput::expected_tag(spec.kind) => {
                Err(invalid("cache record holds a different result kind"))
            }
            Some(r) => JobOutput::from_payload(spec.kind, r.payload).map(Some),
        }
    }

    fn store_trace(&self, spec: &JobSpec, trace: &RecordedTrace) -> io::Result<()> {
        self.replace(&self.entry_path(spec), |w| {
            write_header(w, spec, TRACE_ENTRY)?;
            trace.write_to(w)
        })
    }

    /// Merges `results`, all outputs of `trace`, into its results file. A
    /// file that is missing or fails validation is rewritten from scratch.
    fn merge_results(&self, trace: &JobSpec, results: &[(&JobSpec, &JobOutput)]) -> io::Result<()> {
        let path = self.entry_path(results[0].0);
        let _serial = file_lock(&path);
        let old = fs::read(&path).unwrap_or_default();
        let mut records = read_records(&old, trace).unwrap_or_default();
        let payloads: Vec<(u64, u8, Vec<u8>)> = results
            .iter()
            .map(|(spec, output)| (spec.content_hash(), output.tag(), output.to_payload()))
            .collect();
        for (spec, tag, payload) in &payloads {
            let record = Record {
                spec: *spec,
                tag: *tag,
                payload,
            };
            match records.iter_mut().find(|r| r.spec == *spec) {
                Some(slot) => *slot = record,
                None => records.push(record),
            }
        }
        let bytes = encode_results(trace, &records)?;
        self.replace(&path, |w| w.write_all(&bytes))
    }

    /// Writes a file through a temp file unique to this process and thread,
    /// then renames it over `path`.
    fn replace(
        &self,
        path: &Path,
        write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
    ) -> io::Result<()> {
        let name = path.file_name().expect("entry paths name a file");
        let tmp = self.root.join(format!(
            ".tmp-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            name.to_string_lossy()
        ));
        let written = File::create(&tmp).and_then(|file| {
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            w.flush()
        });
        let result = written.and_then(|()| fs::rename(&tmp, path));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// Serializes the read-modify-write of a results file within the process,
/// whichever [`DiskCache`] value does it. Striped by path: two files that
/// share a stripe only take turns.
fn file_lock(path: &Path) -> MutexGuard<'static, ()> {
    static STRIPES: [Mutex<()>; 16] = [const { Mutex::new(()) }; 16];
    let stripe = Fnv1a::hash(path.as_os_str().as_encoded_bytes()) as usize % STRIPES.len();
    STRIPES[stripe]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One record of a results file.
struct Record<'a> {
    spec: u64,
    tag: u8,
    payload: &'a [u8],
}

fn write_header<W: Write>(w: &mut W, trace: &JobSpec, kind: u8) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&trace.content_hash().to_le_bytes())?;
    w.write_all(&[kind])
}

fn read_header<R: Read>(r: &mut R, trace: &JobSpec, kind: u8) -> io::Result<()> {
    if &read_array(r)? != MAGIC {
        return Err(invalid("not a 2DPC cache entry"));
    }
    if read_u8(r)? != VERSION {
        return Err(invalid("unsupported cache-entry version"));
    }
    if u64::from_le_bytes(read_array(r)?) != trace.content_hash() {
        return Err(invalid("cache entry is for a different trace"));
    }
    if read_u8(r)? != kind {
        return Err(invalid("cache entry is a different kind of file"));
    }
    Ok(())
}

fn encode_results(trace: &JobSpec, records: &[Record<'_>]) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_header(&mut buf, trace, RESULTS_FILE)?;
    write_varint(&mut buf, records.len() as u64)?;
    for r in records {
        buf.extend_from_slice(&r.spec.to_le_bytes());
        buf.push(r.tag);
        write_varint(&mut buf, r.payload.len() as u64)?;
        buf.extend_from_slice(r.payload);
    }
    let checksum = Fnv1a::hash(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

/// Verifies a results file of `trace` and splits it into its records,
/// which borrow their payloads from `bytes`.
fn read_records<'a>(bytes: &'a [u8], trace: &JobSpec) -> io::Result<Vec<Record<'a>>> {
    let mut r = strip_checksum(bytes)?;
    read_header(&mut r, trace, RESULTS_FILE)?;
    let most = r.len() / MIN_RECORD_LEN;
    let count = read_len(&mut r, most, "record count")?;
    let mut records = with_declared_capacity(count);
    for _ in 0..count {
        let spec = u64::from_le_bytes(read_array(&mut r)?);
        let tag = read_u8(&mut r)?;
        let len = read_len(&mut r, usize::MAX, "record length")?;
        let (payload, rest) = r
            .split_at_checked(len)
            .ok_or_else(|| invalid("cache record runs past the end of its file"))?;
        records.push(Record { spec, tag, payload });
        r = rest;
    }
    ensure_consumed(r)?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred::PredictorKind;
    use btrace::SiteId;
    use workloads::Scale;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("twodprof_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn count_roundtrips_through_the_cache() {
        let dir = tmpdir("count");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        assert!(matches!(cache.lookup(&spec), CacheLookup::Miss));
        cache.store(&spec, &JobOutput::Count(12_345)).unwrap();
        match cache.lookup(&spec) {
            CacheLookup::Hit(JobOutput::Count(12_345)) => {}
            other => panic!("expected Hit(Count(12345)), got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("mcf", "ref", Scale::Tiny);
        cache.store(&spec, &JobOutput::Count(7)).unwrap();
        fs::write(cache.entry_path(&spec), b"garbage").unwrap();
        // the engine recomputes a corrupt entry, as it does a miss
        assert!(matches!(cache.lookup(&spec), CacheLookup::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_is_corrupt() {
        let dir = tmpdir("kind");
        let cache = DiskCache::open(&dir).unwrap();
        let acc = JobSpec::accuracy("gap", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        let count = JobSpec::count("gap", "train", Scale::Tiny);
        // a results file whose record for the accuracy spec holds a count
        let forged = Record {
            spec: acc.content_hash(),
            tag: 0,
            payload: &[3],
        };
        let trace = TraceRef::of_spec(&acc).spec();
        fs::write(
            cache.entry_path(&acc),
            encode_results(&trace, &[forged]).unwrap(),
        )
        .unwrap();
        assert!(
            matches!(cache.lookup(&acc), CacheLookup::Corrupt),
            "tag check must reject"
        );
        assert!(matches!(cache.lookup(&count), CacheLookup::Miss));
        // and storing an output under a spec of another kind is refused
        assert!(cache
            .store(&count, &JobOutput::Trace(Arc::default()))
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_distinguishes_miss_hit_and_corrupt() {
        let dir = tmpdir("lookup");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        assert!(matches!(cache.lookup(&spec), CacheLookup::Miss));
        cache.store(&spec, &JobOutput::Count(99)).unwrap();
        assert!(matches!(
            cache.lookup(&spec),
            CacheLookup::Hit(JobOutput::Count(99))
        ));
        // truncation
        let path = cache.entry_path(&spec);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(cache.lookup(&spec), CacheLookup::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let dir = tmpdir("bitflip");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        cache.store(&spec, &JobOutput::Count(1)).unwrap();
        let path = cache.entry_path(&spec);
        let clean = fs::read(&path).unwrap();
        // flip each single bit in turn; every variant must read as corrupt,
        // never as a hit with a silently different value
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                fs::write(&path, &flipped).unwrap();
                match cache.lookup(&spec) {
                    CacheLookup::Corrupt => {}
                    other => panic!("bit {bit} of byte {byte}: expected Corrupt, got {other:?}"),
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_of_a_trace_share_one_file_and_merge() {
        let dir = tmpdir("merge");
        let cache = DiskCache::open(&dir).unwrap();
        let count = JobSpec::count("gzip", "train", Scale::Tiny);
        let acc = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        let other = JobSpec::count("gzip", "ref", Scale::Tiny);
        assert_eq!(cache.entry_path(&count), cache.entry_path(&acc));
        assert_ne!(cache.entry_path(&count), cache.entry_path(&other));
        let profile = AccuracyProfile::from_parts(vec![4], vec![3], "g".into());
        cache.store(&count, &JobOutput::Count(5)).unwrap();
        cache
            .store(&acc, &JobOutput::Accuracy(Arc::new(profile.clone())))
            .unwrap();
        // a later store replaces a record rather than appending a second
        cache.store(&count, &JobOutput::Count(6)).unwrap();
        assert!(matches!(
            cache.lookup(&count),
            CacheLookup::Hit(JobOutput::Count(6))
        ));
        match cache.lookup(&acc) {
            CacheLookup::Hit(JobOutput::Accuracy(p)) => assert_eq!(*p, profile),
            other => panic!("expected the accuracy profile, got {other:?}"),
        }
        let bytes = fs::read(cache.entry_path(&count)).unwrap();
        let trace = TraceRef::of_spec(&count).spec();
        assert_eq!(read_records(&bytes, &trace).unwrap().len(), 2);
        assert!(matches!(cache.lookup(&other), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trace_entry_is_its_header_and_the_trace() {
        let dir = tmpdir("trace");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::trace("gzip", "train", Scale::Tiny);
        assert_eq!(cache.trace_payload_len(&spec), None);
        let mut trace = RecordedTrace::new(4);
        for i in 0..300u32 {
            trace.push(SiteId(i % 4), i % 3 == 0);
        }
        let trace = Arc::new(trace);
        cache
            .store(&spec, &JobOutput::Trace(trace.clone()))
            .unwrap();
        let bytes = fs::read(cache.entry_path(&spec)).unwrap();
        assert_eq!(bytes[HEADER_LEN as usize..], trace.to_bytes());
        assert_eq!(cache.trace_payload_len(&spec), Some(trace.encoded_len()));
        match cache.lookup(&spec) {
            CacheLookup::Hit(JobOutput::Trace(back)) => assert_eq!(back, trace),
            other => panic!("expected the trace, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_version_partitions_the_directory() {
        let dir = tmpdir("schema");
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.root().ends_with(format!("v{CACHE_SCHEMA_VERSION}")));
        let _ = fs::remove_dir_all(&dir);
    }
}
