//! Content-addressed job specifications.
//!
//! A [`JobSpec`] names one simulation run of the evaluation grid — a
//! (workload, input, job kind, scale) tuple — and hashes to a stable cache
//! key. The hash is FNV-1a over the spec's canonical encoding plus
//! [`CACHE_SCHEMA_VERSION`], so bumping the version (for any change to
//! simulation semantics or payload format) invalidates every cached result
//! at once without touching old files.

use bpred::PredictorKind;
use btrace::serial::{invalid, read_string, read_u8, write_string};
use btrace::Fnv1a;
use std::io;
use workloads::Scale;

/// Version of the cache key scheme *and* payload format. Bump whenever
/// simulation semantics, spec encoding, or serialized payloads change; old
/// cache entries then simply stop being found.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Ceiling on workload/input/predictor name lengths in the spec wire
/// encoding. Checked *before* allocating the string buffer, so a hostile
/// length prefix cannot make a decoder reserve memory it will never fill.
pub const MAX_SPEC_NAME_LEN: usize = 256;

/// What a job computes for its (workload, input) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Total dynamic conditional branch count (a [`btrace::CountingTracer`]
    /// run).
    BranchCount,
    /// Per-branch accuracy profile under the given predictor
    /// ([`bpred::PredictorSim`]).
    Accuracy(PredictorKind),
    /// A full 2D-profiling run under the given predictor, with the
    /// auto-scaled slice configuration and the paper's thresholds.
    TwoD(PredictorKind),
    /// The recorded branch stream itself ([`btrace::RecordedTrace`]) —
    /// predictor-independent, so one trace job feeds every simulation of
    /// its (workload, input, scale) trio.
    Trace,
}

impl JobKind {
    /// Stable, filename-safe identifier of the kind.
    pub fn slug(self) -> String {
        match self {
            JobKind::BranchCount => "count".to_owned(),
            JobKind::Accuracy(k) => format!("acc-{}", k.id()),
            JobKind::TwoD(k) => format!("twod-{}", k.id()),
            JobKind::Trace => "trace".to_owned(),
        }
    }
}

/// Stable identifier of a workload scale (for keys and filenames).
pub fn scale_id(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// One run of the evaluation grid, in content-addressed form.
///
/// Workload and input are referenced *by name*: the worker that executes
/// the job reconstructs both from the registry, so specs are cheap to
/// clone, trivially `Send`, and hash independently of any in-memory object
/// identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Workload name (e.g. `"gzip"`).
    pub workload: String,
    /// Input-set name (e.g. `"train"`, `"ext-3"`).
    pub input: String,
    /// Workload scale of the run.
    pub scale: Scale,
    /// What to compute.
    pub kind: JobKind,
}

impl JobSpec {
    /// A branch-count job.
    pub fn count(workload: &str, input: &str, scale: Scale) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::BranchCount,
        }
    }

    /// An accuracy-profile job.
    pub fn accuracy(workload: &str, input: &str, scale: Scale, kind: PredictorKind) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::Accuracy(kind),
        }
    }

    /// A 2D-profiling job.
    pub fn two_d(workload: &str, input: &str, scale: Scale, kind: PredictorKind) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::TwoD(kind),
        }
    }

    /// A trace-recording job.
    pub fn trace(workload: &str, input: &str, scale: Scale) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::Trace,
        }
    }

    /// Stable content hash of the spec (FNV-1a over its canonical
    /// encoding, seeded with [`CACHE_SCHEMA_VERSION`]).
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.update(&(CACHE_SCHEMA_VERSION as u64).to_le_bytes());
        let kind = self.kind.slug();
        let fields = [
            self.workload.as_str(),
            &self.input,
            scale_id(self.scale),
            &kind,
        ];
        for field in fields {
            h.update(field.as_bytes());
            h.update(&[0xFF]); // field separator: "ab","c" hashes unlike "a","bc"
        }
        h.finish()
    }

    /// File name of the spec's own cache entry: human-readable slug plus
    /// the content hash. The disk cache names trace entries with it; every
    /// other output lives in its trace's results file
    /// ([`DiskCache::entry_path`](crate::DiskCache::entry_path)).
    pub fn cache_file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}-{:016x}.bin",
            self.workload,
            self.input,
            scale_id(self.scale),
            self.kind.slug(),
            self.content_hash()
        )
    }

    /// Short human-readable description for progress and error reporting.
    pub fn describe(&self) -> String {
        format!(
            "{} {}/{} @{}",
            self.kind.slug(),
            self.workload,
            self.input,
            scale_id(self.scale)
        )
    }

    /// Appends the spec's wire encoding to `buf`:
    ///
    /// ```text
    /// spec := string(workload) string(input) scale-u8 kind-u8
    ///         [string(predictor-id)]          (accuracy / 2D kinds only)
    /// ```
    ///
    /// All strings are `varint(len)` + UTF-8 bytes, names capped at
    /// [`MAX_SPEC_NAME_LEN`] and predictor ids at
    /// [`PredictorKind::MAX_ID_LEN`] on the read side.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        for name in [&self.workload, &self.input] {
            debug_assert!(
                name.len() <= MAX_SPEC_NAME_LEN,
                "name {name:?} too long to wire"
            );
            write_string(buf, name).expect("vec write");
        }
        buf.push(match self.scale {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        });
        match self.kind {
            JobKind::BranchCount => buf.push(0),
            JobKind::Accuracy(k) => {
                buf.push(1);
                k.write_id(buf).expect("vec write");
            }
            JobKind::TwoD(k) => {
                buf.push(2);
                k.write_id(buf).expect("vec write");
            }
            JobKind::Trace => buf.push(3),
        }
    }

    /// Decodes a spec written by [`encode_into`](Self::encode_into),
    /// consuming exactly the spec's bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on over-long names (checked before any
    /// allocation), unknown scale/kind bytes, or unknown predictor ids;
    /// `UnexpectedEof` on truncation.
    pub fn decode_from(r: &mut &[u8]) -> io::Result<Self> {
        let workload = read_string(r, MAX_SPEC_NAME_LEN)?;
        let input = read_string(r, MAX_SPEC_NAME_LEN)?;
        let scale = match read_u8(r)? {
            0 => Scale::Tiny,
            1 => Scale::Small,
            2 => Scale::Full,
            other => return Err(invalid(format!("unknown scale byte {other:#04x}"))),
        };
        let kind = match read_u8(r)? {
            0 => JobKind::BranchCount,
            1 => JobKind::Accuracy(PredictorKind::read_id(r)?),
            2 => JobKind::TwoD(PredictorKind::read_id(r)?),
            3 => JobKind::Trace,
            other => return Err(invalid(format!("unknown job-kind byte {other:#04x}"))),
        };
        Ok(Self {
            workload,
            input,
            scale,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let a = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        assert_eq!(a.content_hash(), a.clone().content_hash());
        // pinned for schema 3: a key that moves without a schema bump
        // would orphan every cache entry on disk
        assert_eq!(CACHE_SCHEMA_VERSION, 3);
        assert_eq!(a.content_hash(), 0x58ae_a449_1e47_3d41);
        let variants = [
            JobSpec::accuracy("gzi", "ptrain", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Small, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Perceptron16Kb),
            JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::count("gzip", "train", Scale::Tiny),
        ];
        for v in &variants {
            assert_ne!(a.content_hash(), v.content_hash(), "{}", v.describe());
        }
    }

    #[test]
    fn file_names_are_unique_and_readable() {
        let a = JobSpec::count("mcf", "ref", Scale::Full);
        let name = a.cache_file_name();
        assert!(name.starts_with("mcf-ref-full-count-"));
        assert!(name.ends_with(".bin"));
        let b = JobSpec::count("mcf", "ref", Scale::Small);
        assert_ne!(name, b.cache_file_name());
    }

    #[test]
    fn wire_encoding_roundtrips_every_kind() {
        let specs = [
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::accuracy("mcf", "ext-1", Scale::Small, PredictorKind::Gshare4Kb),
            JobSpec::two_d("gap", "train", Scale::Full, PredictorKind::Perceptron16Kb),
            JobSpec::trace("parser", "ref", Scale::Tiny),
        ];
        for spec in &specs {
            let mut buf = Vec::new();
            spec.encode_into(&mut buf);
            let mut r = buf.as_slice();
            let back = JobSpec::decode_from(&mut r).unwrap();
            assert_eq!(&back, spec);
            assert!(r.is_empty(), "decode consumed exactly the spec");
        }
    }

    #[test]
    fn wire_decoding_rejects_oversized_names_before_allocation() {
        // a frame declaring a multi-gigabyte workload name must be rejected
        // from the length prefix alone, with no buffer reserved
        let mut buf = Vec::new();
        btrace::write_varint(&mut buf, u64::MAX).unwrap();
        let err = JobSpec::decode_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // just past the cap is rejected the same way
        let mut buf = Vec::new();
        btrace::write_varint(&mut buf, (MAX_SPEC_NAME_LEN + 1) as u64).unwrap();
        buf.extend(std::iter::repeat_n(b'a', MAX_SPEC_NAME_LEN + 1));
        assert!(JobSpec::decode_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn wire_decoding_rejects_truncation_and_bad_bytes() {
        let spec = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        for len in 0..buf.len() {
            assert!(
                JobSpec::decode_from(&mut &buf[..len]).is_err(),
                "prefix {len} must not decode"
            );
        }
        // unknown scale byte
        let mut bad = buf.clone();
        let scale_pos = 1 + 4 + 1 + 5; // len("gzip")+bytes, len("train")+bytes
        bad[scale_pos] = 9;
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
        // unknown kind byte
        let mut bad = buf.clone();
        bad[scale_pos + 1] = 9;
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
        // corrupted predictor id
        let mut bad = buf;
        let pos = bad
            .windows(9)
            .position(|w| w == b"gshare4kb")
            .expect("id embedded");
        bad[pos] = b'x';
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn describe_mentions_all_coordinates() {
        let s = JobSpec::two_d("gap", "train", Scale::Small, PredictorKind::Perceptron16Kb);
        let d = s.describe();
        for needle in ["gap", "train", "small", "twod", "perceptron16kb"] {
            assert!(d.contains(needle), "{d:?} lacks {needle}");
        }
    }
}
