//! Wire-shaped streaming outputs: drift events and verdict snapshots.
//!
//! Both types serialize to compact varint payloads through the shared
//! rules of [`btrace::serial`], with verdicts in
//! [`Classification`]'s own encoding, as `ProfileReport` does. The serve
//! layer carries them as opaque bodies inside its framing, so the format is
//! owned here next to the producer.

use btrace::serial::{
    invalid, read_len, read_opt_f64, read_varint, read_whole, with_declared_capacity,
    write_opt_f64, write_varint,
};
use std::io::{self, Read, Write};
use twodprof_core::Classification;

/// A published verdict flip for one branch site: after hysteresis confirmed
/// the new classification, the site moved from `from` to `to` at fold
/// `epoch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriftEvent {
    /// Static branch site index.
    pub site: u32,
    /// Global fold epoch at which the flip was confirmed.
    pub epoch: u64,
    /// Previously published classification.
    pub from: Classification,
    /// Newly published classification.
    pub to: Classification,
}

impl DriftEvent {
    /// Writes the event in wire form.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_varint(w, self.site as u64)?;
        write_varint(w, self.epoch)?;
        self.from.write_to(w)?;
        self.to.write_to(w)
    }

    /// Reads an event written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input and propagates I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let site = read_varint(r)?;
        if site > u32::MAX as u64 {
            return Err(invalid("drift-event site out of range"));
        }
        Ok(Self {
            site: site as u32,
            epoch: read_varint(r)?,
            from: Classification::read_from(r)?,
            to: Classification::read_from(r)?,
        })
    }

    /// Serializes to an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("Vec write cannot fail");
        buf
    }

    /// Parses a [`to_bytes`](Self::to_bytes) buffer, rejecting trailing
    /// garbage.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input or leftover bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        read_whole(bytes, |r| Self::read_from(r))
    }
}

/// Windowed statistics and published verdict for one site, dense by site
/// index inside a [`VerdictSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteVerdict {
    /// Published (hysteresis-stable) classification.
    pub verdict: Classification,
    /// Counted slices currently in the site's window.
    pub slices: u64,
    /// Windowed mean filtered accuracy, `None` while the window is empty.
    pub mean: Option<f64>,
    /// Windowed standard deviation.
    pub std_dev: Option<f64>,
    /// Windowed points-above-mean fraction.
    pub pam_fraction: Option<f64>,
}

/// Point-in-time view of a program's streaming profile: one entry per site,
/// dense by site index.
#[derive(Clone, Debug, PartialEq)]
pub struct VerdictSnapshot {
    /// Fold epochs completed so far.
    pub epoch: u64,
    /// Configured window size, in slices.
    pub window: u64,
    /// Configured slice length, in dynamic branches per session.
    pub slice_len: u64,
    /// Windowed program-wide prediction accuracy, `None` before any events.
    pub program_accuracy: Option<f64>,
    /// Per-site windowed statistics, indexed by site id.
    pub sites: Vec<SiteVerdict>,
}

impl VerdictSnapshot {
    /// Writes the snapshot in wire form.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_varint(w, self.epoch)?;
        write_varint(w, self.window)?;
        write_varint(w, self.slice_len)?;
        write_opt_f64(w, self.program_accuracy)?;
        write_varint(w, self.sites.len() as u64)?;
        for s in &self.sites {
            s.verdict.write_to(w)?;
            write_varint(w, s.slices)?;
            write_opt_f64(w, s.mean)?;
            write_opt_f64(w, s.std_dev)?;
            write_opt_f64(w, s.pam_fraction)?;
        }
        Ok(())
    }

    /// Reads a snapshot written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input and propagates I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let epoch = read_varint(r)?;
        let window = read_varint(r)?;
        let slice_len = read_varint(r)?;
        let program_accuracy = read_opt_f64(r)?;
        let num_sites = read_len(r, 1 << 28, "site count")?;
        let mut sites = with_declared_capacity(num_sites);
        for _ in 0..num_sites {
            sites.push(SiteVerdict {
                verdict: Classification::read_from(r)?,
                slices: read_varint(r)?,
                mean: read_opt_f64(r)?,
                std_dev: read_opt_f64(r)?,
                pam_fraction: read_opt_f64(r)?,
            });
        }
        Ok(Self {
            epoch,
            window,
            slice_len,
            program_accuracy,
            sites,
        })
    }

    /// Serializes to an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("Vec write cannot fail");
        buf
    }

    /// Parses a [`to_bytes`](Self::to_bytes) buffer, rejecting trailing
    /// garbage.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input or leftover bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        read_whole(bytes, |r| Self::read_from(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_event_roundtrips() {
        let ev = DriftEvent {
            site: 7,
            epoch: 300,
            from: Classification::Independent,
            to: Classification::Dependent,
        };
        assert_eq!(DriftEvent::from_bytes(&ev.to_bytes()).unwrap(), ev);
    }

    #[test]
    fn drift_event_rejects_trailing_and_bad_class() {
        let mut bytes = DriftEvent {
            site: 1,
            epoch: 2,
            from: Classification::Dependent,
            to: Classification::Insufficient,
        }
        .to_bytes();
        bytes.push(0);
        assert!(DriftEvent::from_bytes(&bytes).is_err());
        assert!(DriftEvent::from_bytes(&[0, 0, 9, 0]).is_err());
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = VerdictSnapshot {
            epoch: 42,
            window: 32,
            slice_len: 8192,
            program_accuracy: Some(0.9375),
            sites: vec![
                SiteVerdict {
                    verdict: Classification::Dependent,
                    slices: 32,
                    mean: Some(0.71),
                    std_dev: Some(0.13),
                    pam_fraction: Some(0.5),
                },
                SiteVerdict {
                    verdict: Classification::Insufficient,
                    slices: 0,
                    mean: None,
                    std_dev: None,
                    pam_fraction: None,
                },
            ],
        };
        assert_eq!(VerdictSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
    }

    #[test]
    fn snapshot_rejects_trailing_garbage() {
        let snap = VerdictSnapshot {
            epoch: 0,
            window: 4,
            slice_len: 100,
            program_accuracy: None,
            sites: vec![],
        };
        let mut bytes = snap.to_bytes();
        bytes.push(7);
        assert!(VerdictSnapshot::from_bytes(&bytes).is_err());
    }
}
