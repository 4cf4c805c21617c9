//! The metric registry: name → handle, plus the process-global instance.

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// One registered metric, by kind.
enum Entry {
    Counter {
        help: &'static str,
        cell: &'static Counter,
    },
    Gauge {
        help: &'static str,
        cell: &'static Gauge,
    },
    Histogram {
        help: &'static str,
        cell: &'static Histogram,
    },
}

/// A collection of named metrics.
///
/// Registration is idempotent by name (re-registering returns the existing
/// handle) and happens off the hot path; the handles themselves are lock-free
/// atomics. Handles are `&'static` — cells are leaked on first registration,
/// which is the right trade for process-lifetime metrics.
///
/// A registry created *disabled* hands out detached "void" cells instead:
/// the caller's update path is byte-for-byte the same (load handle, relaxed
/// RMW — no enabled-branch anywhere), but no snapshot ever includes the
/// value. This is how `TWODPROF_METRICS=off` turns the whole layer into a
/// no-op without a conditional in any instrumented function.
pub struct Registry {
    enabled: bool,
    entries: Mutex<BTreeMap<&'static str, Entry>>,
}

impl Registry {
    /// An empty registry. `enabled = false` makes every future registration
    /// return a detached void cell.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether registrations land in snapshots.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        if !self.enabled {
            return Box::leak(Box::new(Counter::new()));
        }
        let mut entries = self.entries.lock().expect("metric registry");
        match entries.entry(name).or_insert_with(|| Entry::Counter {
            help,
            cell: Box::leak(Box::new(Counter::new())),
        }) {
            Entry::Counter { cell, .. } => cell,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        if !self.enabled {
            return Box::leak(Box::new(Gauge::new()));
        }
        let mut entries = self.entries.lock().expect("metric registry");
        match entries.entry(name).or_insert_with(|| Entry::Gauge {
            help,
            cell: Box::leak(Box::new(Gauge::new())),
        }) {
            Entry::Gauge { cell, .. } => cell,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        if !self.enabled {
            return Box::leak(Box::new(Histogram::new()));
        }
        let mut entries = self.entries.lock().expect("metric registry");
        match entries.entry(name).or_insert_with(|| Entry::Histogram {
            help,
            cell: Box::leak(Box::new(Histogram::new())),
        }) {
            Entry::Histogram { cell, .. } => cell,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by name
    /// (the `BTreeMap` ordering), so exposition is deterministic.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("metric registry");
        let mut snap = Snapshot::default();
        for (&name, entry) in entries.iter() {
            match entry {
                Entry::Counter { help, cell } => {
                    snap.counters
                        .push((name.to_owned(), (*help).to_owned(), cell.get()));
                }
                Entry::Gauge { help, cell } => {
                    snap.gauges
                        .push((name.to_owned(), (*help).to_owned(), cell.get()));
                }
                Entry::Histogram { help, cell } => {
                    snap.histograms.push((
                        name.to_owned(),
                        (*help).to_owned(),
                        HistogramSnapshot {
                            buckets: cell.buckets().to_vec(),
                            sum: cell.sum(),
                        },
                    ));
                }
            }
        }
        snap
    }
}

/// A labeled metric family: one metric kind instantiated per small integer
/// index, with names of the form `{base}{index}{suffix}` (e.g.
/// `serve_shard3_tick_micros`). The index rides *inside* the metric name
/// rather than as a Prometheus `{label="..."}` pair because
/// [`Snapshot::to_text`] emits one `# HELP`/`# TYPE` header per name — a
/// label embedded in the name would corrupt those lines.
///
/// A `Family` is `const`-constructible so call sites can hold one in a
/// `static`, mirroring the `counter!`/`gauge!` macros' per-call-site cache:
/// `get(index)` interns the formatted name and registers on the global
/// registry exactly once per index, then answers from a lock-protected
/// dense cache. Registration stays off the hot path; the returned handles
/// are the usual `&'static` lock-free cells.
pub struct Family<M: 'static> {
    base: &'static str,
    suffix: &'static str,
    help: &'static str,
    register: fn(&'static str, &'static str) -> &'static M,
    cells: Mutex<Vec<Option<&'static M>>>,
}

impl<M> Family<M> {
    const fn new(
        base: &'static str,
        suffix: &'static str,
        help: &'static str,
        register: fn(&'static str, &'static str) -> &'static M,
    ) -> Self {
        Self {
            base,
            suffix,
            help,
            register,
            cells: Mutex::new(Vec::new()),
        }
    }

    /// The member metric for `index`, registering it on the global registry
    /// on first use. Subsequent calls for the same index return the cached
    /// `&'static` handle.
    pub fn get(&self, index: usize) -> &'static M {
        let mut cells = self.cells.lock().expect("metric family cache");
        if index >= cells.len() {
            cells.resize(index + 1, None);
        }
        cells[index].get_or_insert_with(|| {
            let name = intern_name(format!("{}{index}{}", self.base, self.suffix));
            (self.register)(name, self.help)
        })
    }
}

impl Family<Gauge> {
    /// A gauge family registering on the global registry.
    pub const fn gauge(base: &'static str, suffix: &'static str, help: &'static str) -> Self {
        fn register(name: &'static str, help: &'static str) -> &'static Gauge {
            global().gauge(name, help)
        }
        Self::new(base, suffix, help, register)
    }
}

impl Family<Histogram> {
    /// A histogram family registering on the global registry.
    pub const fn histogram(base: &'static str, suffix: &'static str, help: &'static str) -> Self {
        fn register(name: &'static str, help: &'static str) -> &'static Histogram {
            global().histogram(name, help)
        }
        Self::new(base, suffix, help, register)
    }
}

/// Interns a runtime-built metric name, returning the canonical
/// `&'static str` for it. The `counter!`/`gauge!` macros cache their
/// handle in a per-call-site static, which pins the name at compile time;
/// code that builds names dynamically (per-shard histograms, per-node
/// fabric gauges) interns the string once here and registers straight on the
/// [`Registry`]. Each distinct name leaks exactly once — the same trade
/// the metric cells already make for process-lifetime data.
pub fn intern_name(name: String) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock().expect("interned metric names");
    if let Some(existing) = names.iter().find(|n| ***n == *name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    names.push(leaked);
    leaked
}

/// The process-global registry the [`counter!`](crate::counter),
/// [`gauge!`](crate::gauge), and [`histogram!`](crate::histogram) macros
/// register on. Enabled unless the `TWODPROF_METRICS` environment variable
/// is `off`, `0`, or `false` at first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let disabled = std::env::var("TWODPROF_METRICS")
            .map(|v| matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false"))
            .unwrap_or(false);
        Registry::new(!disabled)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new(true);
        let a = r.counter("x_total", "X.");
        let b = r.counter("x_total", "X.");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("x_total".to_owned(), "X.".to_owned(), 2)]
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new(true);
        r.counter("clash", "A counter.");
        r.gauge("clash", "A gauge.");
    }

    #[test]
    fn disabled_registry_hands_out_void_cells() {
        let r = Registry::new(false);
        let c = r.counter("invisible_total", "Never seen.");
        c.add(99);
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        // two registrations under the same name are independent cells
        let d = r.counter("invisible_total", "Never seen.");
        assert!(!std::ptr::eq(c, d));
        assert_eq!(d.get(), 0);
    }

    #[test]
    fn family_formats_names_and_caches_handles() {
        static SESSIONS: Family<Gauge> =
            Family::gauge("obs_family_test_shard", "_sessions", "Family test gauge.");
        let g0 = SESSIONS.get(0);
        let g3 = SESSIONS.get(3);
        assert!(!std::ptr::eq(g0, g3));
        assert!(std::ptr::eq(g0, SESSIONS.get(0)), "index 0 must be cached");
        g3.set(7);
        // the family registers on the global registry under the formatted name
        let direct = global().gauge(
            intern_name("obs_family_test_shard3_sessions".to_owned()),
            "Family test gauge.",
        );
        assert!(std::ptr::eq(g3, direct));
        assert_eq!(direct.get(), 7);
    }

    #[test]
    fn family_counter_and_histogram_kinds() {
        static LAT: Family<Histogram> =
            Family::histogram("obs_family_test_node", "_micros", "Family test histogram.");
        LAT.get(2).observe(9);
        assert_eq!(LAT.get(2).count(), 1);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new(true);
        r.counter("zzz_total", "Z.");
        r.counter("aaa_total", "A.");
        r.gauge("mid_gauge", "M.");
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "aaa_total");
        assert_eq!(snap.counters[1].0, "zzz_total");
        assert_eq!(snap.gauges[0].0, "mid_gauge");
    }
}
