//! In-memory spans for the traced run.
//!
//! Each span covers one call the benchmark makes into a layer: its name,
//! start and end, the span that was open when it began (its parent), the
//! serve request it belongs to, the input it measured and the bytes that
//! input holds. Spans stay in memory and are written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus the
//! durations of its child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: Option<u64>,
    /// Which input of the probe the span measured (spans with equal keys
    /// are repeats of one measurement).
    pub key: u32,
    pub bytes: u64,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    idx: Option<u32>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now();
            self.tracer.spans.borrow_mut()[idx as usize].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str, key: u32, bytes: u64) -> Guard<'_> {
        self.span_req(name, key, bytes, None)
    }

    /// Opens a span that belongs to serve request `request`.
    pub fn span_req(
        &self,
        name: &'static str,
        key: u32,
        bytes: u64,
        request: Option<u64>,
    ) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                idx: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        // A child of a request span inherits its request id.
        let request =
            request.or_else(|| parent.and_then(|p| self.spans.borrow()[p as usize].request));
        let mut spans = self.spans.borrow_mut();
        let idx = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            key,
            bytes,
        });
        self.open.borrow_mut().push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Self time of every span, by span index.
    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per key, the self times of the spans called `name`, plus the
    /// key's byte count.
    pub fn self_times(&self, name: &str) -> BTreeMap<u32, (u64, Vec<u64>)> {
        let own = self.self_ns();
        let mut out: BTreeMap<u32, (u64, Vec<u64>)> = BTreeMap::new();
        for (s, &ns) in self.spans.borrow().iter().zip(&own) {
            if s.name == name {
                let e = out.entry(s.key).or_insert((s.bytes, Vec::new()));
                e.1.push(ns);
            }
        }
        out
    }

    /// Summed fastest-twentieth self time of `name` over its keys, in ns.
    pub fn best_ns(&self, name: &str) -> f64 {
        self.self_times(name)
            .values()
            .map(|(_, ns)| crate::stats::fastest_twentieth(ns))
            .sum()
    }

    /// Bytes over fastest-twentieth self time of `name`, in GiB/s (0 when no
    /// such span was recorded).
    pub fn gibps(&self, name: &str) -> f64 {
        let (mut bytes, mut ns) = (0f64, 0f64);
        for (b, times) in self.self_times(name).values() {
            bytes += *b as f64;
            ns += crate::stats::fastest_twentieth(times);
        }
        if ns > 0.0 {
            bytes / ns * 1e9 / (1u64 << 30) as f64
        } else {
            0.0
        }
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.borrow().iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {request}, \"key\": {}, \"bytes\": {}}}",
                s.name, s.start_ns, s.end_ns, s.key, s.bytes
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_requests_propagate() {
        let t = Tracer::new(true);
        {
            let _outer = t.span_req("outer", 0, 10, Some(7));
            let _inner = t.span("inner", 0, 10);
            std::hint::black_box((0..10_000u64).sum::<u64>());
        }
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        drop(spans);
        let outer = t.self_times("outer")[&0].1[0];
        let inner = t.self_times("inner")[&0].1[0];
        let total = {
            let s = &t.spans.borrow()[0];
            s.end_ns - s.start_ns
        };
        assert_eq!(outer + inner, total);
        assert!(Tracer::new(false).span("x", 0, 0).idx.is_none());
    }
}
