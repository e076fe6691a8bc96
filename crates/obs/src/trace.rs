//! Structured search tracing.
//!
//! The NDFS engine emits [`TraceEvent`]s at its key decision points —
//! interning, `succP` expansion, Büchi-product transitions, phase
//! changes, accepting cycles, budget exhaustion — to the
//! [`Observer`] it is *generic* over. Every emission site is guarded by
//! `if O::EVENTS`, so under the quiet observer `()` the untraced search
//! monomorphizes to exactly the code it had before tracing existed
//! (verified by the byte-identical verdict/stats test in the workspace
//! integration suite).
//!
//! ## JSONL schema (version [`TRACE_SCHEMA_VERSION`])
//!
//! [`JsonlTracer`] streams one JSON object per line:
//!
//! ```text
//! {"v":1,"ev":"<type>",<payload fields in fixed order>,"t_ns":<u64>}
//! ```
//!
//! * `v` — schema version, always first. Consumers must reject lines
//!   whose major version they do not know.
//! * `ev` — event type tag, always second.
//! * payload — the event's fields, in the order documented on each
//!   [`TraceEvent`] variant. New fields may be *appended* within a
//!   version, and new event *types* (with fresh `ev` tags) may be added
//!   — consumers switch on `ev` and must skip tags they do not know;
//!   renaming, reordering or removing a field requires a version bump
//!   (the golden-schema CI test pins this).
//! * `t_ns` — nanoseconds since the tracer was created, always last.
//!   Timing values (`t_ns`, `dur_ns`) vary run to run; everything else
//!   is deterministic for a deterministic search.
//!
//! [`FlightRecorder`] keeps the last N events in a ring buffer instead
//! of streaming them — cheap enough to leave on for long searches, and
//! dumped on timeout/budget-exhaustion/panic for postmortems.

use crate::Observer;
use std::io::{self, Write};
use std::time::Instant;

/// Version of the JSONL trace schema. Bumped on any incompatible field
/// change; see the module docs for the compatibility rule.
///
/// * **v1** — intern / options / expand / transition / phase / core /
///   cycle / budget (/ spill, added late in v1 without a golden pin).
/// * **v2** — adds the query-engine and out-of-core event kinds:
///   `memo` (per-core hit/miss/evict deltas) and `compact` (cold-tier
///   merge compactions, split out of the aggregate `spill` event). v1
///   lines decode as a strict subset — consumers that accept v2 must
///   accept v1. Early v2 writers also emitted `join_build` (per-core
///   hash-join builds); the hash join is gone, no writer emits it now,
///   and readers skip it like any unknown tag.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// One structured search event. All payloads are plain integers (plus
/// `&'static str` reasons), so events are `Copy` and cost nothing to
/// construct when tracing is disabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A configuration was interned into the state store.
    /// Fields: `hit` (already present in the arena).
    Intern { hit: bool },
    /// One Heuristic-2 extension was expanded inside `succP`: how many
    /// input options the page offered and how many input-choice
    /// combinations (= successor configurations) they generate.
    /// Fields: `page`, `options`, `choices`.
    Options { page: u32, options: u32, choices: u64 },
    /// One `succP` call completed.
    /// Fields: `depth` (pseudorun length at the expanded node), `succs`
    /// (successor configurations generated), `dur_ns` (wall time).
    Expand { depth: u32, succs: u32, dur_ns: u64 },
    /// A Büchi-product transition was followed.
    /// Fields: `from`, `to` (automaton states), `assign` (the truth
    /// assignment bitmask of the FO components that enabled it).
    Transition { from: u32, to: u32, assign: u64 },
    /// The NDFS changed phase: `candy = false` starts an outer (stick)
    /// search, `candy = true` launches the nested cycle search.
    /// Fields: `candy`, `depth`.
    Phase { candy: bool, depth: u32 },
    /// One database core's search began.
    /// Fields: `unit` (`C_∃` assignment ordinal), `core` (bitmap
    /// counter within the unit's core universe).
    Core { unit: u32, core: u64 },
    /// An accepting lasso — a property-violating pseudorun — was found.
    /// Fields: `len` (total steps), `cycle_start`.
    Cycle { len: u32, cycle_start: u32 },
    /// The search stopped early.
    /// Fields: `reason` (`"steps"`, `"time"`, or `"cancelled"`),
    /// `spent` (configurations this search had generated when it gave
    /// up), `limit` (the configured global step budget; `0` when no step
    /// budget was set).
    Budget { reason: &'static str, spent: u64, limit: u64 },
    /// The tiered state store spilled visited pairs to disk during one
    /// core's search (emitted per core, aggregated — not per segment
    /// write; absent under in-memory backends).
    /// Fields: `unit`, `core`, `pairs` (spilled this core), `segments`
    /// (segments written), `compactions` (merges run).
    Spill { unit: u32, core: u64, pairs: u64, segments: u64, compactions: u64 },
    /// Query-memo activity during one core's search (emitted per core,
    /// aggregated). `evictions` counts inserts dropped at the memo's
    /// capacity cap (the memo never evicts resident entries).
    /// Fields: `unit`, `core`, `hits`, `misses`, `evictions`.
    Memo { unit: u32, core: u64, hits: u64, misses: u64, evictions: u64 },
    /// Cold-tier merge compactions run during one core's search
    /// (emitted per core, aggregated; absent under in-memory backends).
    /// Fields: `unit`, `core`, `compactions`, `segments` (cold segments
    /// after the last compaction's rewrite).
    Compact { unit: u32, core: u64, compactions: u64, segments: u64 },
}

impl TraceEvent {
    /// The `ev` tag of the JSONL encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Intern { .. } => "intern",
            TraceEvent::Options { .. } => "options",
            TraceEvent::Expand { .. } => "expand",
            TraceEvent::Transition { .. } => "transition",
            TraceEvent::Phase { .. } => "phase",
            TraceEvent::Core { .. } => "core",
            TraceEvent::Cycle { .. } => "cycle",
            TraceEvent::Budget { .. } => "budget",
            TraceEvent::Spill { .. } => "spill",
            TraceEvent::Memo { .. } => "memo",
            TraceEvent::Compact { .. } => "compact",
        }
    }

    /// Render the schema-versioned JSONL line (no trailing newline).
    /// Field order is part of the schema; see the module docs.
    pub fn to_jsonl(&self, t_ns: u64) -> String {
        let mut s = format!("{{\"v\":{},\"ev\":\"{}\"", TRACE_SCHEMA_VERSION, self.tag());
        match *self {
            TraceEvent::Intern { hit } => {
                s.push_str(&format!(",\"hit\":{hit}"));
            }
            TraceEvent::Options { page, options, choices } => {
                s.push_str(&format!(
                    ",\"page\":{page},\"options\":{options},\"choices\":{choices}"
                ));
            }
            TraceEvent::Expand { depth, succs, dur_ns } => {
                s.push_str(&format!(",\"depth\":{depth},\"succs\":{succs},\"dur_ns\":{dur_ns}"));
            }
            TraceEvent::Transition { from, to, assign } => {
                s.push_str(&format!(",\"from\":{from},\"to\":{to},\"assign\":{assign}"));
            }
            TraceEvent::Phase { candy, depth } => {
                s.push_str(&format!(",\"candy\":{candy},\"depth\":{depth}"));
            }
            TraceEvent::Core { unit, core } => {
                s.push_str(&format!(",\"unit\":{unit},\"core\":{core}"));
            }
            TraceEvent::Cycle { len, cycle_start } => {
                s.push_str(&format!(",\"len\":{len},\"cycle_start\":{cycle_start}"));
            }
            TraceEvent::Budget { reason, spent, limit } => {
                s.push_str(&format!(
                    ",\"reason\":\"{reason}\",\"spent\":{spent},\"limit\":{limit}"
                ));
            }
            TraceEvent::Spill { unit, core, pairs, segments, compactions } => {
                s.push_str(&format!(
                    ",\"unit\":{unit},\"core\":{core},\"pairs\":{pairs},\"segments\":{segments},\"compactions\":{compactions}"
                ));
            }
            TraceEvent::Memo { unit, core, hits, misses, evictions } => {
                s.push_str(&format!(
                    ",\"unit\":{unit},\"core\":{core},\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions}"
                ));
            }
            TraceEvent::Compact { unit, core, compactions, segments } => {
                s.push_str(&format!(
                    ",\"unit\":{unit},\"core\":{core},\"compactions\":{compactions},\"segments\":{segments}"
                ));
            }
        }
        s.push_str(&format!(",\"t_ns\":{t_ns}}}"));
        s
    }
}

/// Streams events as schema-versioned JSONL to any [`Write`] sink.
/// Write errors are sticky: the first one is kept (see
/// [`JsonlTracer::take_error`]) and later events are dropped.
pub struct JsonlTracer<W: Write> {
    sink: W,
    start: Instant,
    error: Option<io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    pub fn new(sink: W) -> JsonlTracer<W> {
        JsonlTracer { sink, start: Instant::now(), error: None }
    }

    /// Flush the sink and surface the first write error, if any.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink.flush()
    }

    /// The first write error, if one occurred.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Recover the sink (e.g. a `Vec<u8>` buffer in tests).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

impl<W: Write> Observer for JsonlTracer<W> {
    const EVENTS: bool = true;

    fn event(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event.to_jsonl(self.start.elapsed().as_nanos() as u64);
        if let Err(e) =
            self.sink.write_all(line.as_bytes()).and_then(|()| self.sink.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

/// A bounded ring buffer keeping the most recent events — the flight
/// recorder. Left running alongside a search, it costs one copy per
/// event and holds at most `capacity` of them; on timeout, budget
/// exhaustion or panic the tail is dumped for a postmortem.
pub struct FlightRecorder {
    ring: Vec<(u64, TraceEvent)>,
    /// Next write position; the ring has wrapped when `total > len`.
    head: usize,
    /// Events ever seen (so the dump can say how many were dropped).
    total: u64,
    capacity: usize,
    start: Instant,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            head: 0,
            total: 0,
            capacity,
            start: Instant::now(),
        }
    }

    /// Events ever recorded (including ones the ring has dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained events, oldest first, with their `t_ns` stamps.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        if self.ring.len() < self.capacity {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
            out
        }
    }

    /// Render the tail as JSONL lines for a postmortem dump.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let dropped = self.total - self.events().len() as u64;
        if dropped > 0 {
            out.push_str(&format!("… {dropped} earlier events dropped by the ring …\n"));
        }
        for (t_ns, event) in self.events() {
            out.push_str(&event.to_jsonl(t_ns));
            out.push('\n');
        }
        out
    }
}

impl Observer for FlightRecorder {
    const EVENTS: bool = true;

    fn event(&mut self, event: TraceEvent) {
        let stamped = (self.start.elapsed().as_nanos() as u64, event);
        if self.ring.len() < self.capacity {
            self.ring.push(stamped);
        } else {
            self.ring[self.head] = stamped;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_versioned_and_ordered() {
        let ev = TraceEvent::Expand { depth: 3, succs: 7, dur_ns: 125 };
        assert_eq!(
            ev.to_jsonl(42),
            r#"{"v":2,"ev":"expand","depth":3,"succs":7,"dur_ns":125,"t_ns":42}"#
        );
        let ev = TraceEvent::Budget { reason: "steps", spent: 12, limit: 10 };
        assert_eq!(
            ev.to_jsonl(1),
            r#"{"v":2,"ev":"budget","reason":"steps","spent":12,"limit":10,"t_ns":1}"#
        );
        let ev = TraceEvent::Intern { hit: true };
        assert!(ev.to_jsonl(0).starts_with(r#"{"v":2,"ev":"intern","hit":true"#));
        let ev = TraceEvent::Spill { unit: 2, core: 5, pairs: 96, segments: 1, compactions: 0 };
        assert_eq!(
            ev.to_jsonl(9),
            r#"{"v":2,"ev":"spill","unit":2,"core":5,"pairs":96,"segments":1,"compactions":0,"t_ns":9}"#
        );
        let ev = TraceEvent::Memo { unit: 0, core: 3, hits: 40, misses: 8, evictions: 0 };
        assert_eq!(
            ev.to_jsonl(7),
            r#"{"v":2,"ev":"memo","unit":0,"core":3,"hits":40,"misses":8,"evictions":0,"t_ns":7}"#
        );
        let ev = TraceEvent::Compact { unit: 2, core: 9, compactions: 1, segments: 1 };
        assert_eq!(
            ev.to_jsonl(3),
            r#"{"v":2,"ev":"compact","unit":2,"core":9,"compactions":1,"segments":1,"t_ns":3}"#
        );
    }

    #[test]
    fn jsonl_tracer_streams_lines() {
        let mut buf = Vec::new();
        {
            let mut t = JsonlTracer::new(&mut buf);
            t.event(TraceEvent::Phase { candy: false, depth: 0 });
            t.event(TraceEvent::Cycle { len: 4, cycle_start: 1 });
            t.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"phase\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cycle_start\":1"), "{}", lines[1]);
    }

    #[test]
    fn ring_buffer_wraps_keeping_the_newest() {
        let mut rec = FlightRecorder::new(3);
        assert_eq!(rec.events(), vec![]);
        for depth in 0..5u32 {
            rec.event(TraceEvent::Phase { candy: false, depth });
        }
        assert_eq!(rec.total(), 5);
        let depths: Vec<u32> = rec
            .events()
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::Phase { depth, .. } => *depth,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(depths, vec![2, 3, 4], "oldest events evicted, order preserved");
        assert!(rec.dump().starts_with("… 2 earlier events dropped"), "{}", rec.dump());
    }

    #[test]
    fn ring_capacity_one_and_exact_fit() {
        let mut rec = FlightRecorder::new(0); // clamped to 1
        rec.event(TraceEvent::Intern { hit: false });
        rec.event(TraceEvent::Intern { hit: true });
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.events()[0].1, TraceEvent::Intern { hit: true });

        let mut rec = FlightRecorder::new(2);
        rec.event(TraceEvent::Intern { hit: false });
        rec.event(TraceEvent::Intern { hit: true });
        assert_eq!(rec.events().len(), 2, "exact fit does not wrap");
        assert_eq!(rec.total(), 2);
        assert!(!rec.dump().contains("dropped"));
    }
}
