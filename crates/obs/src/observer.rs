//! The search's one observer.
//!
//! The engine — the NDFS, `succP`, the verifier's unit and core loops
//! and the drivers above them — is generic over one [`Observer`], which
//! sees two streams: [`TraceEvent`]s at the search's decision points,
//! and the span frames of the profiler's call tree. Each stream sits
//! behind its own `const` flag and every emission site is guarded by
//! `if O::EVENTS` or `if O::SPANS`, so with both flags off the guards
//! fold away: the unit type `()`, the quiet observer, monomorphizes to
//! a search with no observation code in it. The flags are separate so
//! that a tracer does not pay for span bookkeeping (nor switch on the
//! query engine's per-query costs) and a profiler builds no events.
//!
//! Observers compose: a pair `(A, B)` hands each stream to the sides
//! that take it (a JSONL stream and a flight recorder, or a tracer and
//! a span profiler), and `&mut O` observes as `O` does.

use crate::trace::TraceEvent;

/// A sink for the search's events and span frames. Every method is a
/// no-op by default; an implementation overrides the ones its flags
/// switch on.
pub trait Observer {
    /// Takes [`TraceEvent`]s. When `false`, event sites — event
    /// construction included — compile out.
    const EVENTS: bool = false;
    /// Takes span frames. When `false`, span sites compile out.
    const SPANS: bool = false;

    /// Receive one event. Called only when [`Observer::EVENTS`].
    fn event(&mut self, _event: TraceEvent) {}

    /// Open a frame under the currently open frame (or the root).
    /// Frames with the same `(label, index)` under the same parent
    /// aggregate into one node. Called only when [`Observer::SPANS`].
    fn enter(&mut self, _label: &'static str, _index: u64) {}

    /// Close the innermost open frame, folding its wall time into the
    /// node. Pairs with [`Observer::enter`].
    fn exit(&mut self) {}

    /// Attach `ns` over `calls` calls to a childless frame under the
    /// currently open frame: a duration the caller already measured.
    fn leaf_ns(&mut self, _label: &'static str, _index: u64, _calls: u64, _ns: u64) {}

    /// Run `f` inside a `label:index` frame; a plain call when spans
    /// are off. The frame closes on every path out of `f`.
    #[inline(always)]
    fn framed<R>(&mut self, label: &'static str, index: u64, f: impl FnOnce(&mut Self) -> R) -> R
    where
        Self: Sized,
    {
        if Self::SPANS {
            self.enter(label, index);
        }
        let out = f(self);
        if Self::SPANS {
            self.exit();
        }
        out
    }
}

/// The quiet observer: no events, no frames, no code.
impl Observer for () {}

impl<A: Observer, B: Observer> Observer for (A, B) {
    const EVENTS: bool = A::EVENTS || B::EVENTS;
    const SPANS: bool = A::SPANS || B::SPANS;

    fn event(&mut self, event: TraceEvent) {
        if A::EVENTS {
            self.0.event(event);
        }
        if B::EVENTS {
            self.1.event(event);
        }
    }

    fn enter(&mut self, label: &'static str, index: u64) {
        if A::SPANS {
            self.0.enter(label, index);
        }
        if B::SPANS {
            self.1.enter(label, index);
        }
    }

    fn exit(&mut self) {
        if A::SPANS {
            self.0.exit();
        }
        if B::SPANS {
            self.1.exit();
        }
    }

    fn leaf_ns(&mut self, label: &'static str, index: u64, calls: u64, ns: u64) {
        if A::SPANS {
            self.0.leaf_ns(label, index, calls, ns);
        }
        if B::SPANS {
            self.1.leaf_ns(label, index, calls, ns);
        }
    }
}

impl<O: Observer> Observer for &mut O {
    const EVENTS: bool = O::EVENTS;
    const SPANS: bool = O::SPANS;

    fn event(&mut self, event: TraceEvent) {
        (**self).event(event);
    }

    fn enter(&mut self, label: &'static str, index: u64) {
        (**self).enter(label, index);
    }

    fn exit(&mut self) {
        (**self).exit();
    }

    fn leaf_ns(&mut self, label: &'static str, index: u64, calls: u64, ns: u64) {
        (**self).leaf_ns(label, index, calls, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, SpanProfiler, NO_INDEX};

    #[test]
    fn flags_compose() {
        const { assert!(!<()>::EVENTS && !<()>::SPANS) };
        const { assert!(FlightRecorder::EVENTS && !FlightRecorder::SPANS) };
        const { assert!(!SpanProfiler::EVENTS && SpanProfiler::SPANS) };
        const { assert!(<((), FlightRecorder)>::EVENTS) };
        const { assert!(!<((), ())>::EVENTS && !<((), ())>::SPANS) };
        const { assert!(<(FlightRecorder, &'static mut SpanProfiler)>::SPANS) };
    }

    #[test]
    fn pairs_hand_each_stream_to_the_sides_that_take_it() {
        let mut pair = (FlightRecorder::new(4), FlightRecorder::new(4));
        pair.event(TraceEvent::Budget { reason: "time", spent: 0, limit: 0 });
        assert_eq!((pair.0.total(), pair.1.total()), (1, 1));

        let (mut recorder, mut profiler) = (FlightRecorder::new(4), SpanProfiler::new());
        let mut both = (&mut recorder, &mut profiler);
        both.framed("unit", 0, |o| {
            o.event(TraceEvent::Core { unit: 0, core: 0 });
            o.leaf_ns("visit", NO_INDEX, 1, 5);
        });
        assert_eq!(recorder.total(), 1);
        assert_eq!(profiler.total_ns_of("visit", NO_INDEX), 5);
        assert_eq!(profiler.open_depth(), 0, "framed closes its frame");
    }
}
