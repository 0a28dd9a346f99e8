//! Trace events, the sink trait, and the shareable sink handle.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Maximum number of key/value arguments one event carries (fixed-size so
/// [`TraceEvent`] stays `Copy` and emission never allocates).
pub const MAX_ARGS: usize = 4;

/// Track (Chrome `tid`) used for engine-level events (checkpoints,
/// recoveries, fault injections). Core-local events use the core index as
/// their track, so engine tracks start well above any plausible core count.
pub const TRACK_ENGINE: u32 = 1000;

/// Track (Chrome `tid`) used for memory-system events (flushes, coherence).
pub const TRACK_MEM: u32 = 1001;

/// What shape an event has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: `[cycle, cycle + dur]` (Chrome `ph:"X"`).
    Span,
    /// A point in time (Chrome `ph:"i"`; `dur` is ignored).
    Instant,
    /// A counter sample (Chrome/Perfetto `ph:"C"`): each argument renders
    /// as one series on the event's counter track; `dur` is ignored.
    Counter,
}

/// One cycle-stamped event. Names and categories are `'static` string
/// literals from the emission sites and argument values are plain `u64`,
/// so recording an event allocates nothing and the event is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or instant.
    pub kind: EventKind,
    /// Event name (Chrome `name`), e.g. `"ckpt"` or `"recovery.replay"`.
    pub name: &'static str,
    /// Category (Chrome `cat`), e.g. `"ckpt"`, `"recovery"`, `"mem"`.
    pub cat: &'static str,
    /// Track the event renders on (Chrome `tid`): a core index or one of
    /// [`TRACK_ENGINE`] / [`TRACK_MEM`].
    pub track: u32,
    /// Start time in simulated core cycles (Chrome `ts`).
    pub cycle: u64,
    /// Duration in simulated core cycles (spans only).
    pub dur: u64,
    /// Up to [`MAX_ARGS`] key/value arguments; `None` slots are unused.
    pub args: [Option<(&'static str, u64)>; MAX_ARGS],
}

impl TraceEvent {
    /// A span covering `[cycle, cycle + dur]` on `track`.
    pub fn span(name: &'static str, cat: &'static str, track: u32, cycle: u64, dur: u64) -> Self {
        TraceEvent {
            kind: EventKind::Span,
            name,
            cat,
            track,
            cycle,
            dur,
            args: [None; MAX_ARGS],
        }
    }

    /// An instant at `cycle` on `track`.
    pub fn instant(name: &'static str, cat: &'static str, track: u32, cycle: u64) -> Self {
        TraceEvent {
            kind: EventKind::Instant,
            name,
            cat,
            track,
            cycle,
            dur: 0,
            args: [None; MAX_ARGS],
        }
    }

    /// A counter sample at `cycle` on `track`; attach up to [`MAX_ARGS`]
    /// series with [`TraceEvent::with_arg`]. Renders as a Perfetto/Chrome
    /// counter track (`ph:"C"`).
    pub fn counter(name: &'static str, cat: &'static str, track: u32, cycle: u64) -> Self {
        TraceEvent {
            kind: EventKind::Counter,
            name,
            cat,
            track,
            cycle,
            dur: 0,
            args: [None; MAX_ARGS],
        }
    }

    /// Attaches an argument in the first free slot (silently dropped when
    /// all [`MAX_ARGS`] slots are taken — arguments are best-effort
    /// annotations, never load-bearing data).
    pub fn with_arg(mut self, key: &'static str, value: u64) -> Self {
        if let Some(slot) = self.args.iter_mut().find(|a| a.is_none()) {
            *slot = Some((key, value));
        }
        self
    }
}

/// Where emitted events go. Implementations must be deterministic: event
/// order is emission order and carries meaning for the exporters.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);
}

/// A sink that buffers every event in memory, in emission order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorded events in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the recorded events, leaving the sink empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// A cheaply clonable handle to one shared sink, threaded through the
/// simulator, memory system and checkpoint engine so they all emit into
/// the same event stream. The default handle is *disabled*: `emit` is a
/// no-op and `enabled()` is `false`, which emission sites use to skip any
/// per-event work entirely.
///
/// The simulation is single-threaded, so the handle is `Rc<RefCell<…>>`,
/// not a lock.
#[derive(Clone, Default)]
pub struct SharedSink {
    inner: Option<Rc<RefCell<dyn TraceSink>>>,
    detail: bool,
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedSink")
            .field("enabled", &self.enabled())
            .field("detail", &self.detail)
            .finish()
    }
}

impl SharedSink {
    /// The disabled handle: records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle over a fresh [`MemorySink`], plus the owning reference the
    /// caller keeps to read the events back after the run.
    pub fn memory() -> (Self, Rc<RefCell<MemorySink>>) {
        let sink = Rc::new(RefCell::new(MemorySink::new()));
        let dynamic: Rc<RefCell<dyn TraceSink>> = sink.clone();
        (
            SharedSink {
                inner: Some(dynamic),
                detail: false,
            },
            sink,
        )
    }

    /// A handle over an arbitrary sink implementation.
    pub fn from_sink(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        SharedSink {
            inner: Some(sink),
            detail: false,
        }
    }

    /// True when events are being recorded. Emission sites check this
    /// before constructing events, keeping the disabled path to one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when *high-volume* detail events (per-store, per-assoc,
    /// per-coherence-transfer instants) should be emitted too. Off by
    /// default even on an enabled sink — real workloads retire millions of
    /// stores and the low-volume spans plus counter samples already tell
    /// the timeline story.
    #[inline]
    pub fn detail(&self) -> bool {
        self.detail
    }

    /// Enables or disables high-volume detail events (chainable).
    pub fn with_detail(mut self, on: bool) -> Self {
        self.detail = on;
        self
    }

    /// Records `ev` if the handle is enabled.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(s) = &self.inner {
            s.borrow_mut().record(&ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = SharedSink::disabled();
        assert!(!s.enabled());
        s.emit(TraceEvent::instant("x", "t", 0, 1)); // no-op, no panic
    }

    #[test]
    fn memory_sink_records_in_order() {
        let (s, h) = SharedSink::memory();
        assert!(s.enabled());
        assert!(!s.detail());
        s.emit(TraceEvent::span("a", "t", 0, 10, 5).with_arg("k", 1));
        s.emit(TraceEvent::instant("b", "t", 1, 12));
        let sink = h.borrow();
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0].name, "a");
        assert_eq!(sink.events()[0].args[0], Some(("k", 1)));
        assert_eq!((sink.events()[0].cycle, sink.events()[0].dur), (10, 5));
        assert_eq!(sink.events()[1].kind, EventKind::Instant);
    }

    #[test]
    fn clones_share_one_stream() {
        let (s, h) = SharedSink::memory();
        let s2 = s.clone();
        s.emit(TraceEvent::instant("a", "t", 0, 1));
        s2.emit(TraceEvent::instant("b", "t", 0, 2));
        assert_eq!(h.borrow().len(), 2);
    }

    #[test]
    fn args_overflow_is_dropped() {
        let mut ev = TraceEvent::span("a", "t", 0, 0, 1);
        for i in 0..(MAX_ARGS as u64 + 2) {
            ev = ev.with_arg("k", i);
        }
        assert_eq!(ev.args.len(), MAX_ARGS);
        assert_eq!(ev.args[MAX_ARGS - 1], Some(("k", MAX_ARGS as u64 - 1)));
    }
}
