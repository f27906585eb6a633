package obs

import (
	"bytes"
	"io"
	"sort"
	"strconv"

	"dsv3/internal/units"
)

// argKind selects the single optional argument a trace event carries.
type argKind uint8

const (
	argNone  argKind = iota
	argInst          // {"inst":N} — the instance a request phase runs on
	argReq           // {"req":N}  — the request a prefill slice computes
	argBatch         // {"batch":N} — the decode step's batch size
)

// pid 0 is the synthetic "requests" process; instance processes start
// at pidInstBase (prefill instances first, then decode).
const pidInstBase = 1

// traceEvent is one recorded event. Names are static strings and the
// optional argument is a plain int, so a warm recorder appends events
// with no per-event allocation; all JSON formatting happens at export.
type traceEvent struct {
	name string
	cat  string
	ph   byte // 'b'/'e' async span, 'n' async instant, 'X' slice, 'i' instant
	ts   units.Seconds
	dur  units.Seconds // 'X' only
	pid  int
	id   int // async event id ('b'/'e'/'n'): the request ID
	arg  int
	kind argKind
}

// reqTrack is the per-request accumulator behind the phase-breakdown
// table, indexed by the dense request ID.
type reqTrack struct {
	info      ReqInfo
	seen      bool
	open      Phase
	openSet   bool
	openStart units.Seconds
	arrival   units.Seconds
	done      units.Seconds
	resolved  bool
	outcome   Mark // MarkComplete, MarkFailed or MarkShed once resolved
	retries   int
	preempts  int
	phases    [NumPhases]units.Seconds
}

// TraceRecorder observes one serving-simulation run: it records the run
// as Chrome trace_event JSON (WriteJSON) and accumulates per-request
// phase durations (Breakdowns, PhaseTable). The engine calls its hooks
// single-threaded in simulated-time order; every timestamp is
// simulated seconds. The recorder reuses its buffers across runs —
// BeginRun resets it, so one recorder follows one engine across pooled
// runs — and records only simulated time, never wall clocks or global
// RNGs, so its output is a pure function of the traced run.
type TraceRecorder struct {
	run    RunInfo
	begun  bool
	endAt  units.Seconds
	events []traceEvent
	reqs   []reqTrack
}

// NewTraceRecorder returns an empty recorder; buffers grow to the
// largest run it traces.
func NewTraceRecorder() *TraceRecorder { return &TraceRecorder{} }

// BeginRun starts (and resets to) a new run over the given fleet.
func (r *TraceRecorder) BeginRun(run RunInfo) {
	r.run = run
	r.begun = true
	r.endAt = 0
	r.events = r.events[:0]
	for i := range r.reqs {
		r.reqs[i] = reqTrack{}
	}
	r.reqs = r.reqs[:0]
}

// track returns the request's accumulator, growing the arena to cover
// its dense ID.
func (r *TraceRecorder) track(req ReqInfo) *reqTrack {
	for len(r.reqs) <= req.ID {
		r.reqs = append(r.reqs, reqTrack{})
	}
	t := &r.reqs[req.ID]
	if !t.seen {
		t.seen = true
		t.info = req
	}
	return t
}

// instPid maps an instance to its trace process ID.
func (r *TraceRecorder) instPid(prefill bool, inst int) int {
	if prefill {
		return pidInstBase + inst
	}
	return pidInstBase + r.run.Prefill + inst
}

// PhaseBegin opens a phase for the request at time t. inst is the
// instance the phase runs on, -1 when not instance-bound (the shared
// arrival queue, retry backoff). At most one phase is open per
// request; the engine closes the previous phase at the same instant it
// opens the next.
func (r *TraceRecorder) PhaseBegin(t units.Seconds, req ReqInfo, ph Phase, inst int) {
	tr := r.track(req)
	if tr.openSet {
		// Defensive: the engine always closes the previous phase first.
		r.PhaseEnd(t, req.ID)
	}
	tr.open = ph
	tr.openSet = true
	tr.openStart = t
	ev := traceEvent{name: ph.String(), cat: "req", ph: 'b', ts: t, id: req.ID}
	if inst >= 0 {
		ev.arg = inst
		ev.kind = argInst
	}
	r.events = append(r.events, ev)
}

// PhaseEnd closes the request's open phase at time t; it is a no-op if
// no phase is open.
func (r *TraceRecorder) PhaseEnd(t units.Seconds, reqID int) {
	if reqID < 0 || reqID >= len(r.reqs) {
		return
	}
	tr := &r.reqs[reqID]
	if !tr.openSet {
		return
	}
	tr.phases[tr.open] += t - tr.openStart
	r.events = append(r.events, traceEvent{name: tr.open.String(), cat: "req", ph: 'e', ts: t, id: reqID})
	tr.openSet = false
}

// Mark records an instantaneous request event.
func (r *TraceRecorder) Mark(t units.Seconds, req ReqInfo, m Mark) {
	tr := r.track(req)
	switch m {
	case MarkArrival:
		tr.arrival = t
	case MarkShed:
		tr.arrival = t
		tr.done = t
		tr.resolved = true
		tr.outcome = MarkShed
	case MarkComplete, MarkFailed:
		tr.done = t
		tr.resolved = true
		tr.outcome = m
	case MarkRetry:
		tr.retries++
	case MarkPreempt, MarkOffload:
		tr.preempts++
	}
	r.events = append(r.events, traceEvent{name: m.String(), cat: "mark", ph: 'n', ts: t, id: req.ID})
}

// Compute records one compute slice [start, start+dur) on an
// instance. v is the request ID for ComputePrefill and the batch size
// for ComputeDecodeStep. Slices are recorded when scheduled, so start
// equals the current simulated time and the end lies in the future.
func (r *TraceRecorder) Compute(start, dur units.Seconds, prefill bool, inst int, kind ComputeKind, v int) {
	ev := traceEvent{name: kind.String(), ph: 'X', ts: start, dur: dur, pid: r.instPid(prefill, inst), arg: v}
	if kind == ComputeDecodeStep {
		ev.kind = argBatch
	} else {
		ev.kind = argReq
	}
	r.events = append(r.events, ev)
}

// Incident records an instance health transition ("crash", "recover",
// "drain", ...).
func (r *TraceRecorder) Incident(t units.Seconds, prefill bool, inst int, kind string) {
	r.events = append(r.events, traceEvent{name: kind, ph: 'i', ts: t, pid: r.instPid(prefill, inst)})
}

// EndRun closes the run at the final simulated time.
func (r *TraceRecorder) EndRun(t units.Seconds) { r.endAt = t }

// Events returns the number of recorded events.
func (r *TraceRecorder) Events() int { return len(r.events) }

// EventCount is one (kind, name) tally of a trace.
type EventCount struct {
	// Kind groups the trace-event type: "span" (request phases),
	// "mark" (request instants), "compute" (instance slices), or
	// "incident" (instance health transitions).
	Kind string
	Name string
	N    int
}

// EventCounts tallies the recorded events by kind and name, sorted by
// (kind, name) — a deterministic one-table summary of a trace.
func (r *TraceRecorder) EventCounts() []EventCount {
	kind := func(ev *traceEvent) string {
		switch ev.ph {
		case 'b':
			return "span"
		case 'n':
			return "mark"
		case 'X':
			return "compute"
		case 'i':
			return "incident"
		}
		return ""
	}
	counts := map[[2]string]int{}
	for i := range r.events {
		k := kind(&r.events[i])
		if k == "" {
			continue // 'e' ends pair with the counted 'b'
		}
		counts[[2]string{k, r.events[i].name}]++
	}
	out := make([]EventCount, 0, len(counts))
	for key, n := range counts {
		out = append(out, EventCount{Kind: key[0], Name: key[1], N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// usec appends a simulated-seconds timestamp as microseconds with
// fixed millinanosecond precision — the trace_event time unit,
// formatted identically on every platform.
func usec(b []byte, t units.Seconds) []byte {
	return strconv.AppendFloat(b, t*1e6, 'f', 3, 64)
}

// WriteJSON exports the recorded run as Chrome trace_event JSON. Load
// the file at ui.perfetto.dev (or chrome://tracing): requests render
// as async span tracks under the "requests" process, each instance is
// its own process with compute slices and incident instants. The
// output is byte-identical for identical runs.
func (r *TraceRecorder) WriteJSON(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	writeMeta := func(pid int, name string, first bool) {
		if !first {
			buf.WriteString(",\n")
		}
		buf.WriteString("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
		buf.Write(strconv.AppendInt(nil, int64(pid), 10))
		buf.WriteString(",\"tid\":0,\"args\":{\"name\":\"")
		buf.WriteString(name)
		buf.WriteString("\"}}")
	}
	writeMeta(0, "requests", true)
	scratch := make([]byte, 0, 32)
	for i := 0; i < r.run.Prefill; i++ {
		scratch = append(scratch[:0], "prefill-"...)
		writeMeta(pidInstBase+i, string(strconv.AppendInt(scratch, int64(i), 10)), false)
	}
	decodeName := "decode-"
	if r.run.Colocated {
		decodeName = "instance-"
	}
	for i := 0; i < r.run.Decode; i++ {
		scratch = append(scratch[:0], decodeName...)
		writeMeta(pidInstBase+r.run.Prefill+i, string(strconv.AppendInt(scratch, int64(i), 10)), false)
	}
	line := make([]byte, 0, 160)
	for i := range r.events {
		ev := &r.events[i]
		line = append(line[:0], ",\n{\"name\":\""...)
		line = append(line, ev.name...)
		line = append(line, '"')
		if ev.cat != "" {
			line = append(line, ",\"cat\":\""...)
			line = append(line, ev.cat...)
			line = append(line, '"')
		}
		line = append(line, ",\"ph\":\""...)
		line = append(line, ev.ph)
		line = append(line, '"')
		if ev.ph == 'i' {
			// Process-scoped instant: renders across the instance track.
			line = append(line, ",\"s\":\"p\""...)
		}
		if ev.ph == 'b' || ev.ph == 'e' || ev.ph == 'n' {
			line = append(line, ",\"id\":"...)
			line = strconv.AppendInt(line, int64(ev.id), 10)
		}
		line = append(line, ",\"pid\":"...)
		line = strconv.AppendInt(line, int64(ev.pid), 10)
		line = append(line, ",\"tid\":0,\"ts\":"...)
		line = usec(line, ev.ts)
		if ev.ph == 'X' {
			line = append(line, ",\"dur\":"...)
			line = usec(line, ev.dur)
		}
		switch ev.kind {
		case argInst:
			line = append(line, ",\"args\":{\"inst\":"...)
		case argReq:
			line = append(line, ",\"args\":{\"req\":"...)
		case argBatch:
			line = append(line, ",\"args\":{\"batch\":"...)
		}
		if ev.kind != argNone {
			line = strconv.AppendInt(line, int64(ev.arg), 10)
			line = append(line, '}')
		}
		line = append(line, '}')
		buf.Write(line)
	}
	buf.WriteString("\n]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
