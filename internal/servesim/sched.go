package servesim

import "dsv3/internal/units"

// Event kinds, processed in (time, seq) order.
type eventKind int

const (
	evArrival eventKind = iota
	evPrefillDone
	evDecodeLand
	evStepDone
	// evFaultPlanned applies Config.Faults.Events[inst]; evFaultRandom
	// fires one MTBF-drawn crash and re-arms itself; evFaultRecover
	// repairs an MTBF-crashed instance after its MTTR dwell (inst >= 0
	// is a decode index, inst < 0 encodes prefill index -(inst+1)).
	evFaultPlanned
	evFaultRandom
	evFaultRecover
	// evRetry re-enters an orphaned request into prefill dispatch after
	// its backoff.
	evRetry
	// evReloadDone lands an offloaded request's KV back in HBM: the
	// request joins its instance's batch (tiered hierarchy only).
	evReloadDone
	// evHazard applies Config.Resilience.Hazards.Planes[inst]; evHedge
	// fires a request's hedge timer (hazard.go).
	evHazard
	evHedge
)

type event struct {
	at   units.Seconds
	seq  int
	kind eventKind
	inst int // prefill instance (evPrefillDone), decode instance (evDecodeLand, evStepDone)
	// epoch pins evPrefillDone/evStepDone to the owning instance's
	// incarnation: a crash bumps the instance epoch, so events the dead
	// incarnation scheduled are recognized as stale and dropped.
	epoch int
	req   *reqState
}

// eventHeap is a slice-backed binary min-heap of event values ordered
// by (at, seq): no interface boxing on push, no type assertion on pop,
// no per-event allocation. seq is unique, so the order is strict and
// total — the pop sequence (and therefore the whole simulation) is
// identical to any other heap implementation over the same comparator.
type eventHeap []event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the req pointer so the arena can be collected
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(&s[l], &s[smallest]) {
			smallest = l
		}
		if r < n && eventLess(&s[r], &s[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

func (h *eventHeap) reset() {
	clear(*h)
	*h = (*h)[:0]
}

// nextEvent returns the next event in (time, seq) order, merging the
// arrival cursor over the request arena with the heap of everything
// else. The arena is sorted by arrival, and arrival i owns seq i+1:
// Run numbers every other event after the last arrival, so an arrival
// wins each tie against a queued event. Keeping arrivals out of the
// heap holds it at about one pending event per instance instead of one
// per request. ok is false once both sources are exhausted.
func (e *Engine) nextEvent() (ev event, ok bool) {
	if i := e.arrivals; i < len(e.arena) && (len(e.events) == 0 || e.arena[i].Arrival <= e.events[0].at) {
		e.arrivals++
		req := &e.arena[i]
		return event{at: req.Arrival, seq: i + 1, kind: evArrival, req: req}, true
	}
	if len(e.events) == 0 {
		return event{}, false
	}
	return e.events.pop(), true
}

func (e *Engine) schedule(at units.Seconds, kind eventKind, inst int, req *reqState) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: kind, inst: inst, req: req})
}

// scheduleEpoch is schedule for events that must die with the target
// instance's current incarnation (evStepDone, evPrefillDone).
func (e *Engine) scheduleEpoch(at units.Seconds, kind eventKind, inst, epoch int, req *reqState) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: kind, inst: inst, epoch: epoch, req: req})
}
