// Package obs is the observability layer of the serving simulator: a
// zero-cost-when-disabled request-lifecycle trace recorder plus a
// time-series metrics registry, both deterministic by construction.
//
// The engine in internal/servesim drives everything through nil-checked
// hooks, so an engine with no tracer or registry attached executes the
// exact same instruction stream as before this package existed — the
// disabled path adds one nil check per hook site and zero allocations.
// When enabled, every event carries explicit simulated time (never wall
// clock), call order follows the engine's (time, seq)-ordered event
// loop, and the exporters format numbers with fixed strconv rules, so
// trace and metrics output is byte-identical across runs, worker
// counts, and pooled-vs-fresh engines.
//
// The two halves:
//
//   - TraceRecorder observes request lifecycle
//     transitions — queue wait, prefill, KV transfer, tier reload,
//     decode residency, retry backoff — plus instant marks (arrival,
//     shed, preemption, offload, crash-orphaning, retry, completion)
//     and per-instance compute slices and incidents. TraceRecorder
//     exports Chrome trace_event JSON (load it at ui.perfetto.dev) and
//     per-request phase breakdowns that tile the request's end-to-end
//     latency exactly.
//
//   - Registry samples counters and gauges (queue depth, running
//     batch, per-tier KV occupancy and traffic, healthy instances,
//     retry/shed totals) on a fixed simulated-time cadence and emits
//     them as a results.Table, CSV, or JSON.
package obs

// Phase is one exclusive state of a request's lifecycle. At any
// instant a live request is in at most one phase, phases change only
// at event times, and consecutive phases share their boundary instant,
// so per-phase durations sum exactly to the request's end-to-end
// latency (the reconciliation invariant the servesim tests pin).
type Phase uint8

const (
	// PhaseQueue covers both the shared arrival queue before prefill
	// dispatch and the per-instance landing queue before batch
	// admission.
	PhaseQueue Phase = iota
	// PhasePrefill is prefill compute residency (including recompute
	// re-prefills after a preemption or crash).
	PhasePrefill
	// PhaseTransfer is the prefill-to-decode KV migration.
	PhaseTransfer
	// PhaseReload is a below-HBM tier reload back into HBM.
	PhaseReload
	// PhaseDecode is decode batch residency.
	PhaseDecode
	// PhaseBackoff is the retry backoff dwell after crash orphaning.
	PhaseBackoff

	// NumPhases sizes per-phase accumulators.
	NumPhases = int(PhaseBackoff) + 1
)

// String returns the phase's trace-event name.
func (p Phase) String() string {
	switch p {
	case PhaseQueue:
		return "queue"
	case PhasePrefill:
		return "prefill"
	case PhaseTransfer:
		return "transfer"
	case PhaseReload:
		return "reload"
	case PhaseDecode:
		return "decode"
	case PhaseBackoff:
		return "backoff"
	}
	return "unknown"
}

// Mark is an instantaneous request event.
type Mark uint8

const (
	// MarkArrival is an admitted request entering the system.
	MarkArrival Mark = iota
	// MarkShed is an arrival rejected by the admission policy.
	MarkShed
	// MarkPreempt is a recompute preemption (KV discarded).
	MarkPreempt
	// MarkOffload is a preemption whose KV moved down-tier intact.
	MarkOffload
	// MarkOrphan is a request dropped by an instance crash or a dead
	// hand-off.
	MarkOrphan
	// MarkRetry is an orphaned request re-entering dispatch after
	// backoff.
	MarkRetry
	// MarkPrefixHit is a session prefix-cache hit at prefill dispatch.
	MarkPrefixHit
	// MarkComplete is a request finishing its last token.
	MarkComplete
	// MarkFailed is a request exhausting its retry budget.
	MarkFailed
	// MarkCorrupt is a completion tainted by undetected silent data
	// corruption.
	MarkCorrupt
	// MarkHedge is a speculative duplicate dispatched after the hedge
	// delay; MarkHedgeWin records the duplicate finishing first.
	MarkHedge
	MarkHedgeWin
)

// String returns the mark's trace-event name.
func (m Mark) String() string {
	switch m {
	case MarkArrival:
		return "arrival"
	case MarkShed:
		return "shed"
	case MarkPreempt:
		return "preempt"
	case MarkOffload:
		return "offload"
	case MarkOrphan:
		return "orphan"
	case MarkRetry:
		return "retry"
	case MarkPrefixHit:
		return "prefix-hit"
	case MarkComplete:
		return "complete"
	case MarkFailed:
		return "failed"
	case MarkCorrupt:
		return "corrupt"
	case MarkHedge:
		return "hedge"
	case MarkHedgeWin:
		return "hedge-win"
	}
	return "unknown"
}

// ComputeKind labels a per-instance compute slice.
type ComputeKind uint8

const (
	// ComputePrefill is one prefill's compute residency on an instance.
	ComputePrefill ComputeKind = iota
	// ComputeDecodeStep is one continuous-batching decode step.
	ComputeDecodeStep
)

// String returns the slice's trace-event name.
func (k ComputeKind) String() string {
	if k == ComputeDecodeStep {
		return "decode-step"
	}
	return "prefill"
}

// ReqInfo identifies a request to the tracer. IDs are dense (0..N-1 in
// arrival order), so implementations may index by ID.
type ReqInfo struct {
	ID           int
	Session      int // 0 for single-turn traffic
	PromptTokens int
	OutputTokens int
}

// RunInfo describes the fleet a run traces: the process layout of the
// exported trace.
type RunInfo struct {
	// Prefill and Decode are the instance counts; Prefill is 0 for a
	// colocated deployment (Decode then counts unified instances).
	Prefill   int
	Decode    int
	Colocated bool
}
