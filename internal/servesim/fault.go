package servesim

import (
	"fmt"
	"strconv"
	"strings"

	"dsv3/internal/units"
)

// FaultKind names one instance-level fault transition.
type FaultKind int

const (
	// FaultCrash kills an instance: its in-flight prefill/decode work is
	// orphaned, its KV pool is freed (the blast radius is reported in
	// tokens and affected requests), and it is excluded from routing
	// until a recover event.
	FaultCrash FaultKind = iota
	// FaultRecover returns a crashed or draining instance to service.
	FaultRecover
	// FaultDrain marks planned degradation: the instance finishes the
	// work it already holds but is excluded from new routing decisions.
	FaultDrain
)

// String implements fmt.Stringer with the CLI spellings.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRecover:
		return "recover"
	case FaultDrain:
		return "drain"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled fault: at time At, apply Kind to the
// Instance-th prefill (Prefill true) or decode/colocated instance.
type FaultEvent struct {
	At       units.Seconds
	Kind     FaultKind
	Prefill  bool
	Instance int
}

// FaultPlan drives deterministic failure injection: a fixed schedule of
// crash/recover/drain events plus optional MTBF-style random crashes.
// All randomness (crash times, instance picks, recovery delays) comes
// from a dedicated seed stream derived from Config.Seed, so a faulted
// run is as reproducible as a clean one and the workload, MTP and
// routing streams are untouched by the plan.
type FaultPlan struct {
	// Events is the scheduled fault script, applied in (time, order)
	// sequence. Events need not be sorted.
	Events []FaultEvent

	// MTBF is the fleet-wide mean time between random instance crashes
	// (exponential gaps; each crash picks a uniform random instance).
	// 0 disables random injection.
	MTBF units.Seconds
	// MTTR is the mean time to repair an MTBF-crashed instance
	// (exponential); 0 leaves random-crashed instances down for the
	// rest of the run. Scheduled FaultCrash events are not auto-repaired
	// — pair them with explicit FaultRecover events.
	MTTR units.Seconds
}

// The per-incident recovery-time metric: an incident has recovered at
// the first instant the within-SLO completion rate over the next
// recoveryWindow reaches recoveryBand x its pre-crash level. SDC
// quarantines and gray-failure drains record incidents without a
// FaultPlan, so these are constants rather than plan fields.
const (
	recoveryWindow units.Seconds = 5
	recoveryBand                 = 0.8
)

// validate checks the plan against the cluster shape resolved from the
// configuration (colocated fleets have no separate prefill targets).
func (p *FaultPlan) validate(nPrefill, nDecode int, colocated bool) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("servesim: fault event %d at negative time %v", i, ev.At)
		}
		if ev.Kind < FaultCrash || ev.Kind > FaultDrain {
			return fmt.Errorf("servesim: fault event %d has unknown kind %d", i, int(ev.Kind))
		}
		if ev.Prefill {
			if colocated {
				return fmt.Errorf("servesim: fault event %d targets a prefill instance but the cluster is colocated", i)
			}
			if ev.Instance < 0 || ev.Instance >= nPrefill {
				return fmt.Errorf("servesim: fault event %d targets prefill instance %d of %d", i, ev.Instance, nPrefill)
			}
		} else if ev.Instance < 0 || ev.Instance >= nDecode {
			return fmt.Errorf("servesim: fault event %d targets decode instance %d of %d", i, ev.Instance, nDecode)
		}
	}
	if p.MTBF < 0 || !finite(p.MTBF) {
		return fmt.Errorf("servesim: MTBF %v must be finite and non-negative", p.MTBF)
	}
	if p.MTTR < 0 || !finite(p.MTTR) {
		return fmt.Errorf("servesim: MTTR %v must be finite and non-negative", p.MTTR)
	}
	return nil
}

// RetryPolicy governs requests orphaned by an instance crash (or by a
// hand-off that finds no healthy decode instance): each orphan re-enters
// prefill dispatch after an exponential backoff (250 ms, doubling,
// capped at 4 s) until its budget runs out, at which point it becomes
// a failed request. The zero value retries nothing — every orphan
// fails immediately.
type RetryPolicy struct {
	// MaxRetries is the per-request retry budget (0: fail on first
	// orphaning).
	MaxRetries int
}

// DefaultRetryPolicy returns the reference policy: 3 retries.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3}
}

// Validate checks the policy.
func (r RetryPolicy) Validate() error {
	if r.MaxRetries < 0 {
		return fmt.Errorf("servesim: negative retry budget %d", r.MaxRetries)
	}
	return nil
}

// Retry backoff: retry n waits retryBackoff * retryBackoffFactor^(n-1),
// capped at retryMaxBackoff.
const (
	retryBackoff       units.Seconds = 0.25
	retryBackoffFactor               = 2
	retryMaxBackoff    units.Seconds = 4
)

// retryDelay returns the backoff before the n-th retry (n >= 1). The
// multiply loop stops at the cap, so a huge retry budget never walks
// the delay out to +Inf before capping.
func retryDelay(n int) units.Seconds {
	d := retryBackoff
	for i := 1; i < n && d < retryMaxBackoff; i++ {
		d *= retryBackoffFactor
	}
	return min(d, retryMaxBackoff)
}

// AdmissionPolicy sheds arriving requests under overload so the
// latency of admitted requests stays bounded instead of collapsing —
// graceful degradation for the fleet. The zero value admits everything.
type AdmissionPolicy struct {
	// MaxQueueDepth sheds an arrival when the shared prefill queue
	// already holds at least this many requests (0: unlimited).
	MaxQueueDepth int
	// MaxKVOccupancy sheds an arrival when the fleet-wide KV occupancy
	// of up instances exceeds this fraction (0: disabled).
	MaxKVOccupancy float64
}

// Validate checks the policy.
func (a AdmissionPolicy) Validate() error {
	if a.MaxQueueDepth < 0 {
		return fmt.Errorf("servesim: negative admission queue depth %d", a.MaxQueueDepth)
	}
	if !(a.MaxKVOccupancy >= 0 && a.MaxKVOccupancy <= 1) { // rejects NaN too
		return fmt.Errorf("servesim: admission KV occupancy %v outside [0,1]", a.MaxKVOccupancy)
	}
	return nil
}

// enabled reports whether the policy can ever shed.
func (a AdmissionPolicy) enabled() bool {
	return a.MaxQueueDepth > 0 || a.MaxKVOccupancy > 0
}

// String renders the policy in the CLI spec syntax.
func (a AdmissionPolicy) String() string {
	var parts []string
	if a.MaxQueueDepth > 0 {
		parts = append(parts, fmt.Sprintf("queue=%d", a.MaxQueueDepth))
	}
	if a.MaxKVOccupancy > 0 {
		parts = append(parts, fmt.Sprintf("kv=%g", a.MaxKVOccupancy))
	}
	if len(parts) == 0 {
		return "admit-all"
	}
	return strings.Join(parts, ",")
}

// Incident is the measured blast radius of one instance-level event
// that dropped work: a crash, a detected-SDC quarantine, or a
// gray-failure drain.
type Incident struct {
	// At is the incident time; Instance/Prefill identify the victim.
	At       units.Seconds
	Instance int
	Prefill  bool
	// Kind labels the incident: "crash", "sdc" (detected corruption
	// quarantined the instance), or "gray-drain" (EWMA straggler
	// detection drained it).
	Kind string
	// Orphaned counts the requests dropped with the instance (active
	// batch, landing queue, and any in-flight prefill).
	Orphaned int
	// KVTokensLost is the KV-resident context the crash destroyed, in
	// tokens (decode pool contents plus partially built prefill KV).
	KVTokensLost int
	// Recovery is the time from the crash until the fleet's within-SLO
	// completion rate regained 80% of its pre-crash level over a 5 s
	// window (0 when there was no pre-crash goodput to regain;
	// censored at run end when goodput never returned to the band).
	Recovery units.Seconds
}

// ParseFaultEvents reads the CLI fault-script syntax: comma-separated
// "kind@seconds:target" items, where kind is crash, recover, or drain
// and target is dN (decode/colocated instance N) or pN (prefill
// instance N) — e.g. "crash@8:d1,recover@16:d1".
func ParseFaultEvents(s string) ([]FaultEvent, error) {
	var out []FaultEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kindAt, target, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("servesim: fault %q: want kind@seconds:target", item)
		}
		kindStr, atStr, ok := strings.Cut(kindAt, "@")
		if !ok {
			return nil, fmt.Errorf("servesim: fault %q: want kind@seconds:target", item)
		}
		var kind FaultKind
		switch strings.TrimSpace(kindStr) {
		case "crash":
			kind = FaultCrash
		case "recover":
			kind = FaultRecover
		case "drain":
			kind = FaultDrain
		default:
			return nil, fmt.Errorf("servesim: fault %q: unknown kind %q (want crash, recover, or drain)", item, kindStr)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
		if err != nil {
			return nil, fmt.Errorf("servesim: fault %q: bad time: %w", item, err)
		}
		if !finite(at) {
			// ParseFloat accepts "NaN" and "Inf", and the plan's validate
			// only rejects At < 0 — a NaN-timed event would slip through
			// into the scheduler. Reject non-finite times here, naming
			// the offending item.
			return nil, fmt.Errorf("servesim: fault %q: non-finite time", item)
		}
		if at < 0 {
			return nil, fmt.Errorf("servesim: fault %q: negative time", item)
		}
		target = strings.TrimSpace(target)
		if len(target) < 2 || (target[0] != 'd' && target[0] != 'p') {
			return nil, fmt.Errorf("servesim: fault %q: bad target %q (want dN or pN)", item, target)
		}
		inst, err := strconv.Atoi(target[1:])
		if err != nil {
			return nil, fmt.Errorf("servesim: fault %q: bad target %q: %w", item, target, err)
		}
		if inst < 0 {
			return nil, fmt.Errorf("servesim: fault %q: negative instance in target %q", item, target)
		}
		out = append(out, FaultEvent{At: at, Kind: kind, Prefill: target[0] == 'p', Instance: inst})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("servesim: empty fault script %q", s)
	}
	return out, nil
}

// ParseAdmissionPolicy reads the CLI admission spec: comma-separated
// "queue=N" and/or "kv=F" clauses — e.g. "queue=32,kv=0.9".
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	var a AdmissionPolicy
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return a, fmt.Errorf("servesim: admission %q: want queue=N or kv=F", item)
		}
		switch strings.TrimSpace(key) {
		case "queue":
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return a, fmt.Errorf("servesim: admission %q: %w", item, err)
			}
			a.MaxQueueDepth = n
		case "kv":
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return a, fmt.Errorf("servesim: admission %q: %w", item, err)
			}
			a.MaxKVOccupancy = f
		default:
			return a, fmt.Errorf("servesim: admission %q: unknown key %q (want queue or kv)", item, key)
		}
	}
	if err := a.Validate(); err != nil {
		return AdmissionPolicy{}, err
	}
	return a, nil
}

// setHealth moves an instance to a new health state. It opens and
// closes the degraded spans that split SLO attainment by fault epoch,
// and rebuilds the routing candidate lists the move can change. Every
// health transition goes through here.
func (e *Engine) setHealth(prefill bool, inst int, to healthState) {
	h := &e.decodes[inst].health
	if prefill {
		h = &e.prefills[inst].health
	}
	wasUp, isUp := *h == healthUp, to == healthUp
	*h = to
	e.rebuildCandidates()
	switch {
	case wasUp == isUp:
	case isUp:
		e.downCount--
		if e.downCount == 0 {
			e.spans = append(e.spans, faultSpan{start: e.degradedSince, end: e.now})
		}
	default:
		if e.downCount == 0 {
			e.degradedSince = e.now
		}
		e.downCount++
	}
}

// evacuate takes a decode (or colocated) instance out of service into
// health state to (down or quarantined) and records the incident. The
// active batch, in-flight reloads, the landing queue and any
// stall-the-world prefill are orphaned, the KV pool is freed wholesale,
// and the epoch bump invalidates the instance's in-flight
// evStepDone/evPrefillDone/evReloadDone events.
func (e *Engine) evacuate(inst int, inc Incident, to healthState) {
	d := &e.decodes[inst]
	for _, req := range d.active {
		inc.Orphaned++
		inc.KVTokensLost += req.ctx
		e.orphan(req)
	}
	e.setActive(d, d.active[:0])
	for _, req := range d.reloads {
		// In-flight reloads hold pages on the lost pool and count as
		// KV-resident context lost.
		inc.Orphaned++
		inc.KVTokensLost += req.ctx
		e.orphan(req)
	}
	clearPtrs(d.reloads)
	d.reloads = d.reloads[:0]
	for d.pending.len() > 0 {
		// Landed requests hold no pages yet; they are affected but add
		// no KV loss.
		inc.Orphaned++
		e.orphan(d.pending.pop())
	}
	d.pending.reset()
	if d.prefilling && d.prefillReq != nil {
		inc.Orphaned++
		inc.KVTokensLost += d.prefillReq.ctxForPrefill()
		e.orphan(d.prefillReq)
	}
	d.prefillReq = nil
	d.prefilling = false
	d.stepping = false
	d.kv.releaseAll()
	d.epoch++
	e.setHealth(false, inst, to)
	e.kvLost += inc.KVTokensLost
	e.incidents = append(e.incidents, inc)
}
