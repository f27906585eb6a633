package servesim

import (
	"fmt"
	"slices"
	"testing"

	"dsv3/internal/units"
)

type invariantCase struct {
	name string
	cfg  Config
	w    Workload
}

// invariantCases is the feature matrix the incremental-state checks run
// across: every mechanism that moves an instance's health, its batch or
// its KV pages.
func invariantCases() []invariantCase {
	base := func() Config {
		cfg := V3ServeConfig()
		cfg.KV.HBM.CapacityBytes = 0.5 * units.GB // preemption pressure
		cfg.Resilience.Retry = DefaultRetryPolicy()
		return cfg
	}
	colocated := base()
	colocated.Fleet.Colocated = true
	colocated.KV.HBM.CapacityBytes = 2 * units.GB

	faults := base()
	faults.Fleet.Router = RouteShortestQueue
	faults.Fleet.PrefillInstances, faults.Fleet.DecodeInstances = 4, 6
	faults.Resilience.Faults = &FaultPlan{
		Events: []FaultEvent{
			{At: 3, Kind: FaultCrash, Instance: 1},
			{At: 4, Kind: FaultDrain, Instance: 2},
			{At: 5, Kind: FaultCrash, Prefill: true, Instance: 0},
			{At: 7, Kind: FaultDrain, Prefill: true, Instance: 1},
			{At: 9, Kind: FaultRecover, Instance: 1},
			{At: 10, Kind: FaultRecover, Instance: 2},
			{At: 11, Kind: FaultRecover, Prefill: true, Instance: 0},
			{At: 12, Kind: FaultRecover, Prefill: true, Instance: 1},
		},
		MTBF: 6,
		MTTR: 2,
	}

	hazards := hazardTestConfig(true)
	hazards.Resilience.Hazards.Planes = append(hazards.Resilience.Hazards.Planes,
		PlaneHazardEvent{At: 6, Prefill: true, Instance: 0, FailedPlanes: 4, TotalPlanes: 8},
		PlaneHazardEvent{At: 12, Heal: true, Prefill: true, Instance: 0})

	hedged := base()
	hedged.Resilience.Hazards = &HazardPlan{Planes: []PlaneHazardEvent{
		{At: 2, Instance: 1, FailedPlanes: 7, TotalPlanes: 8},
	}}
	hedged.Resilience.Hedge = HedgePolicy{Delay: 3}
	hedged.Resilience.Faults = &FaultPlan{MTBF: 5, MTTR: 2}

	tiers := tieredConfig()
	tiers.Resilience.Retry = DefaultRetryPolicy()
	tiers.Resilience.Faults = crashPlan(1, 6, 14)

	admission := base()
	admission.Resilience.Admission = AdmissionPolicy{MaxQueueDepth: 12, MaxKVOccupancy: 0.9}
	admission.Resilience.Faults = crashPlan(2, 4, 8)

	all := tieredConfig()
	all.Fleet.Router = RoutePowerOfTwo
	all.Resilience.Retry = DefaultRetryPolicy()
	all.Resilience.Faults = &FaultPlan{MTBF: 8, MTTR: 3}
	all.Resilience.Admission = AdmissionPolicy{MaxQueueDepth: 60}
	all.Resilience.Hazards = hazardTestPlan(true)
	all.Resilience.Hedge = HedgePolicy{Delay: 4, TrackP95: true}

	return []invariantCase{
		{"colocated", colocated, testWorkload(4, 120)},
		{"faults", faults, testWorkload(8, 160)},
		{"hazards", hazards, testWorkload(5, 150)},
		{"hedged", hedged, testWorkload(4, 150)},
		{"tiers", tiers, sessionWorkload(4, 150)},
		{"admission", admission, testWorkload(14, 160)},
		{"all", all, sessionWorkload(4, 150)},
	}
}

// checkIncremental compares every piece of incrementally maintained
// fleet state with a full rescan of the fleet.
func checkIncremental(e *Engine) error {
	var idle, servable []int
	for i := range e.prefills {
		if p := &e.prefills[i]; !p.busy && p.health.servable() {
			idle = append(idle, i)
		}
	}
	if !slices.Equal(idle, e.idle) {
		return fmt.Errorf("idle list %v, rescan %v", e.idle, idle)
	}
	var batch, used, total int
	var loads []InstanceLoad
	for i := range e.decodes {
		d := &e.decodes[i]
		batch += len(d.active)
		used += d.kv.used
		total += d.kv.total
		if d.health.dead() && d.kv.used != 0 {
			return fmt.Errorf("dead decode %d holds %d pages", i, d.kv.used)
		}
		if d.health.servable() {
			servable = append(servable, i)
			loads = append(loads, InstanceLoad{Instance: i, Queue: d.pending.len() + len(d.active), FreeKV: d.kv.free()})
		}
	}
	if !slices.Equal(servable, e.servable) {
		return fmt.Errorf("servable list %v, rescan %v", e.servable, servable)
	}
	if batch != e.batch || used != e.kvUsed || total != e.kvTotal {
		return fmt.Errorf("fleet batch/used/total %d/%d/%d, rescan %d/%d/%d",
			e.batch, e.kvUsed, e.kvTotal, batch, used, total)
	}
	// The decode view, whole and with each position skipped (a hedge
	// copy avoiding its twin), reads exactly the rescanned loads.
	for skip := -1; skip < len(servable); skip++ {
		want := slices.Clone(loads)
		if skip >= 0 {
			want = slices.Delete(want, skip, skip+1)
		}
		v := candidates{e: e, ids: e.servable, skip: skip, decode: true}
		if v.Len() != len(want) {
			return fmt.Errorf("decode view skip %d: %d candidates, want %d", skip, v.Len(), len(want))
		}
		for k := range want {
			if got := v.Load(k); got != want[k] {
				return fmt.Errorf("decode view skip %d: candidate %d is %+v, want %+v", skip, k, got, want[k])
			}
		}
	}
	return nil
}

// TestIncrementalStateMatchesRescan runs the feature matrix with a check
// after every event: events leave the loop in strict (time, seq) order,
// and the idle and servable lists, the fleet batch and KV page totals,
// and the decode candidate view all equal a rescan of the fleet. Each
// case must also conserve requests and reproduce its report on a
// pooled engine that last ran a different case.
func TestIncrementalStateMatchesRescan(t *testing.T) {
	pooled := NewEngine()
	for _, c := range invariantCases() {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			var last event
			events := 0
			var failure error
			e.afterEvent = func(ev event) {
				events++
				if failure != nil {
					return
				}
				if events > 1 && !eventLess(&last, &ev) {
					failure = fmt.Errorf("event %d (at %v seq %d) processed after (at %v seq %d)",
						events, ev.at, ev.seq, last.at, last.seq)
					return
				}
				last = ev
				if err := checkIncremental(e); err != nil {
					failure = fmt.Errorf("after event %d (kind %d at %v): %w", events, ev.kind, ev.at, err)
				}
			}
			rep, err := e.Run(c.cfg, c.w)
			if err != nil {
				t.Fatal(err)
			}
			if failure != nil {
				t.Fatal(failure)
			}
			if rep.Completed+rep.Failed+rep.Shed != rep.Requests {
				t.Errorf("conservation: %d completed + %d failed + %d shed != %d",
					rep.Completed, rep.Failed, rep.Shed, rep.Requests)
			}
			// The pooled engine last ran the previous case.
			again, err := pooled.Run(c.cfg, c.w)
			if err != nil {
				t.Fatal(err)
			}
			if mustJSON(t, again) != mustJSON(t, rep) {
				t.Error("pooled engine report differs from a fresh engine's")
			}
		})
	}
}

// TestArrivalTiesStepDone lands an arrival exactly on a decode step's
// completion time. The arrival must be processed first, as it was when
// arrivals were queued up front with the lower seq, and the extra
// request must not perturb anything scheduled before it.
func TestArrivalTiesStepDone(t *testing.T) {
	cfg := V3ServeConfig()
	trace := testWorkload(6, 40).Generate(3)
	w := Workload{Arrival: ArrivalTrace, Trace: trace}

	// Find a step completion well inside the run.
	type stamp struct {
		at   units.Seconds
		kind eventKind
	}
	var tie units.Seconds
	var before []stamp
	e := NewEngine()
	e.afterEvent = func(ev event) {
		if tie == 0 {
			before = append(before, stamp{ev.at, ev.kind})
			if ev.kind == evStepDone && len(before) >= 400 {
				tie = ev.at
			}
		}
	}
	if _, err := e.Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	if tie == 0 {
		t.Fatal("run too short to pick a step completion")
	}

	extra := Request{Arrival: tie, PromptTokens: 512, OutputTokens: 64}
	w.Trace = append(slices.Clone(trace), extra)
	var kinds []eventKind
	var prefix []stamp
	e.afterEvent = func(ev event) {
		if ev.at < tie {
			prefix = append(prefix, stamp{ev.at, ev.kind})
		}
		if ev.at == tie {
			kinds = append(kinds, ev.kind)
		}
	}
	if _, err := e.Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	arrival, step := slices.Index(kinds, evArrival), slices.Index(kinds, evStepDone)
	if arrival < 0 || step < 0 {
		t.Fatalf("events at the tie time %v: %v; want an arrival and a step completion", tie, kinds)
	}
	if arrival > step {
		t.Errorf("at the tie time the step completion ran before the arrival: %v", kinds)
	}
	// before ends with the tied step completion itself.
	if !slices.Equal(prefix, before[:len(before)-1]) {
		t.Error("the extra request changed events scheduled before it arrived")
	}
}
