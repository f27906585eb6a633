package servesim

import (
	"fmt"
	"testing"

	"dsv3/internal/units"
)

// BenchmarkEventQueue measures the event heap under the classic hold
// model: the queue is pre-filled with n events (a long ribbon spread
// over the horizon plus a dense cluster of near-term step completions),
// then each op pops the minimum and pushes a replacement a few
// milliseconds ahead. A run keeps its arrivals out of the heap (the
// arrival cursor), so in practice n is about one event per instance;
// the large n bound the cost from above.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("heap/n=%d", n), func(b *testing.B) {
			const horizon = units.Seconds(3600)
			var q eventHeap
			// splitmix-style generator: deterministic, no shared state.
			rng := uint64(0x9e3779b97f4a7c15)
			next := func() float64 {
				rng += 0x9e3779b97f4a7c15
				x := rng
				x ^= x >> 30
				x *= 0xbf58476d1ce4e5b9
				x ^= x >> 27
				return float64(x>>11) / (1 << 53)
			}
			seq := 0
			// 90% of events spread over the horizon, 10% packed into the
			// next 30ms.
			for i := 0; i < n; i++ {
				at := units.Seconds(next()) * horizon
				if i%10 == 0 {
					at = units.Seconds(next()) * 0.03
				}
				seq++
				q.push(event{at: at, seq: seq, kind: evStepDone})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				ev.at += units.Seconds(0.001 + 0.009*next())
				seq++
				ev.seq = seq
				q.push(ev)
			}
			if len(q) != n {
				b.Fatalf("queue size drifted: %d != %d", len(q), n)
			}
		})
	}
}

// wideFleetEngine returns an engine set up (not run) on the 600-prefill
// + 400-decode fleet shape under the given router, plus a request to
// route. Every unit is idle and servable.
func wideFleetEngine(b *testing.B, policy RouterPolicy) (*Engine, *reqState) {
	b.Helper()
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances = 600
	cfg.Fleet.DecodeInstances = 400
	cfg.Fleet.MaxBatch = 32
	cfg.Fleet.Router = policy
	cfg.KV.HBM.CapacityBytes = 4 * units.GB
	w := Workload{Arrival: ArrivalPoisson, RatePerSec: 11000, Requests: 1,
		Prompt: Fixed(192), Output: Fixed(64)}
	e := NewEngine()
	if err := e.begin(cfg, w); err != nil {
		b.Fatal(err)
	}
	return e, &e.arena[0]
}

// BenchmarkDispatch measures prefill dispatch at fleet width: one
// queued request routed to one of 600 idle prefill units. Each op then
// frees the unit as prefillDone would, so every op sees the same fleet.
func BenchmarkDispatch(b *testing.B) {
	for _, policy := range []RouterPolicy{RoutePowerOfTwo, RouteLeastKV} {
		b.Run(policy.String(), func(b *testing.B) {
			e, req := wideFleetEngine(b, policy)
			base := *req
			op := func() {
				*req = base
				e.prefillQ.push(req)
				e.dispatch()
				ev := e.events.pop()
				p := &e.prefills[ev.inst]
				p.busy, p.cur = false, nil
				e.idle = insertSorted(e.idle, ev.inst)
			}
			op() // grow the queue buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			if len(e.idle) != len(e.prefills) || len(e.events) != 0 {
				b.Fatalf("fleet drifted: %d idle, %d events", len(e.idle), len(e.events))
			}
		})
	}
}

// BenchmarkHandoff measures the prefill->decode hand-off at fleet
// width: a finished prefill frees its unit and routes the request to
// one of 400 servable decode units. Each op marks the unit busy first
// and drops the scheduled land after, so every op sees the same fleet.
func BenchmarkHandoff(b *testing.B) {
	for _, policy := range []RouterPolicy{RoutePowerOfTwo, RouteLeastKV} {
		b.Run(policy.String(), func(b *testing.B) {
			e, req := wideFleetEngine(b, policy)
			base := *req
			op := func() {
				*req = base
				inst := e.idle[len(e.idle)-1]
				e.idle = e.idle[:len(e.idle)-1]
				p := &e.prefills[inst]
				p.busy, p.cur = true, req
				ev := event{kind: evPrefillDone, inst: inst, epoch: p.epoch, req: req}
				e.prefillDone(&ev)
				if land := e.events.pop(); land.kind != evDecodeLand {
					b.Fatalf("hand-off scheduled %v, want a decode land", land.kind)
				}
			}
			op() // grow the queue buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
