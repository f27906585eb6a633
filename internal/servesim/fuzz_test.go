package servesim

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the CLI spec parsers. Each checks that a parser
// never panics, that every value it accepts passes the matching
// validation with finite fields, and, where the type has a String
// method, that the printed form parses back to the same value. The
// seeds are the specs the CI smokes drive plus the non-finite and
// out-of-range cases each parser must reject. Run one with, e.g.,
//
//	go test -run '^$' -fuzz FuzzParseKVTiers -fuzztime 30s ./internal/servesim

func FuzzParseFaultEvents(f *testing.F) {
	for _, s := range []string{
		"crash@6:d1,recover@14:d1", "drain@3:p0", "melt@1:d0",
		"crash@NaN:d0", "crash@Inf:d1", "recover@-Inf:p0",
		"crash@-1:d0", "crash@1:d-1", "crash@1:p+2", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseFaultEvents(s)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if !finite(ev.At) {
				t.Fatalf("%q: accepted non-finite time %v", s, ev.At)
			}
		}
		if err := (&FaultPlan{Events: evs}).validate(math.MaxInt, math.MaxInt, false); err != nil {
			t.Fatalf("%q: accepted events fail validation: %v", s, err)
		}
	})
}

func FuzzParseAdmissionPolicy(f *testing.F) {
	for _, s := range []string{
		"queue=24,kv=0.85", "queue=32", "kv=0.9", "kv=2", "kv=NaN",
		"kv=Inf", "queue=-1", "queue=+5", "depth=3", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAdmissionPolicy(s)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil || !finite(a.MaxKVOccupancy) {
			t.Fatalf("%q: accepted invalid policy %+v: %v", s, a, err)
		}
		if !a.enabled() {
			// The disabled policy prints a label, not a spec.
			if got := a.String(); got != "admit-all" {
				t.Fatalf("%q: zero policy prints %q", s, got)
			}
			return
		}
		back, err := ParseAdmissionPolicy(a.String())
		if err != nil || back != a {
			t.Fatalf("%q: String %q parses to %+v, %v; want %+v", s, a.String(), back, err, a)
		}
	})
}

func FuzzParseKVTiers(f *testing.F) {
	for _, s := range []string{
		"name=dram,cap=8,read=24,write=16,lat=0.05/name=flash,cap=64,read=6,lat=0.4",
		"name=dram,cap=8,read=24", "name=dram,cap=8",
		"cap=NaN,read=24", "cap=8,read=Inf", "cap=8,read=24,write=-Inf",
		"cap=8,read=24,lat=NaN", "cap=1e308,read=24", "cap=8,read=24,lat=-1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tiers, err := ParseKVTiers(s)
		if err != nil {
			return
		}
		for i, tier := range tiers {
			if err := tier.Validate(); err != nil {
				t.Fatalf("%q: accepted tier %d fails validation: %v", s, i, err)
			}
			for _, v := range []float64{tier.CapacityBytes, tier.ReadBW, tier.WriteBW, tier.ChunkLatency} {
				if !finite(v) {
					t.Fatalf("%q: tier %d has a non-finite field: %+v", s, i, tier)
				}
			}
		}
	})
}

func FuzzParseHazardEvents(f *testing.F) {
	for _, s := range []string{
		"degrade@4:d1:6/8,heal@16:d1", "degrade@2:d1:7/8", "degrade@4:d0-3:1/8",
		"degrade@4:p0:2", "melt@1:d0", "degrade@NaN:d1:2", "heal@Inf:d1",
		"degrade@-1:d1:2", "degrade@4:d1:0", "degrade@4:d1:8/8", "degrade@4:d3-1:2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseHazardEvents(s)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if !finite(ev.At) {
				t.Fatalf("%q: accepted non-finite time %v", s, ev.At)
			}
		}
		if err := (&HazardPlan{Planes: evs}).validate(math.MaxInt, math.MaxInt, false); err != nil {
			t.Fatalf("%q: accepted events fail validation: %v", s, err)
		}
	})
}

func FuzzParseHedgePolicy(f *testing.F) {
	for _, s := range []string{"p95:4", "0.5", "p95:-1", "p95", "NaN", "p95:NaN", "Inf", "0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		h, err := ParseHedgePolicy(s)
		if err != nil {
			return
		}
		if err := h.Validate(); err != nil || !finite(h.Delay) || !h.enabled() {
			t.Fatalf("%q: accepted invalid policy %+v: %v", s, h, err)
		}
	})
}

func FuzzParseRouterPolicy(f *testing.F) {
	for _, s := range []string{"p2c", "shortest-queue", "least-kv", "round-robin", "no-such-policy", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseRouterPolicy(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q: accepted invalid policy %d: %v", s, int(p), err)
		}
		if back, err := ParseRouterPolicy(p.String()); err != nil || back != p {
			t.Fatalf("%q: String %q parses to %v, %v", s, p.String(), back, err)
		}
	})
}

func FuzzParseTrace(f *testing.F) {
	for _, s := range []string{
		"# arrival,prompt,output\n0.0, 128, 32\n\n1.5,256,64\n",
		"0,128,32\n-1,128,32\n", "NaN,1,1", "Inf,1,1", "1,0,1", "1,1,0", "1,2", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		reqs, err := ParseTrace(strings.NewReader(s))
		if err != nil || len(reqs) == 0 {
			return
		}
		for _, r := range reqs {
			if !finite(r.Arrival) {
				t.Fatalf("%q: accepted non-finite arrival %v", s, r.Arrival)
			}
		}
		if err := (Workload{Arrival: ArrivalTrace, Trace: reqs}).Validate(); err != nil {
			t.Fatalf("%q: accepted trace fails validation: %v", s, err)
		}
	})
}
