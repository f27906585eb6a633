package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dsv3"
)

// Input sizes of the two serving workloads.
const (
	fleetRate     = 11000
	fleetRequests = 100_000
	mixRequests   = 600
	// tracesPerRun is how many traces a serving run replays, round
	// robin, on its pooled engine. The engine's buffers grow to the
	// largest of them, so a run's memory peak and op times depend less
	// on which traffic one seed happens to draw.
	tracesPerRun = 8
)

// fleetInputs is the fleet workload: the ServeFleetConfig1000
// deployment (600 prefill + 400 decode instances, batch 32, p2c
// routing, 4 GB HBM each) under ServeFleetWorkload chat traffic. The
// config is taken as the facade builds it; trace replay runs the
// serial engine whatever it sets.
func fleetInputs() (dsv3.ServeConfig, dsv3.ServeWorkload) {
	w := dsv3.ServeFleetWorkload(fleetRate)
	w.Requests = fleetRequests
	return dsv3.ServeFleetConfig1000(0), w
}

// serveMixInputs is the serve-mix workload: the small V3ServeConfig
// fleet (2 prefill + 4 decode) with HBM cut to 0.25 GB per instance,
// DRAM and flash tiers and the prefix cache on, MTBF crashes with the
// default retry policy, a plane degrade, SDC with Freivalds
// verification, gray-failure detection and p95-tracked hedging, under
// 3-turn session traffic. Every mechanism fires in every op.
func serveMixInputs() (dsv3.ServeConfig, dsv3.ServeWorkload) {
	cfg := dsv3.V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.25e9
	cfg.KV.ChunkTokens = 256
	cfg.KV.Tiers = []dsv3.ServeKVTierConfig{
		{Name: "dram", CapacityBytes: 8e9, ReadBW: 24e9, WriteBW: 16e9, ChunkLatency: 50e-6},
		{Name: "flash", CapacityBytes: 64e9, ReadBW: 6e9, WriteBW: 3e9, ChunkLatency: 400e-6},
	}
	cfg.KV.PrefixCache = true
	cfg.Resilience.Faults = &dsv3.ServeFaultPlan{MTBF: 30, MTTR: 4}
	cfg.Resilience.Retry = dsv3.DefaultServeRetryPolicy()
	cfg.Resilience.Hazards = &dsv3.ServeHazardPlan{
		Planes: []dsv3.ServePlaneHazardEvent{
			{At: 20, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
			{At: 60, Heal: true, Instance: 1},
		},
		SDCRate:          0.0003,
		VerifyTrials:     8,
		Detect:           dsv3.ServeDetectionConfig{Threshold: 1.25},
		QuarantineRepair: 4,
	}
	cfg.Resilience.Hedge = dsv3.ServeHedgePolicy{Delay: 6, TrackP95: true}

	uniform := dsv3.ServeLengthDist{Kind: dsv3.DistUniform, Mean: 256, Min: 192, Max: 320}
	w := dsv3.ServeWorkload{
		Arrival:    dsv3.ArrivalPoisson,
		RatePerSec: 3,
		Requests:   mixRequests,
		Prompt:     uniform,
		Output:     uniform,
		Turns:      3,
		ThinkTime:  2,
	}
	return cfg, w
}

// serveInputs maps each serving workload to its config and the
// workload its traces are generated from.
var serveInputs = map[string]func() (dsv3.ServeConfig, dsv3.ServeWorkload){
	"fleet":     fleetInputs,
	"serve-mix": serveMixInputs,
}

// serveRun is one seed's inputs: the config, with Config.Seed set to
// the seed, and tracesPerRun traces, trace k generated from
// DeriveSeed(seed, k).
func serveRun(name string, seed int64) (dsv3.ServeConfig, []dsv3.ServeWorkload) {
	cfg, w := serveInputs[name]()
	cfg.Seed = seed
	traces := make([]dsv3.ServeWorkload, tracesPerRun)
	for k := range traces {
		traces[k] = dsv3.ServeWorkload{Arrival: dsv3.ArrivalTrace, Trace: w.Generate(dsv3.DeriveSeed(seed, k))}
	}
	return cfg, traces
}

// serveBench is a set-up serving workload: config, traces, a pooled
// engine and the Report digest each trace must reproduce.
type serveBench struct {
	name   string
	seed   int64
	cfg    dsv3.ServeConfig
	traces []dsv3.ServeWorkload
	eng    *dsv3.ServeEngine
	next   int // trace the next op replays
	// want holds each trace's digest; wantFrom says whether they came
	// from the stored references or, for a seed they do not cover,
	// from each trace's first replay ("" until then).
	want     []string
	wantFrom string
	genTime  time.Duration
}

// serveSetup returns the set-up function of a serving workload.
func serveSetup(name string) func(int64, *references, *spanLog) (workload, error) {
	return func(seed int64, refs *references, sp *spanLog) (workload, error) {
		b, err := setupServe(name, seed, refs, sp)
		if b == nil {
			return nil, err
		}
		return b, err
	}
}

// setupServe builds a serving workload and runs its warm-up op, the
// first trace on a fresh engine. A warm-up whose output mismatches
// still returns the workload, with an error wrapping errMismatch.
func setupServe(name string, seed int64, refs *references, sp *spanLog) (*serveBench, error) {
	root := sp.begin("setup", 0)
	defer sp.end(root)

	s := sp.begin("workload.generate", root)
	t0 := time.Now()
	cfg, traces := serveRun(name, seed)
	b := &serveBench{name: name, seed: seed, cfg: cfg, traces: traces, genTime: time.Since(t0)}
	sp.end(s)
	if want, ok := refs.serve(name, seed); ok && len(want) == len(traces) {
		b.want, b.wantFrom = want, "stored"
	} else {
		b.want, b.wantFrom = make([]string, len(traces)), "first replay"
	}

	s = sp.begin("NewServeEngine", root)
	b.eng = dsv3.NewServeEngine()
	sp.end(s)

	s = sp.begin("Engine.Run", root)
	rep, k, _, err := b.run()
	sp.end(s)
	if err != nil {
		return nil, err
	}
	return b, b.check(rep, k)
}

// run replays the next trace on the pooled engine and measures it.
func (b *serveBench) run() (rep *dsv3.ServeReport, k int, st opStats, err error) {
	k = b.next
	b.next = (b.next + 1) % len(b.traces)
	c0 := cpuTime()
	t0 := time.Now()
	rep, err = b.eng.Run(b.cfg, b.traces[k])
	st = opStats{wall: time.Since(t0), cpu: cpuTime() - c0}
	if err == nil {
		st.resolved = rep.Completed + rep.Failed + rep.Shed
	}
	return rep, k, st, err
}

func (b *serveBench) op() (opStats, error) {
	rep, k, st, err := b.run()
	if err != nil {
		return st, err
	}
	return st, b.check(rep, k)
}

// check verifies the Report of a replay of trace k: request
// conservation, then the digest of its JSON encoding against the
// trace's reference.
func (b *serveBench) check(rep *dsv3.ServeReport, k int) error {
	n := len(b.traces[k].Trace)
	if rep.Requests != n || rep.Completed+rep.Failed+rep.Shed != n || rep.Completed == 0 {
		return fmt.Errorf("%s seed %d trace %d: %d requests offered, report has %d = %d completed + %d failed + %d shed: %w",
			b.name, b.seed, k, n, rep.Requests, rep.Completed, rep.Failed, rep.Shed, errMismatch)
	}
	got, err := reportDigest(rep)
	if err != nil {
		return err
	}
	if b.want[k] == "" {
		b.want[k] = got
	}
	if got != b.want[k] {
		return fmt.Errorf("%s seed %d trace %d: report digest %s, want %s (%s): %w",
			b.name, b.seed, k, got, b.want[k], b.wantFrom, errMismatch)
	}
	return nil
}

func (b *serveBench) meta() map[string]any {
	return map[string]any{
		"requests_per_op":   len(b.traces[0].Trace),
		"traces_per_run":    len(b.traces),
		"prefill_instances": b.cfg.Fleet.PrefillInstances,
		"decode_instances":  b.cfg.Fleet.DecodeInstances,
		"reference":         b.wantFrom,
	}
}

// reportDigest fingerprints a Report: the SHA-256 of its JSON
// encoding, which is byte-stable for identical runs.
func reportDigest(rep *dsv3.ServeReport) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	return digest(b), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
