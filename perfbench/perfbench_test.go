package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"dsv3"
)

func mustRefs(t *testing.T) *references {
	t.Helper()
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func serveNames() []string {
	if testing.Short() {
		return []string{"serve-mix"}
	}
	return []string{"serve-mix", "fleet"}
}

// The same seed gives the same Report digests: on a fresh engine, on
// every replay by a pooled engine, and in the stored references.
func TestSameSeedSameFingerprint(t *testing.T) {
	refs := mustRefs(t)
	for _, name := range serveNames() {
		t.Run(name, func(t *testing.T) {
			const seed = 3
			b, err := setupServe(name, seed, refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b.wantFrom != "stored" {
				t.Fatalf("seed %d has no stored reference", seed)
			}
			// The warm-up replayed trace 0; replay every trace, and trace 0
			// once more, on the pooled engine.
			for i := 0; i < tracesPerRun; i++ {
				if _, err := b.op(); err != nil {
					t.Fatalf("pooled op %d: %v", i, err)
				}
			}
			for k, tr := range b.traces {
				rep, err := dsv3.NewServeEngine().Run(b.cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if d, _ := reportDigest(rep); d != b.want[k] {
					t.Fatalf("trace %d: fresh engine digest %s, reference %s", k, d, b.want[k])
				}
			}
		})
	}
}

// A different seed, or another trace of the same seed, gives a
// different digest; a seed outside the stored references is checked
// against each trace's first replay.
func TestDifferentSeedDifferentFingerprint(t *testing.T) {
	refs := mustRefs(t)
	for _, name := range serveNames() {
		t.Run(name, func(t *testing.T) {
			a, err := setupServe(name, 5, refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := setupServe(name, 6, refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.want[0] == b.want[0] || a.want[0] == a.want[1] {
				t.Fatalf("digests repeat: seed 5 %v, seed 6 %v", a.want, b.want)
			}
			c, err := setupServe(name, refSeeds+7, refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.wantFrom != "first replay" {
				t.Fatalf("seed %d: reference from %q", refSeeds+7, c.wantFrom)
			}
			for i := 0; i < tracesPerRun; i++ {
				if _, err := c.op(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// A report that differs from the reference fails its op.
func TestMismatchFailsOp(t *testing.T) {
	b, err := setupServe("serve-mix", 2, mustRefs(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	b.next = 0
	b.want[0] = strings.Repeat("0", 64)
	if _, err := b.op(); err == nil {
		t.Fatal("op passed against a wrong reference")
	}
}

// The paper output is byte-identical at 1 and 2 workers and matches
// the stored references.
func TestPaperWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full catalogue twice")
	}
	prev := dsv3.SetParallelWorkers(1)
	defer dsv3.SetParallelWorkers(prev)
	one, err := runCatalogue(1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runCatalogue(2)
	if err != nil {
		t.Fatal(err)
	}
	b := &paperBench{want: mustRefs(t).Paper}
	for _, rep := range []childReport{one, two} {
		if err := b.check(rep); err != nil {
			t.Errorf("%d workers: %v", rep.Workers, err)
		}
	}
	for i := range one.Experiments {
		a, b := one.Experiments[i], two.Experiments[i]
		if a.Name != b.Name || a.Digest != b.Digest {
			t.Errorf("%s differs between 1 and 2 workers", a.Name)
		}
	}
}

// BENCHMARK.json names exactly the metrics the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

// A short timed run reports every end-to-end metric, none of them 0.
func TestTimedRunMetrics(t *testing.T) {
	res, meta, err := timedRun(specs["serve-mix"], 1, 200*time.Millisecond, mustRefs(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("result %+v", res)
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v", m.name, v)
		}
	}
	if meta["ops"].(int) < 1 || meta["setup_s_samples"].(int) != specs["serve-mix"].setups {
		t.Errorf("meta %v", meta)
	}
}

// A short traced run reports every per-layer metric and writes its
// spans.
func TestTracedRunMetrics(t *testing.T) {
	dir := t.TempDir()
	res, meta, err := tracedRun("serve-mix", specs["serve-mix"], 1, 300*time.Millisecond, mustRefs(t), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v, %d metrics", res.Correct, len(res.Metrics))
	}
	for _, name := range []string{"servesim.events", "kvtier.offloads", "resilience.incidents.crash", "obs.breakdown_shortfall"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on serve-mix", name, res.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(meta["span_file"].(string))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("spans: %v (%d)", err, len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start || s.Parent >= s.ID {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// The profile decoder reads a real CPU profile's stacks.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.name, ".spin") && strings.HasSuffix(f.file, "perfbench_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spin among %d samples", len(p.samples))
	}
}

func TestBucketOf(t *testing.T) {
	const pkg = "dsv3/internal/servesim."
	for _, c := range []struct {
		name, file, want string
	}{
		{pkg + "(*Engine).dispatch", "x/internal/servesim/servesim.go", "dispatch"},
		{pkg + "(*eventHeap).pop", "x/internal/servesim/servesim.go", "sched"},
		{pkg + "(*calendarQueue).push", "x/internal/servesim/sched.go", "sched"},
		{pkg + "(*fifo).push", "x/internal/servesim/servesim.go", ""},
		{pkg + "(*p2cRouter).Pick", "x/internal/servesim/router.go", ""},
		{pkg + "(*Engine).processEvent", "x/internal/servesim/servesim.go", "loop"},
		{pkg + "(*Engine).Run.func1", "x/internal/servesim/servesim.go", "loop"},
		{pkg + "(*Engine).hedgeFire", "x/internal/servesim/hazard.go", "resilience"},
		{"runtime.mallocgc", "runtime/malloc.go", ""},
	} {
		if got := bucketOf(profFrame{c.name, c.file}); got != c.want {
			t.Errorf("bucketOf(%s) = %q, want %q", c.name, got, c.want)
		}
	}
}
