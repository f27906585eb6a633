package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dsv3"
)

// perLayer lists every per-layer metric the traced run reports, on
// every workload; a metric whose layer a workload does not reach is 0
// there. BENCHMARK.json lists the same names and units.
var perLayer = []struct{ name, unit string }{
	// Shares of Engine.Run CPU samples by layer (see bucketOf).
	{"profile.sched", "frac"},
	{"profile.dispatch", "frac"},
	{"profile.handoff", "frac"},
	{"profile.kv_account", "frac"},
	{"profile.step", "frac"},
	{"profile.latency", "frac"},
	{"profile.kvtier", "frac"},
	{"profile.resilience", "frac"},
	{"profile.report", "frac"},
	{"profile.shard", "frac"},
	{"profile.loop", "frac"},
	{"profile.runtime", "frac"},
	// Serving engine, from the Report and the trace recorder.
	{"servesim.run_ms", "ms"},
	{"servesim.events", "count"},
	{"servesim.host_us_per_event", "us"},
	{"servesim.decode_steps", "count"},
	{"servesim.prefill_slices", "count"},
	{"servesim.mean_batch", "req"},
	{"servesim.queue_s", "s"},
	{"servesim.prefill_s", "s"},
	{"servesim.transfer_s", "s"},
	{"servesim.reload_s", "s"},
	{"servesim.decode_s", "s"},
	{"servesim.backoff_s", "s"},
	{"servesim.completed", "count"},
	{"servesim.failed", "count"},
	{"servesim.shed", "count"},
	{"kvtier.offloads", "count"},
	{"kvtier.reloads", "count"},
	{"kvtier.demotions", "count"},
	{"kvtier.drops", "count"},
	{"kvtier.prefix_hit_ratio", "frac"},
	{"kvtier.reload_stall_s", "s"},
	{"kv.preemptions", "count"},
	{"kv.peak_occupancy", "frac"},
	{"resilience.incidents.crash", "count"},
	{"resilience.incidents.sdc", "count"},
	{"resilience.incidents.gray-drain", "count"},
	{"resilience.retry_amplification", "ratio"},
	{"resilience.sdc_caught_ratio", "frac"},
	{"resilience.hedge_win_ratio", "frac"},
	{"resilience.hedge_wasted_tokens", "count"},
	// Host-side cost of building inputs and of one op.
	{"workload.generate_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	// Paper catalogue, from the child's per-experiment timings.
	{"netsim.ms", "ms"},
	{"deepep.ms", "ms"},
	{"fp8train.ms", "ms"},
	{"quant.ms", "ms"},
	{"moe.ms", "ms"},
	{"analytic.ms", "ms"},
	{"servesim.catalogue_ms", "ms"},
	{"results.emit_ms", "ms"},
	{"paper.critical_ms", "ms"},
	{"parallel.busy_frac", "frac"},
	// Observability itself.
	{"obs.trace_overhead_frac", "frac"},
	{"obs.breakdown_shortfall", "count"},
	{"obs.metric_samples", "count"},
}

// tracedRun is the separate traced invocation: it sets the workload up
// once, records spans around the facade calls it makes, and reports
// the per-layer metrics. Its timings are not end-to-end figures.
func tracedRun(name string, sp spec, seed int64, budget time.Duration, refs *references, outDir string) (result, map[string]any, error) {
	log := &spanLog{t0: time.Now()}
	w, _, failed, err := setUp(sp, seed, refs, log)
	if err != nil {
		return result{}, nil, err
	}
	vals := map[string]float64{}
	var attempted, opFailed int
	switch b := w.(type) {
	case *serveBench:
		attempted, opFailed, err = traceServe(b, budget, log, vals)
	case *paperBench:
		attempted, opFailed = tracePaper(b, budget, log, vals)
	}
	if err != nil {
		return result{}, nil, err
	}
	failed += opFailed
	res := result{
		Correct:   failed == 0,
		Attempted: attempted + 1,
		Failed:    failed,
		Metrics:   metricsOf(perLayer, vals),
	}
	spanFile, err := log.write(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err != nil {
		return result{}, nil, err
	}
	meta := w.meta()
	meta["ops"] = attempted
	meta["spans"] = len(log.spans)
	meta["span_file"] = spanFile
	return res, meta, nil
}

// traceServe splits the budget in three: untraced ops for timing and
// allocation counts, untraced ops under the CPU profiler for the layer
// shares, and ops with a trace recorder and metrics registry attached
// for the counts and the tracing overhead.
func traceServe(b *serveBench, budget time.Duration, log *spanLog, vals map[string]float64) (attempted, failed int, err error) {
	third := budget / 3
	vals["workload.generate_ms"] = b.genTime.Seconds() * 1e3
	note := func(rep *dsv3.ServeReport, k int, err error) {
		attempted++
		if err == nil {
			err = b.check(rep, k)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			failed++
		}
	}

	// Replay the traces the warm-up did not, so the engine's buffers have
	// grown before anything is counted.
	root := log.begin("warm", 0)
	for i := 1; i < len(b.traces); i++ {
		s := log.begin("Engine.Run", root)
		rep, k, _, err := b.run()
		log.end(s)
		note(rep, k, err)
	}
	log.end(root)

	// Untraced timing.
	root = log.begin("untraced", 0)
	var walls, allocs, gcs []float64
	wallsByTrace := map[int][]float64{}
	for start := time.Now(); len(walls) == 0 || time.Since(start) < third; {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := log.begin("Engine.Run", root)
		rep, k, st, err := b.run()
		log.end(s)
		runtime.ReadMemStats(&m1)
		note(rep, k, err)
		walls = append(walls, st.wall.Seconds())
		wallsByTrace[k] = append(wallsByTrace[k], st.wall.Seconds())
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
	}
	log.end(root)
	untraced := median(walls)
	vals["servesim.run_ms"] = untraced * 1e3
	vals["runtime.alloc_mb"] = median(allocs)
	vals["runtime.gc_cycles"] = median(gcs)

	// CPU profile of Engine.Run. Reports are checked after the profiler
	// stops, so only the engine and the runtime show in the profile.
	root = log.begin("profiled", 0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return attempted, failed, fmt.Errorf("start CPU profile: %w", err)
	}
	type replay struct {
		rep *dsv3.ServeReport
		k   int
		err error
	}
	var replays []replay
	for start := time.Now(); len(replays) == 0 || time.Since(start) < third; {
		s := log.begin("Engine.Run", root)
		rep, k, _, err := b.run()
		log.end(s)
		replays = append(replays, replay{rep, k, err})
	}
	pprof.StopCPUProfile()
	log.end(root)
	for _, r := range replays {
		note(r.rep, r.k, r.err)
	}
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return attempted, failed, err
	}
	for bucket, share := range bucketShares(p) {
		vals["profile."+bucket] = share
	}

	// Traced ops: a fresh recorder and registry per op. The counts come
	// from the last one, with the Report of the same replay.
	root = log.begin("traced", 0)
	var traced []float64
	var rec *dsv3.ServeTraceRecorder
	var reg *dsv3.ServeMetricsRegistry
	var last *dsv3.ServeReport
	var lastK int
	for start := time.Now(); len(traced) == 0 || time.Since(start) < third; {
		rec, reg, last = nil, nil, nil
		runtime.GC() // drop the previous op's trace outside the timing
		s := log.begin("AttachTracer", root)
		rec = dsv3.NewServeTraceRecorder()
		reg = dsv3.NewServeMetricsRegistry(0)
		b.eng.AttachTracer(rec)
		b.eng.AttachMetrics(reg)
		log.end(s)
		s = log.begin("Engine.Run", root)
		rep, k, st, err := b.run()
		log.end(s)
		b.eng.AttachTracer(nil)
		b.eng.AttachMetrics(nil)
		note(rep, k, err)
		traced = append(traced, st.wall.Seconds())
		last, lastK = rep, k
	}
	log.end(root)
	if last == nil {
		return attempted, failed, errors.New("the last traced op failed")
	}
	s := log.begin("summarize", 0)
	serveCounts(last, rec, reg, vals)
	log.end(s)
	// Untraced op time of the traced op's trace, per trace event. A trace
	// not replayed untraced falls back to the median over all traces.
	perEvent := untraced
	if ws := wallsByTrace[lastK]; len(ws) > 0 {
		perEvent = median(ws)
	}
	vals["servesim.host_us_per_event"] = perEvent * 1e6 / float64(rec.Events())
	vals["obs.trace_overhead_frac"] = (median(traced) - untraced) / untraced
	return attempted, failed, nil
}

// serveCounts fills the count metrics of one op from its Report, its
// trace and its sampled metrics.
func serveCounts(rep *dsv3.ServeReport, rec *dsv3.ServeTraceRecorder, reg *dsv3.ServeMetricsRegistry, vals map[string]float64) {
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	vals["servesim.events"] = float64(rec.Events())
	vals["servesim.decode_steps"] = float64(rep.DecodeSteps)
	vals["servesim.mean_batch"] = rep.MeanBatch
	vals["servesim.completed"] = float64(rep.Completed)
	vals["servesim.failed"] = float64(rep.Failed)
	vals["servesim.shed"] = float64(rep.Shed)
	vals["kvtier.offloads"] = float64(rep.KVOffloads)
	vals["kvtier.reloads"] = float64(rep.KVReloads)
	vals["kvtier.demotions"] = float64(rep.TierDemotions)
	vals["kvtier.drops"] = float64(rep.TierDrops)
	vals["kvtier.prefix_hit_ratio"] = ratio(rep.PrefixHits, rep.PrefixHits+rep.PrefixMisses)
	vals["kvtier.reload_stall_s"] = float64(rep.ReloadStall)
	vals["kv.preemptions"] = float64(rep.Preemptions)
	vals["kv.peak_occupancy"] = rep.PeakKVOccupancy
	for _, in := range rep.Incidents {
		vals["resilience.incidents."+in.Kind]++
	}
	vals["resilience.retry_amplification"] = rep.RetryAmplification
	vals["resilience.sdc_caught_ratio"] = ratio(rep.SDCDetected, rep.CorruptSteps)
	vals["resilience.hedge_win_ratio"] = ratio(rep.HedgeWins, rep.Hedges)
	vals["resilience.hedge_wasted_tokens"] = float64(rep.HedgeWastedTokens)

	for _, c := range rec.EventCounts() {
		if c.Kind == "compute" && c.Name == "prefill" {
			vals["servesim.prefill_slices"] = float64(c.N)
		}
	}
	for _, row := range rec.PhaseTotalsTable().Rows {
		if total, ok := row[1].Value.(float64); ok {
			vals["servesim."+row[0].Text+"_s"] = total
		}
	}
	resolved := rep.Completed + rep.Failed + rep.Shed
	vals["obs.breakdown_shortfall"] = float64(resolved - len(rec.Breakdowns()))
	vals["obs.metric_samples"] = float64(reg.Samples())
}

// bucketOf names the layer a servesim frame belongs to, by source file
// and, within servesim.go, by function. It returns "" for frames that
// belong to their caller's layer: routers (called from both dispatch
// and the hand-off), trace hooks, FIFOs and small helpers.
func bucketOf(f profFrame) string {
	const pkg = "dsv3/internal/servesim."
	if !strings.HasPrefix(f.name, pkg) {
		return ""
	}
	fn := strings.TrimPrefix(f.name, pkg)
	if i := strings.Index(fn, ".func"); i >= 0 {
		fn = fn[:i]
	}
	switch path.Base(f.file) {
	case "sched.go":
		return "sched"
	case "kvtier.go":
		return "kvtier"
	case "fault.go", "hazard.go":
		return "resilience"
	case "report.go":
		return "report"
	case "shard.go":
		return "shard"
	case "latency.go":
		return "latency"
	case "kv.go":
		return "kv_account"
	case "router.go", "trace.go":
		return ""
	case "servesim.go":
		if b, ok := servesimBuckets[fn]; ok {
			return b
		}
	}
	return "loop"
}

// servesimBuckets assigns the functions of servesim.go. Unlisted ones
// (Run, processEvent, sampleUpTo) are the event loop itself.
var servesimBuckets = map[string]string{
	"(*Engine).schedule":             "sched",
	"(*Engine).scheduleEpoch":        "sched",
	"(*eventHeap).push":              "sched",
	"(*eventHeap).pop":               "sched",
	"eventLess":                      "sched",
	"(*Engine).dispatch":             "dispatch",
	"(*Engine).shouldShed":           "dispatch",
	"(*Engine).purgeLostHead":        "dispatch",
	"(*Engine).prefillDone":          "handoff",
	"(*Engine).emitFirstToken":       "handoff",
	"(*Engine).notePeakOcc":          "kv_account",
	"(*Engine).fleetSnapshot":        "kv_account",
	"(*Engine).startStep":            "step",
	"(*Engine).stepDone":             "step",
	"(*Engine).colocatedPrefillDone": "step",
	"(*Engine).complete":             "step",
	"(*Engine).pickVictim":           "step",
	"(*decodeUnit).reset":            "step",
	"(*Engine).applyFault":           "resilience",
	"(*Engine).randomCrash":          "resilience",
	"(*Engine).crashPrefill":         "resilience",
	"(*Engine).crashDecode":          "resilience",
	"(*Engine).orphan":               "resilience",
	"(*Engine).noteHealth":           "resilience",
	"(*Engine).recountIdlePrefills":  "resilience",
	"(*Engine).finishRun":            "report",
	"(*fifo).push":                   "",
	"(*fifo).pop":                    "",
	"(*fifo).peek":                   "",
	"(*fifo).len":                    "",
	"(*fifo).reset":                  "",
	"(*reqState).remaining":          "",
	"(*reqState).ctxForPrefill":      "",
	"clearPtrs":                      "",
}

// bucketShares attributes each CPU sample to the innermost servesim
// frame that names a layer. Samples with no Engine.Run frame are
// runtime work off the engine's stack (garbage collection, the
// scheduler). Shares are of all samples.
func bucketShares(p *cpuProfile) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.count
		bucket := "runtime"
		inRun := false
		for _, f := range s.stack {
			if f.name == "dsv3/internal/servesim.(*Engine).Run" {
				inRun = true
				break
			}
		}
		if inRun {
			bucket = "loop"
			for _, f := range s.stack {
				if b := bucketOf(f); b != "" {
					bucket = b
					break
				}
			}
		}
		counts[bucket] += s.count
	}
	out := map[string]float64{}
	for b, n := range counts {
		out[b] = float64(n) / float64(total)
	}
	return out
}

// paperGroups maps each catalogue experiment to the substrate model
// that does its work; unlisted experiments are analytic models.
var paperGroups = map[string]string{
	"figure5":   "netsim",
	"figure6":   "netsim",
	"figure8":   "netsim",
	"planefail": "netsim",
	"figure7":   "deepep",
	"fp8":       "fp8train",
	"accum":     "quant",
	"logfmt":    "quant",
	"sdc":       "quant",
	"nodelimit": "moe",
}

// tracePaper runs paper ops for the whole budget and reports the
// medians of the per-substrate experiment times each child measured.
func tracePaper(b *paperBench, budget time.Duration, log *spanLog, vals map[string]float64) (attempted, failed int) {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for start := time.Now(); attempted == 0 || time.Since(start) < budget; {
		s := log.begin("paper.op", 0)
		opStart := log.now()
		_, err := b.op()
		log.end(s)
		attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			failed++
			continue
		}
		rep := b.last
		group := map[string]float64{}
		var busy, emit, critical float64
		for _, e := range rep.Experiments {
			d := e.End - e.Start
			// Child times are relative to its fan-out start; the span
			// places them from the op's start.
			log.add(e.Name, s, opStart+int64(e.Start*1e6), opStart+int64(e.End*1e6))
			g, ok := paperGroups[e.Name]
			switch {
			case ok:
			case strings.HasPrefix(e.Name, "serve"):
				g = "servesim.catalogue"
			default:
				g = "analytic"
			}
			group[g] += d
			busy += d
			emit += e.EmitMS
			critical = max(critical, d)
		}
		for _, g := range []string{"netsim", "deepep", "fp8train", "quant", "moe", "analytic"} {
			add(g+".ms", group[g])
		}
		add("servesim.catalogue_ms", group["servesim.catalogue"])
		add("results.emit_ms", emit)
		add("paper.critical_ms", critical)
		add("parallel.busy_frac", busy/(float64(rep.Workers)*rep.WallMS))
	}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	return attempted, failed
}

// spanLog keeps the traced run's spans in memory until it ends. A nil
// log records nothing, so timed runs pay nothing for it.
type spanLog struct {
	t0    time.Time
	spans []span
}

// span is one timed call. Times are nanoseconds since the run began;
// Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	return l.add(name, parent, l.now(), 0)
}

func (l *spanLog) add(name string, parent int, start, end int64) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = l.now()
}

// write saves the spans as JSON under dir and returns the file path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	return p, os.WriteFile(p, b, 0o644)
}
