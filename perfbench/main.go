// Command perfbench is the repository benchmark. It drives the dsv3
// facade from outside on three workloads, checks the output of every
// op against stored reference digests, and prints one JSON result as
// the last line of standard output.
//
//	perfbench --workload fleet|serve-mix|paper --seed N --seconds S --trace 0|1
//	perfbench --regen            # rewrite testdata/refs.json from this tree
//
// The load is a closed loop: one client, one op in flight. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run that reports the per-layer metrics and
// writes its spans under --out. README.md describes the workloads,
// the metrics and what each one should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fleet, serve-mix or paper")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 makes the separate traced run that reports per-layer metrics")
	out := flag.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	regen := flag.Bool("regen", false, "recompute the reference digests and write them to --refs")
	refsPath := flag.String("refs", "perfbench/testdata/refs.json", "reference file --regen writes")
	child := flag.Bool("child", false, "internal: run the paper catalogue once and print its digests")
	flag.Parse()

	// Fix the pool width at the CPU count, so runs on one host compare
	// whatever GOMAXPROCS the environment sets.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *child:
		err = runPaperChild(os.Stdout)
	case *regen:
		err = regenerate(*refsPath)
	default:
		err = bench(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd lists the metrics a timed run reports, in the order
// BENCHMARK.json lists them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"cpu_s", "s"},
	{"rss_peak_mb", "MB"},
}

// metricsOf attaches units to measured values, one per listed metric;
// a metric with no value reports 0.
func metricsOf(list []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opStats is what one op cost.
type opStats struct {
	wall time.Duration
	cpu  time.Duration
	// resolved counts the op's units of work: requests resolved on the
	// serve workloads, experiments on paper.
	resolved int
	// rssKB is the peak RSS of the op's child process (paper only).
	rssKB int64
}

// workload is one benchmark workload after set-up.
type workload interface {
	// op runs one checked op. A non-nil error means the op failed or
	// its output did not match the reference.
	op() (opStats, error)
	// meta describes the workload's inputs for the run metadata.
	meta() map[string]any
}

// spec describes how to set a workload up.
type spec struct {
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	setup  func(seed int64, refs *references, sp *spanLog) (workload, error)
}

var specs = map[string]spec{
	"fleet":     {setups: 3, setup: serveSetup("fleet")},
	"serve-mix": {setups: 25, setup: serveSetup("serve-mix")},
	"paper":     {setups: 3, setup: setupPaper},
}

// errMismatch marks an op whose output differs from its reference.
var errMismatch = errors.New("output mismatch")

func bench(name string, seed int64, seconds float64, trace int, outDir string) error {
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want fleet, serve-mix or paper)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	var (
		res  result
		meta map[string]any
	)
	if trace == 1 {
		res, meta, err = tracedRun(name, sp, seed, budget, refs, outDir)
	} else {
		res, meta, err = timedRun(sp, seed, budget, refs)
	}
	if err != nil {
		return err
	}
	meta["workload"] = name
	meta["seed"] = seed
	meta["seconds"] = seconds
	meta["trace"] = trace
	meta["nproc"] = runtime.NumCPU()
	meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	meta["go_version"] = runtime.Version()
	if err := printJSON(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return printJSON(res)
}

// setUp runs one set-up and times it. It first returns the memory of
// any previous workload to the OS, so each set-up starts as a fresh
// process would and the run's peak RSS is that of one workload. Each
// set-up builds the inputs, the config and the engine and runs one
// checked warm-up op, so setup_s is real work. failed is 1 when the
// warm-up's output mismatched.
func setUp(sp spec, seed int64, refs *references, log *spanLog) (w workload, d time.Duration, failed int, err error) {
	debug.FreeOSMemory()
	t0 := time.Now()
	w, err = sp.setup(seed, refs, log)
	d = time.Since(t0)
	if errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "perfbench: warm-up op failed:", err)
		return w, d, 1, nil
	}
	if err != nil {
		return nil, d, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, d, 0, nil
}

// timedRun measures a workload with tracing off: checked ops back to
// back until they have taken the budget. Set-up i runs once the ops
// have taken i/setups of the budget and replaces the workload, so
// setup_s samples the host across the whole run as the op times do,
// not in one burst at its start.
func timedRun(sp spec, seed int64, budget time.Duration, refs *references) (result, map[string]any, error) {
	var (
		w      workload
		setups []float64
		ops    []opStats
		failed int
		opTime time.Duration // spent in op calls, checks included
	)
	for len(setups) < sp.setups || opTime < budget {
		if len(setups) < sp.setups && opTime >= budget*time.Duration(len(setups))/time.Duration(sp.setups) {
			w = nil // let setUp free the previous workload
			next, d, bad, err := setUp(sp, seed, refs, nil)
			if err != nil {
				return result{}, nil, err
			}
			w = next
			setups = append(setups, d.Seconds())
			failed += bad
			continue
		}
		t0 := time.Now()
		st, err := w.op()
		opTime += time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			failed++
		}
		ops = append(ops, st)
	}

	walls := make([]float64, len(ops))
	cpus := make([]float64, len(ops))
	var sumWall float64
	var rss []float64
	resolved := 0
	for i, st := range ops {
		walls[i] = st.wall.Seconds()
		cpus[i] = st.cpu.Seconds()
		sumWall += walls[i]
		resolved += st.resolved
		if st.rssKB > 0 {
			rss = append(rss, float64(st.rssKB)/1024)
		}
	}
	// In-process workloads report the process high-water mark; paper
	// ops run in child processes and report their median peak.
	rssMB := float64(peakRSSKB()) / 1024
	if len(rss) > 0 {
		rssMB = median(rss)
	}
	attempted := len(ops) + len(setups)
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: metricsOf(endToEnd, map[string]float64{
			"setup_s":          median(setups),
			"wall_s":           sumWall / float64(len(ops)),
			"throughput_per_s": float64(resolved) / opTime.Seconds(),
			"op_ms_p50":        median(walls) * 1e3,
			"cpu_s":            median(cpus),
			"rss_peak_mb":      rssMB,
		}),
	}
	meta := w.meta()
	meta["ops"] = len(ops)
	meta["setup_s_samples"] = len(setups)
	meta["failed_frac"] = float64(failed) / float64(attempted)
	meta["op_ms_p50_samples"] = len(ops)
	// A p90 needs ten samples beyond it; report it only then.
	if len(ops) >= 100 {
		meta["op_ms_p90"] = quantile(walls, 0.9) * 1e3
		meta["op_ms_p90_samples"] = len(ops)
	}
	return res, meta, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// cpuTime returns this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKB returns this process's peak resident set size in KiB.
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
