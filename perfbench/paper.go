package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dsv3"
)

// skippedExperiment is left out of the paper workload: the fleet
// workload covers it, and it alone takes longer than the rest of the
// catalogue together.
const skippedExperiment = "serve-fleet"

// paperExperiments returns the catalogue the paper workload runs.
func paperExperiments() []dsv3.ExperimentRunner {
	var out []dsv3.ExperimentRunner
	for _, e := range dsv3.Experiments() {
		if e.Name != skippedExperiment {
			out = append(out, e)
		}
	}
	return out
}

// childExperiment is one experiment's outcome inside a paper op.
type childExperiment struct {
	Name   string  `json:"name"`
	Digest string  `json:"digest"`
	Start  float64 `json:"start_ms"` // since the fan-out began
	End    float64 `json:"end_ms"`
	EmitMS float64 `json:"emit_ms"` // EmitJSON time, included in End-Start
}

// childReport is what one paper op prints.
type childReport struct {
	Workers     int               `json:"workers"`
	WallMS      float64           `json:"wall_ms"`
	Experiments []childExperiment `json:"experiments"`
}

// runCatalogue runs the paper catalogue at full size, fanned out over
// workers goroutines the way dsv3bench does, with the sweeps inside
// each experiment on a pool of the same width. Each result is emitted
// as JSON without wall time, the deterministic form, and digested.
func runCatalogue(workers int) (childReport, error) {
	dsv3.SetParallelWorkers(workers)
	exps := paperExperiments()
	out := make([]childExperiment, len(exps))
	errs := make([]error, len(exps))
	start := time.Now()
	ms := func(t time.Time) float64 { return float64(t.Sub(start).Nanoseconds()) / 1e6 }
	next := make(chan int, len(exps))
	for i := range exps {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				r, err := exps[i].Run(dsv3.RunOptions{})
				if err != nil {
					errs[i] = err
					continue
				}
				t1 := time.Now()
				var buf bytes.Buffer
				if err := dsv3.EmitJSON(&buf, r); err != nil {
					errs[i] = fmt.Errorf("%s: %w", exps[i].Name, err)
					continue
				}
				t2 := time.Now()
				out[i] = childExperiment{
					Name:   exps[i].Name,
					Digest: digest(buf.Bytes()),
					Start:  ms(t0),
					End:    ms(t2),
					EmitMS: float64(t2.Sub(t1).Nanoseconds()) / 1e6,
				}
			}
		}()
	}
	wg.Wait()
	wall := ms(time.Now())
	for _, err := range errs {
		if err != nil {
			return childReport{}, err
		}
	}
	return childReport{Workers: workers, WallMS: wall, Experiments: out}, nil
}

// runPaperChild is the body of one paper op's child process.
func runPaperChild(w io.Writer) error {
	rep, err := runCatalogue(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(rep)
}

// paperBench runs each op in a fresh child process, so the memoized
// plans and cluster caches start cold as they do for a user.
type paperBench struct {
	exe  string
	want map[string]string
	last childReport
}

func setupPaper(_ int64, refs *references, sp *spanLog) (workload, error) {
	root := sp.begin("setup", 0)
	defer sp.end(root)
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	b := &paperBench{exe: exe, want: refs.Paper}
	for _, e := range paperExperiments() {
		if _, ok := b.want[e.Name]; !ok {
			return nil, fmt.Errorf("no reference digest for experiment %q; run with --regen", e.Name)
		}
	}
	s := sp.begin("paper.op", root)
	_, err = b.op()
	sp.end(s)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *paperBench) op() (opStats, error) {
	cmd := exec.Command(b.exe, "--child")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	st := opStats{wall: time.Since(t0)}
	if ps := cmd.ProcessState; ps != nil {
		st.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		return st, fmt.Errorf("paper child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return st, fmt.Errorf("paper child output: %w", err)
	}
	b.last = rep
	if err := b.check(rep); err != nil {
		return st, err
	}
	st.resolved = len(rep.Experiments)
	return st, nil
}

// check compares every experiment's digest with its reference.
func (b *paperBench) check(rep childReport) error {
	if len(rep.Experiments) != len(b.want) {
		return fmt.Errorf("paper: %d experiments, %d references: %w", len(rep.Experiments), len(b.want), errMismatch)
	}
	var bad []string
	for _, e := range rep.Experiments {
		if b.want[e.Name] != e.Digest {
			bad = append(bad, e.Name)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("paper: experiments %v differ from their references: %w", bad, errMismatch)
	}
	return nil
}

func (b *paperBench) meta() map[string]any {
	return map[string]any{
		"experiments_per_op": len(b.want),
		"workers":            runtime.GOMAXPROCS(0),
		"reference":          "stored",
	}
}
