package experiments

// The determinism contract of the parallel engine (DESIGN.md): every
// sweep-shaped runner must render byte-identical output whether it runs
// serially or fanned out over the worker pool. These tests execute each
// parallel runner twice — workers=1 and workers=8 — and compare the
// rendered artifacts byte for byte.

import (
	"bytes"
	"testing"

	"dsv3/internal/deepep"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/units"
)

func renderWithWorkers(t *testing.T, workers int, f func() (string, error)) string {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	out, err := f()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return out
}

func assertParity(t *testing.T, f func() (string, error)) {
	t.Helper()
	serial := renderWithWorkers(t, 1, f)
	par := renderWithWorkers(t, 8, f)
	if serial != par {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if len(serial) == 0 {
		t.Error("runner produced empty output")
	}
}

// TestParallelSerialParity renders runners at 1 and 8 workers. The
// figure5, figure6 and planefail cases use inputs the catalogue does
// not run; the rest render quick catalogue entries.
func TestParallelSerialParity(t *testing.T) {
	type parityCase struct {
		name string
		f    func() (string, error)
	}
	cases := []parityCase{
		{"figure5", func() (string, error) {
			pts, err := Figure5([]int{16, 32}, []units.Bytes{128 * units.MiB, 1 * units.GiB})
			if err != nil {
				return "", err
			}
			return Figure5Result(pts).Text(), nil
		}},
		{"figure6", func() (string, error) {
			pts, err := Figure6([]units.Bytes{64, 16 * units.MiB, 1 * units.GiB})
			if err != nil {
				return "", err
			}
			return Figure6Result(pts).Text(), nil
		}},
		{"planefail", func() (string, error) {
			rows, err := PlaneFailure([]int{0, 2})
			if err != nil {
				return "", err
			}
			return PlaneFailureResult(rows).Text(), nil
		}},
	}
	for _, name := range []string{
		"figure7", "figure8", "table4", "serve", "serve-disagg", "serve-spec",
		"serve-router", "serve-capacity", "serve-failure", "serve-shed",
		"serve-kvtier", "serve-trace", "accum", "logfmt", "nodelimit",
	} {
		r, ok := Find(name)
		if !ok {
			t.Fatalf("no catalogue entry %q", name)
		}
		cases = append(cases, parityCase{name, func() (string, error) {
			res, err := r.Run(Options{Quick: true})
			if err != nil {
				return "", err
			}
			return res.Text(), nil
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { assertParity(t, c.f) })
	}
}

// The determinism contract extends to every emitter: the JSON and text
// encodings of every catalogue runner must be byte-identical between
// serial and parallel execution. The serial result must also be
// well-formed: correctly labelled and seeded, with at least one table
// and rectangular rows. (Byte-level text fidelity is pinned by the
// .txt golden corpus.)
func TestCatalogueEmitterParity(t *testing.T) {
	run := func(t *testing.T, workers int, r Runner) (*results.Result, []byte) {
		t.Helper()
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		res, err := r.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", r.Name, workers, err)
		}
		var buf bytes.Buffer
		if err := results.EmitJSON(&buf, res); err != nil {
			t.Fatalf("%s: emit: %v", r.Name, err)
		}
		return res, buf.Bytes()
	}
	for _, r := range Catalogue() {
		t.Run(r.Name, func(t *testing.T) {
			res, serial := run(t, 1, r)
			parRes, par := run(t, 8, r)
			if !bytes.Equal(serial, par) {
				t.Errorf("parallel JSON differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
			}
			if st, pt := res.Text(), parRes.Text(); st != pt {
				t.Errorf("parallel text differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
			}
			if res.Experiment != r.Name {
				t.Errorf("result labelled %q", res.Experiment)
			}
			if res.Meta.Seed != r.Seed {
				t.Errorf("result seed %d != catalogue seed %d", res.Meta.Seed, r.Seed)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for ti, tab := range res.Tables {
				for ri, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %d row %d: %d cells for %d columns", ti, ri, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

// The worker count must never leak into the structured results either —
// spot-check the numeric (pre-render) layer on the heaviest runner.
func TestFigure7NumericParity(t *testing.T) {
	run := func(workers int) []deepep.EPSweepPoint {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		pts, err := Figure7()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial := run(1)
	par := run(8)
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("EP%d: serial %+v != parallel %+v", serial[i].Ranks, serial[i], par[i])
		}
	}
}
