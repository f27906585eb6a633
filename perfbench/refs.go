package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"

	"dsv3"
)

// refSeeds is how many seeds (0..refSeeds-1) the stored references
// cover for each serving workload. A run on another seed checks every
// replay of a trace against that trace's first replay instead.
const refSeeds = 64

//go:embed testdata/refs.json
var refsJSON []byte

// references holds the reference digests recorded by --regen.
type references struct {
	// Serve maps workload -> seed -> the Report JSON digest of each of
	// the seed's traces.
	Serve map[string]map[string][]string `json:"serve"`
	// Paper maps experiment -> digest of its EmitJSON output.
	Paper map[string]string `json:"paper"`
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("parse testdata/refs.json: %w", err)
	}
	return &r, nil
}

func (r *references) serve(name string, seed int64) ([]string, bool) {
	d, ok := r.Serve[name][strconv.FormatInt(seed, 10)]
	return d, ok
}

// regenerate recomputes every reference digest from the tree it was
// built from and writes them to path. Run it only on a commit whose
// outputs are known to be right; every later run is checked against
// what it writes.
func regenerate(path string) error {
	r := references{Serve: map[string]map[string][]string{}, Paper: map[string]string{}}
	for name := range serveInputs {
		m := map[string][]string{}
		eng := dsv3.NewServeEngine()
		for seed := int64(0); seed < refSeeds; seed++ {
			cfg, traces := serveRun(name, seed)
			for k, tr := range traces {
				rep, err := eng.Run(cfg, tr)
				if err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", name, seed, k, err)
				}
				d, err := reportDigest(rep)
				if err != nil {
					return err
				}
				key := strconv.FormatInt(seed, 10)
				m[key] = append(m[key], d)
			}
		}
		r.Serve[name] = m
	}
	rep, err := runCatalogue(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	for _, e := range rep.Experiments {
		r.Paper[e.Name] = e.Digest
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
