package servesim

import (
	"encoding/json"
	"testing"

	"dsv3/internal/units"
)

func TestParseRouterPolicyRoundTrip(t *testing.T) {
	for _, p := range RouterPolicies() {
		got, err := ParseRouterPolicy(p.String())
		if err != nil {
			t.Fatalf("ParseRouterPolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("ParseRouterPolicy(%q) = %v", p.String(), got)
		}
	}
	if _, err := ParseRouterPolicy("no-such-policy"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := RouterPolicy(99).Validate(); err == nil {
		t.Error("out-of-range policy validated")
	}
}

func TestLeastKVRouterPick(t *testing.T) {
	r := NewRouter(RouteLeastKV, 1)
	loads := loadList{
		{Instance: 0, FreeKV: 3},
		{Instance: 1, FreeKV: 9},
		{Instance: 2, FreeKV: 9},
	}
	if got := r.Pick(loads); got != 1 {
		t.Errorf("least-kv picked %d, want first maximum 1", got)
	}
	// All-equal candidates (the prefill dispatch case, FreeKV 0) tie
	// to the lowest index — the pre-refactor scan order.
	flat := loadList{{Instance: 2}, {Instance: 5}}
	if got := r.Pick(flat); got != 0 {
		t.Errorf("least-kv tie pick %d, want 0", got)
	}
}

func TestRoundRobinRouterCycles(t *testing.T) {
	r := NewRouter(RouteRoundRobin, 1)
	full := loadList{{Instance: 0}, {Instance: 1}, {Instance: 2}}
	var got []int
	for i := 0; i < 7; i++ {
		k := r.Pick(full)
		got = append(got, full[k].Instance)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", got, want)
		}
	}
	// A shrunken candidate set still advances past the cursor.
	if k := r.Pick(loadList{{Instance: 0}, {Instance: 2}}); k != 1 {
		t.Errorf("after instance 0, candidates {0,2} picked index %d, want 1 (instance 2)", k)
	}
}

func TestShortestQueueRouterPick(t *testing.T) {
	r := NewRouter(RouteShortestQueue, 1)
	loads := loadList{
		{Instance: 0, Queue: 4, FreeKV: 10},
		{Instance: 1, Queue: 2, FreeKV: 1},
		{Instance: 2, Queue: 2, FreeKV: 8},
	}
	if got := r.Pick(loads); got != 2 {
		t.Errorf("shortest-queue picked %d, want 2 (queue tie broken by free KV)", got)
	}
}

// The p2c stream is seeded at construction: two routers with the same
// seed must produce the same pick sequence, different seeds must not.
func TestPowerOfTwoDeterministic(t *testing.T) {
	loads := loadList{
		{Instance: 0, Queue: 1, FreeKV: 5},
		{Instance: 1, Queue: 3, FreeKV: 2},
		{Instance: 2, Queue: 0, FreeKV: 9},
		{Instance: 3, Queue: 2, FreeKV: 1},
	}
	seq := func(seed int64) []int {
		r := NewRouter(RoutePowerOfTwo, seed)
		out := make([]int, 64)
		for i := range out {
			out[i] = r.Pick(loads)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at pick %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical p2c pick streams")
	}
}

// routerTestConfig squeezes KV so routing decisions matter: uneven
// placement shows up as preemptions and latency differences.
func routerTestConfig(policy RouterPolicy) Config {
	cfg := V3ServeConfig()
	cfg.Fleet.Router = policy
	cfg.KV.HBM.CapacityBytes = 2 * units.GB
	return cfg
}

// Least-KV must stay the zero value of RouterPolicy: zero-value and
// historical Configs route with the pre-refactor policy, which is what
// keeps the serve* golden corpus byte-identical across the refactor
// (the goldens, regenerated unchanged, are the actual equivalence
// oracle — this pins the default from drifting to another policy).
func TestLeastKVIsZeroValueDefault(t *testing.T) {
	var zero RouterPolicy
	if zero != RouteLeastKV {
		t.Fatalf("zero-value RouterPolicy is %v, want least-kv", zero)
	}
	if got := V3ServeConfig().Fleet.Router; got != RouteLeastKV {
		t.Errorf("V3ServeConfig routes with %v, want least-kv", got)
	}
}

// A single-candidate fleet leaves every policy exactly one legal
// answer: index 0 — the degenerate case the health-aware dispatch
// produces when crashes or drains whittle the candidate set down.
func TestRouterPickSingleCandidate(t *testing.T) {
	single := loadList{{Instance: 3, Queue: 7, FreeKV: 2}}
	for _, p := range RouterPolicies() {
		r := NewRouter(p, 1)
		for i := 0; i < 3; i++ {
			if got := r.Pick(single); got != 0 {
				t.Errorf("%v picked %d from a single candidate, want 0", p, got)
			}
		}
	}
}

// Every policy yields a deterministic report, every request completes,
// and the policies genuinely route differently under KV pressure.
func TestRouterPoliciesDeterministicAndDistinct(t *testing.T) {
	w := testWorkload(10, 200)
	encodings := map[string]string{}
	for _, p := range RouterPolicies() {
		cfg := routerTestConfig(p)
		a, _ := json.Marshal(mustRun(t, cfg, w))
		b, _ := json.Marshal(mustRun(t, cfg, w))
		if string(a) != string(b) {
			t.Errorf("%v: same seed produced different reports", p)
		}
		var rep Report
		if err := json.Unmarshal(a, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Completed != w.Requests {
			t.Errorf("%v: completed %d of %d requests", p, rep.Completed, w.Requests)
		}
		encodings[string(a)] = p.String()
	}
	if len(encodings) < 2 {
		t.Errorf("all %d policies produced identical reports — routing is not pluggable", len(RouterPolicies()))
	}
}

// loadList is a Candidates over materialized snapshots.
type loadList []InstanceLoad

func (l loadList) Len() int                { return len(l) }
func (l loadList) Load(k int) InstanceLoad { return l[k] }
