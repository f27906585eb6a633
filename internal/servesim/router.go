package servesim

import (
	"fmt"
	"math/rand"
	"sort"

	"dsv3/internal/parallel"
)

// RouterPolicy names a built-in instance-selection policy. The zero
// value (RouteLeastKV) is the pre-refactor behavior, so zero-value and
// historical configurations route identically.
type RouterPolicy int

const (
	// RouteLeastKV picks the candidate with the most free KV pages
	// (ties: lowest instance index) — the KV-pressure-aware default.
	RouteLeastKV RouterPolicy = iota
	// RouteRoundRobin cycles through instance indices, skipping
	// instances absent from the candidate set.
	RouteRoundRobin
	// RoutePowerOfTwo samples two distinct candidates from the policy's
	// seeded stream and keeps the less loaded one — the classic
	// load-balancing compromise between random and global scans.
	RoutePowerOfTwo
	// RouteShortestQueue picks the candidate with the fewest queued or
	// running requests (ties: most free KV, then lowest index).
	RouteShortestQueue
)

// String implements fmt.Stringer with the CLI spellings.
func (p RouterPolicy) String() string {
	switch p {
	case RouteLeastKV:
		return "least-kv"
	case RouteRoundRobin:
		return "round-robin"
	case RoutePowerOfTwo:
		return "p2c"
	case RouteShortestQueue:
		return "shortest-queue"
	}
	return fmt.Sprintf("RouterPolicy(%d)", int(p))
}

// RouterPolicies returns every built-in policy in definition order.
func RouterPolicies() []RouterPolicy {
	return []RouterPolicy{RouteLeastKV, RouteRoundRobin, RoutePowerOfTwo, RouteShortestQueue}
}

// ParseRouterPolicy resolves a policy by its String spelling.
func ParseRouterPolicy(s string) (RouterPolicy, error) {
	for _, p := range RouterPolicies() {
		if s == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("servesim: unknown router policy %q (want least-kv, round-robin, p2c, or shortest-queue)", s)
}

// Validate checks the policy is a known one.
func (p RouterPolicy) Validate() error {
	if p < RouteLeastKV || p > RouteShortestQueue {
		return fmt.Errorf("servesim: unknown router policy %d", int(p))
	}
	return nil
}

// InstanceLoad is the router-visible snapshot of one candidate
// instance at decision time.
type InstanceLoad struct {
	// Instance is the engine's instance index.
	Instance int
	// Queue counts requests queued or running on the instance
	// (pending + active batch for decode instances; 0 for the idle
	// prefill instances offered as candidates).
	Queue int
	// FreeKV is the instance's free KV pages (0 for prefill instances,
	// which hold no cache).
	FreeKV int
}

// Candidates is a router's read-only view of one decision's candidate
// set: Len candidates ordered by ascending Instance, each snapshot built
// on demand by Load. A policy that inspects two candidates (p2c) pays
// for two, however wide the fleet.
type Candidates interface {
	Len() int
	Load(k int) InstanceLoad
}

// Router is a deterministic instance-selection policy. The engine
// consults one router instance for prefill dispatch and another for the
// prefill->decode hand-off, so per-policy state (round-robin cursors,
// the power-of-two RNG stream) never couples the two decision points.
//
// Pick returns a candidate index in [0, c.Len()) (never an Instance
// id); c is non-empty. Implementations must be pure functions of (own
// state, c) — any randomness has to come from a stream seeded at
// construction — so a (Config, Workload, Seed) triple keeps producing
// byte-identical reports.
type Router interface {
	Pick(c Candidates) int
}

// NewRouter builds a fresh router for the policy. seed feeds the
// policies that randomize (power-of-two choices); deterministic
// policies ignore it.
func NewRouter(policy RouterPolicy, seed int64) Router {
	switch policy {
	case RouteRoundRobin:
		return &roundRobinRouter{last: -1}
	case RoutePowerOfTwo:
		return &p2cRouter{rng: parallel.NewRand(seed)}
	case RouteShortestQueue:
		return shortestQueueRouter{}
	default:
		return leastKVRouter{}
	}
}

// leastKVRouter picks the most free KV pages, first maximum on ties —
// exactly the scan the engine ran before routing became pluggable, so
// the serve* goldens are reproduced byte for byte.
type leastKVRouter struct{}

func (leastKVRouter) Pick(c Candidates) int {
	best, bestFree := 0, -1
	for i := 0; i < c.Len(); i++ {
		if free := c.Load(i).FreeKV; free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// roundRobinRouter cycles over instance indices: the next pick is the
// smallest candidate Instance strictly greater than the last pick,
// wrapping to the smallest candidate overall. Cycling over Instance ids
// (not candidate positions) keeps the rotation meaningful when the
// candidate set shrinks, e.g. when only some prefill units are idle.
type roundRobinRouter struct {
	last int
}

func (r *roundRobinRouter) Pick(c Candidates) int {
	pick := -1
	for i := 0; i < c.Len(); i++ {
		if c.Load(i).Instance > r.last {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0 // wrapped: candidates ascend, so 0 is the smallest
	}
	r.last = c.Load(pick).Instance
	return pick
}

// p2cRouter implements power-of-two choices: sample two distinct
// candidates, keep the less loaded. All randomness comes from the
// router's own seeded stream so the engine's RNG (MTP acceptance) is
// untouched by routing decisions.
type p2cRouter struct {
	rng *rand.Rand
}

func (r *p2cRouter) Pick(c Candidates) int {
	n := c.Len()
	if n == 1 {
		return 0
	}
	i := r.rng.Intn(n)
	j := r.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if lessLoaded(c.Load(j), c.Load(i)) {
		return j
	}
	return i
}

// shortestQueueRouter picks the fewest queued/running requests, with
// free KV then instance index breaking ties.
type shortestQueueRouter struct{}

func (shortestQueueRouter) Pick(c Candidates) int {
	best := 0
	for i := 1; i < c.Len(); i++ {
		if lessLoaded(c.Load(i), c.Load(best)) {
			best = i
		}
	}
	return best
}

// lessLoaded orders candidates by queue length, then free KV pages
// (more is better), then instance index — strict, so every comparison
// is deterministic.
func lessLoaded(a, b InstanceLoad) bool {
	if a.Queue != b.Queue {
		return a.Queue < b.Queue
	}
	if a.FreeKV != b.FreeKV {
		return a.FreeKV > b.FreeKV
	}
	return a.Instance < b.Instance
}

// candidates is the engine's Candidates over one of its ascending
// instance lists (Engine.idle or Engine.servable), minus the entry at
// position skip (-1 skips none). Decode loads are read live from the
// units; idle prefill units carry only their index.
type candidates struct {
	e      *Engine
	ids    []int
	skip   int
	decode bool
}

func (c *candidates) Len() int {
	if c.skip >= 0 {
		return len(c.ids) - 1
	}
	return len(c.ids)
}

// pos maps a candidate index to its position in ids.
func (c *candidates) pos(k int) int {
	if c.skip >= 0 && k >= c.skip {
		return k + 1
	}
	return k
}

func (c *candidates) Load(k int) InstanceLoad {
	inst := c.ids[c.pos(k)]
	if !c.decode {
		return InstanceLoad{Instance: inst}
	}
	d := &c.e.decodes[inst]
	return InstanceLoad{Instance: inst, Queue: d.pending.len() + len(d.active), FreeKV: d.kv.free()}
}

// pickPrefill routes the next dispatch to an idle prefill unit and
// takes the unit off the idle list. The idle list must be non-empty.
func (e *Engine) pickPrefill() int {
	e.view = candidates{e: e, ids: e.idle, skip: -1}
	k := e.prefillRouter.Pick(&e.view)
	inst := e.idle[k]
	e.idle = append(e.idle[:k], e.idle[k+1:]...)
	return inst
}

// pickDecode routes a finished prefill to a servable decode unit; ok is
// false when none is servable. A racing hedge copy avoids its twin's
// unit when any alternative exists, so the race spans failure domains
// instead of queueing twice on the same straggler.
func (e *Engine) pickDecode(req *reqState) (inst int, ok bool) {
	ids := e.servable
	if len(ids) == 0 {
		return 0, false
	}
	skip := -1
	if t := req.twin; t != nil && req.hstate == hzRacing && len(ids) > 1 {
		if i := sort.SearchInts(ids, t.inst); i < len(ids) && ids[i] == t.inst {
			skip = i
		}
	}
	e.view = candidates{e: e, ids: ids, skip: skip, decode: true}
	k := e.decodeRouter.Pick(&e.view)
	return ids[e.view.pos(k)], true
}

// rebuildCandidates rescans the fleet into the idle-prefill and
// servable-decode lists. Health transitions call it (setHealth); the
// hot paths keep the idle list current without a scan.
func (e *Engine) rebuildCandidates() {
	e.idle = e.idle[:0]
	for i := range e.prefills {
		if p := &e.prefills[i]; !p.busy && p.health.servable() {
			e.idle = append(e.idle, i)
		}
	}
	e.servable = e.servable[:0]
	for i := range e.decodes {
		if e.decodes[i].health.servable() {
			e.servable = append(e.servable, i)
		}
	}
}

// insertSorted adds inst, absent before, to the ascending list ids.
func insertSorted(ids []int, inst int) []int {
	i := sort.SearchInts(ids, inst)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = inst
	return ids
}
