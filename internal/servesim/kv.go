package servesim

import (
	"fmt"

	"dsv3/internal/units"
)

// kvPageTokens is the KV allocation granularity in tokens (vLLM-style
// paging).
const kvPageTokens = 64

// KVConfig sizes the paged KV-cache pool of one decode (or colocated)
// instance. The per-token footprint comes from the model's attention
// design at the latency model's KV element width
// (model.Config.KVCacheBytesPerToken — Table 1), which is how MLA's
// compressed cache translates directly into serving capacity.
type KVConfig struct {
	// CapacityBytes is the HBM left for KV after weights and
	// activations.
	CapacityBytes units.Bytes
}

// Validate checks the configuration.
func (k KVConfig) Validate() error {
	if k.CapacityBytes <= 0 || !finite(k.CapacityBytes) {
		return fmt.Errorf("servesim: KV capacity %v bytes must be positive and finite", k.CapacityBytes)
	}
	return nil
}

// pagesFor returns the pages a context of tokens occupies.
func pagesFor(tokens int) int {
	return (tokens + kvPageTokens - 1) / kvPageTokens
}

// totalPages returns the pool size at the given per-token KV footprint
// (latConsts.kvPerToken).
func (k KVConfig) totalPages(kvPerToken units.Bytes) int {
	pageBytes := kvPerToken * kvPageTokens
	if pageBytes <= 0 {
		return 0
	}
	return int(k.CapacityBytes / pageBytes)
}

// kvPool is the page allocator of one instance: a counter, because
// pages are interchangeable — what matters for the simulation is
// exhaustion, admission, and occupancy, not page identity. Every page
// move also lands in *fleet, the fleet-wide used-page total the engine
// reads without scanning its pools.
type kvPool struct {
	total int
	used  int
	fleet *int
}

// tryAlloc claims n pages, reporting whether they were available.
func (p *kvPool) tryAlloc(n int) bool {
	if p.used+n > p.total {
		return false
	}
	p.used += n
	*p.fleet += n
	return true
}

// release returns n pages to the pool.
func (p *kvPool) release(n int) {
	p.used -= n
	*p.fleet -= n
	if p.used < 0 {
		panic("servesim: kv pool released more pages than allocated")
	}
}

// releaseAll frees the whole pool at once (a crash or quarantine).
func (p *kvPool) releaseAll() {
	*p.fleet -= p.used
	p.used = 0
}

// free returns the available pages.
func (p *kvPool) free() int { return p.total - p.used }
