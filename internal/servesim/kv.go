package servesim

import (
	"fmt"

	"dsv3/internal/model"
	"dsv3/internal/units"
)

// KVConfig sizes the paged KV-cache pool of one decode (or colocated)
// instance. The per-token footprint comes from the model's attention
// design (model.Config.KVCacheBytesPerToken — Table 1), which is how
// MLA's compressed cache translates directly into serving capacity.
type KVConfig struct {
	// CapacityBytes is the HBM left for KV after weights and
	// activations.
	CapacityBytes units.Bytes
	// PageTokens is the allocation granularity in tokens (vLLM-style
	// paging; 64 by default).
	PageTokens int
	// BytesPerElem is the cached element width (1 for FP8 KV).
	BytesPerElem float64
}

// Validate checks the configuration.
func (k KVConfig) Validate() error {
	if k.CapacityBytes <= 0 || k.PageTokens <= 0 || k.BytesPerElem <= 0 {
		return fmt.Errorf("servesim: non-positive KV config %+v", k)
	}
	return nil
}

// PagesFor returns the pages a context of tokens occupies.
func (k KVConfig) PagesFor(tokens int) int {
	return (tokens + k.PageTokens - 1) / k.PageTokens
}

// TotalPages returns the pool size for the given model.
func (k KVConfig) TotalPages(m *model.Config) int {
	perToken := m.KVCacheBytesPerToken(k.BytesPerElem)
	pageBytes := perToken * float64(k.PageTokens)
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
	cfg   KVConfig
	total int
	used  int
	fleet *int
}

func newKVPool(cfg KVConfig, m *model.Config) *kvPool {
	return &kvPool{cfg: cfg, total: cfg.TotalPages(m), fleet: new(int)}
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

// occupancy returns the used fraction in [0,1].
func (p *kvPool) occupancy() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.used) / float64(p.total)
}
