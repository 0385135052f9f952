package serve

import (
	"sync"

	"desc/internal/link"
)

// poolKey is the canonical geometry a pool is keyed by: the fully
// defaulted Spec, so "desc-zero at the design point" spelled explicitly
// and spelled by omission share one pool.
type poolKey struct {
	spec link.Spec
}

// pooled is one reusable data-plane worker: a constructed link plus the
// request-scoped scratch buffers that let the hot path run
// allocation-free in the steady state (the same reuse discipline as the
// PR-4 codec scratch, one level up).
type pooled struct {
	link link.Link
	// raw holds the request payload (decoded base64 or the raw body).
	raw []byte
	// out holds the receiver-view output for decode requests.
	out []byte
	// costs holds per-block costs for per_block requests, and wire
	// the same costs in the response's form.
	costs []link.Cost
	wire  []blockCost
}

// maxPools bounds the distinct geometries the server keeps codec pools
// for, mirroring the maxRunners cap on the control plane: past the cap
// the oldest pool is dropped (its codecs fall to the GC), so a client
// sweeping block_bits/data_wires cannot grow the map without bound. The
// steady mixed workload touches a handful of geometries; an evicted one
// merely pays reconstruction on its next request.
const maxPools = 64

// codecPools hands out pooled codecs keyed by canonical Spec — one
// sync.Pool per distinct geometry. sync.Pool is itself sharded per-P, so
// concurrent clients of one scheme contend on no lock once the pool
// exists; the outer map takes only a read lock per request.
type codecPools struct {
	mu    sync.RWMutex
	pools map[poolKey]*sync.Pool
	// order is the FIFO eviction queue for the maxPools cap.
	order []poolKey
}

// get returns a pooled codec for spec, constructing the scheme (and
// installing the pool) on first use. The returned codec's link is Reset,
// so every request starts from fresh-instance state regardless of what
// earlier requests pushed through it — the isolation contract the soak
// test pins.
func (p *codecPools) get(spec link.Spec) (*pooled, error) {
	key := poolKey{spec: spec}
	p.mu.RLock()
	sp := p.pools[key]
	p.mu.RUnlock()
	if sp == nil {
		// Validate the geometry by constructing once before a pool is
		// installed, so an invalid Spec never creates an empty pool.
		l, err := link.New(spec)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		if existing := p.pools[key]; existing != nil {
			sp = existing
		} else {
			if len(p.order) >= maxPools {
				delete(p.pools, p.order[0])
				p.order = p.order[1:]
			}
			sp = &sync.Pool{}
			p.pools[key] = sp
			p.order = append(p.order, key)
		}
		p.mu.Unlock()
		return &pooled{link: l}, nil
	}
	v := sp.Get()
	if v == nil {
		l, err := link.New(spec)
		if err != nil {
			return nil, err
		}
		return &pooled{link: l}, nil
	}
	c := v.(*pooled)
	c.link.Reset()
	return c, nil
}

// put returns a codec to its pool for reuse. The link keeps whatever
// history the request left; the next get Resets it. A codec whose pool
// was evicted mid-request is simply dropped.
func (p *codecPools) put(spec link.Spec, c *pooled) {
	p.mu.RLock()
	sp := p.pools[poolKey{spec: spec}]
	p.mu.RUnlock()
	if sp != nil {
		sp.Put(c)
	}
}
