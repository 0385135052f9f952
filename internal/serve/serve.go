// Package serve implements descserve, the repository's long-running
// encode/decode and experiment daemon (DESIGN.md §15).
//
// The server exposes two planes over stdlib net/http:
//
//   - Data plane: POST /v1/encode and POST /v1/decode push batched block
//     streams through any registered scheme (link.Lookup). Codecs are
//     pooled per geometry and Reset between requests, so the steady-state
//     encode hot path allocates nothing; requests carry either a JSON
//     envelope with base64 payloads or a raw application/octet-stream
//     body with query parameters.
//   - Control plane: POST /v1/experiments accepts an experiment spec and
//     streams progress plus rendered result tables as newline-delimited
//     JSON by subscribing a per-request observer to a shared exp.Runner's
//     Fanout; GET /metrics serves live instrument snapshots (per-scheme
//     block/flip totals sampled over the running link — the Simmani
//     toggle-counter shape); /debug/pprof/ mounts the profiling mux.
//
// Every request runs under a bounded body size and a deadline, and the
// daemon drains in-flight requests on SIGTERM (Serve) — the service is
// built to face untrusted, bursty clients, not just the offline sweeps.
package serve

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"desc/internal/exp"
	"desc/internal/metrics"
	"desc/internal/runcache"
)

// Defaults for the zero Config.
const (
	// DefaultMaxBodyBytes bounds request bodies (data or control plane).
	DefaultMaxBodyBytes = 16 << 20
	// DefaultRequestDeadline bounds one data-plane request.
	DefaultRequestDeadline = 30 * time.Second
	// DefaultExperimentDeadline bounds one control-plane experiment run;
	// it is also what stops a hostile instruction budget — the simulators
	// poll their context, so the deadline unwinds them.
	DefaultExperimentDeadline = 15 * time.Minute
)

// maxRunners bounds the per-Options Runner cache: each distinct
// (quick, seed, instructions) triple clients submit gets its own Runner
// (and run cache); beyond the cap the oldest is dropped so a client
// spraying seeds cannot grow server memory without bound.
const maxRunners = 16

// Config parameterizes a Server. The zero value is a working default.
type Config struct {
	// MaxBodyBytes bounds request body size; oversized requests fail
	// with 413. Zero selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RequestDeadline is the data-plane per-request deadline; an encode
	// that outlives it fails with 504. Zero selects
	// DefaultRequestDeadline.
	RequestDeadline time.Duration
	// ExperimentDeadline is the control-plane per-request deadline. Zero
	// selects DefaultExperimentDeadline.
	ExperimentDeadline time.Duration
	// Jobs bounds each experiment Runner's worker pool (0 = GOMAXPROCS).
	Jobs int
	// RunCache, when non-nil, is the persistent content-addressed result
	// cache every experiment Runner consults before simulating (see
	// internal/runcache). Runs clients request survive restarts and are
	// shared with the descbench CLI pointed at the same
	// directory; the cache's hit/miss/write/corrupt counters surface on
	// /metrics when the store was opened with this server's registry.
	RunCache *runcache.Store
	// Metrics receives the server's telemetry. Nil creates a fresh
	// registry (Registry returns it either way).
	Metrics *metrics.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.RequestDeadline == 0 {
		c.RequestDeadline = DefaultRequestDeadline
	}
	if c.ExperimentDeadline == 0 {
		c.ExperimentDeadline = DefaultExperimentDeadline
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// Server is the descserve HTTP service: data-plane codec pools, the
// shared experiment runners, and the route table. Construct with New;
// the zero value is not usable.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	pools codecPools
	mux   *http.ServeMux

	// counters holds each scheme's /metrics link counters, resolved
	// once so a data-plane request takes no registry lock.
	countersMu sync.RWMutex
	counters   map[string]*schemeCounters

	// runners caches one Runner (plus its Fanout) per distinct
	// exp.Options requested by clients, so concurrent and repeated
	// experiment requests share one run cache. order is the FIFO
	// eviction queue for the maxRunners cap.
	mu      sync.Mutex
	runners map[exp.Options]*runnerEntry
	order   []exp.Options
}

// runnerEntry pairs a shared Runner with the Fanout each in-flight
// request subscribes its stream observer to.
type runnerEntry struct {
	runner *exp.Runner
	fanout *exp.Fanout
}

// New builds a Server and its route table.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		pools:    codecPools{pools: map[poolKey]*sync.Pool{}},
		counters: map[string]*schemeCounters{},
		mux:      http.NewServeMux(),
		runners:  map[exp.Options]*runnerEntry{},
	}
	s.mux.HandleFunc("POST /v1/encode",
		s.route("encode", cfg.RequestDeadline, s.handleEncode))
	s.mux.HandleFunc("POST /v1/decode",
		s.route("decode", cfg.RequestDeadline, s.handleDecode))
	s.mux.HandleFunc("POST /v1/experiments",
		s.route("experiments", cfg.ExperimentDeadline, s.handleExperimentRun))
	s.mux.HandleFunc("GET /v1/experiments",
		s.route("experiments_list", cfg.RequestDeadline, s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/schemes",
		s.route("schemes", cfg.RequestDeadline, s.handleSchemes))
	s.mux.Handle("GET /metrics", metrics.SnapshotHandler(s.reg))
	s.mux.Handle("GET /debug/pprof/", metrics.PprofMux())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	return s
}

// Handler returns the server's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Serve accepts connections on ln until ctx is cancelled (the daemon's
// SIGTERM path), then performs a graceful drain: the listener closes,
// in-flight requests get up to drain to finish, and stragglers are cut
// off. A nonpositive drain means "wait indefinitely".
func (s *Server) Serve(ctx context.Context, ln net.Listener, drain time.Duration) error {
	srv := &http.Server{
		Handler: s.Handler(),
		// Slow-loris guards: a client must deliver its headers promptly;
		// bodies are bounded by MaxBodyBytes and the per-route deadline.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sdctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sdctx, cancel = context.WithTimeout(sdctx, drain)
		defer cancel()
	}
	return srv.Shutdown(sdctx)
}

// runnerFor returns the shared Runner (and Fanout) for opt, creating it
// on first use and evicting the oldest entry beyond the maxRunners cap.
func (s *Server) runnerFor(opt exp.Options) (*runnerEntry, error) {
	opt = opt.WithDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, ok := s.runners[opt]; ok {
		return ent, nil
	}
	fan := exp.NewFanout()
	r, err := exp.NewRunner(opt, exp.Jobs(s.cfg.Jobs), exp.WithObserver(fan), exp.WithMetrics(s.reg),
		exp.DiskCache(s.cfg.RunCache))
	if err != nil {
		return nil, err
	}
	if len(s.order) >= maxRunners {
		delete(s.runners, s.order[0])
		s.order = s.order[1:]
	}
	ent := &runnerEntry{runner: r, fanout: fan}
	s.runners[opt] = ent
	s.order = append(s.order, opt)
	return ent, nil
}
