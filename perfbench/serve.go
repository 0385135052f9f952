package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"desc/internal/link"
	"desc/internal/serve"
)

// encodeTotal is the part of the /v1/encode response the check reads.
type encodeTotal struct {
	Blocks int `json:"blocks"`
	Total  struct {
		Cycles       int64  `json:"cycles"`
		DataFlips    uint64 `json:"data_flips"`
		ControlFlips uint64 `json:"control_flips"`
		SyncFlips    uint64 `json:"sync_flips"`
	} `json:"total"`
}

// linkReplay sends payload block by block through a fresh link, the
// in-process reference for a served encode.
func linkReplay(spec link.Spec, payload []byte) (link.Cost, error) {
	l, err := link.New(spec)
	if err != nil {
		return link.Cost{}, err
	}
	n := spec.BlockBits / 8
	var total link.Cost
	for off := 0; off+n <= len(payload); off += n {
		total.Add(l.Send(payload[off : off+n]))
	}
	return total, nil
}

// designLink is the desc-zero design point the service resolves for a
// request that names only the scheme.
func designLink(scheme string) link.Spec {
	d, _ := link.Lookup(scheme)
	return d.Traits.DesignSpec(scheme, 512)
}

// server is an in-process serve.Server on a loopback listener with one
// keep-alive client. When tr is set, the handler is wrapped so each
// request's server-side time is a span.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	client *http.Client
	url    string

	mu     sync.Mutex // orders the span fields between client and handler
	tr     *tracer
	parent int // span the handler span nests under, set per request
	op     int
}

// traceNext makes the next request's handler span a child of parent;
// later requests are untraced until the next call.
func (s *server) traceNext(tr *tracer, parent, op int) {
	s.mu.Lock()
	s.tr, s.parent, s.op = tr, parent, op
	s.mu.Unlock()
}

// startServer mirrors serve.Server.Serve's http.Server settings.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{}), done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	h := s.srv.Handler()
	s.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.mu.Lock()
			tr, parent, op := s.tr, s.parent, s.op
			s.tr = nil // one traced request per traceNext
			s.mu.Unlock()
			sp := tr.begin(parent, op, "serve", "serve.handler")
			h.ServeHTTP(w, r)
			tr.end(sp)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// encode posts one raw octet-stream batch and returns the totals.
func (s *server) encode(ctx context.Context, scheme string, payload []byte) (encodeTotal, error) {
	var out encodeTotal
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/encode?scheme="+scheme, bytes.NewReader(payload))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("encode: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return out, json.Unmarshal(body, &out)
}

// counters reads the data-plane request and error counters from the
// service's /metrics snapshot.
func (s *server) counters(ctx context.Context) (requests, errs uint64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, 0, err
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "serve/http/encode/requests":
			requests = c.Value
		case "serve/http/encode/errors":
			errs = c.Value
		}
	}
	return requests, errs, nil
}

// matches reports whether a served total equals the in-process replay.
func (t encodeTotal) matches(blocks int, want link.Cost) bool {
	return t.Blocks == blocks && t.Total.Cycles == want.Cycles && t.Total.DataFlips == want.Flips.Data &&
		t.Total.ControlFlips == want.Flips.Control && t.Total.SyncFlips == want.Flips.Sync
}

// serveEncode drives POST /v1/encode with one keep-alive client, one
// fixed batch of generated blocks per request.
type serveEncode struct {
	srv   *server
	batch []byte
	spec  link.Spec
	want  link.Cost
}

func newServeEncode(sc scale, seed int64) *serveEncode {
	return &serveEncode{spec: designLink("desc-zero"),
		batch: genBlocks(rotationBenchmarks, seed, sc.serveBlocks/len(rotationBenchmarks))}
}

// setup starts a fresh server and client, computes the reference totals
// by in-process replay, and warms up with a few untimed requests.
func (w *serveEncode) setup(ctx context.Context) ([]string, error) {
	if w.srv != nil {
		if err := w.srv.stop(); err != nil {
			return nil, err
		}
		w.srv = nil
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w.srv = srv
	if w.want, err = linkReplay(w.spec, w.batch); err != nil {
		return nil, err
	}
	var bad []string
	for i := 0; i < 300; i++ {
		got, err := srv.encode(ctx, w.spec.Scheme, w.batch)
		if err != nil {
			return nil, err
		}
		if !got.matches(len(w.batch)/64, w.want) {
			bad = append(bad, "serve-encode: warm-up response differs from the link replay")
			break
		}
	}
	return bad, nil
}

func (w *serveEncode) step(ctx context.Context, tr *tracer, next func() int) (stepResult, error) {
	op := next()
	t := time.Now()
	sp := tr.begin(-1, op, "bench", opSpan)
	hsp := tr.begin(sp, op, "serve", "http.request")
	w.srv.traceNext(tr, hsp, op)
	got, err := w.srv.encode(ctx, w.spec.Scheme, w.batch)
	tr.end(hsp)
	tr.end(sp)
	d := time.Since(t)
	sr := stepResult{opMS: []float64{ms(d)}, wall: d}
	if err != nil || !got.matches(len(w.batch)/64, w.want) {
		sr.failed = 1
	}
	return sr, nil
}

func (w *serveEncode) blocks() []byte { return w.batch }

func (w *serveEncode) close() {
	if w.srv != nil {
		_ = w.srv.stop()
	}
}
