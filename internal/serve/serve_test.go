package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"desc/internal/link"
	"desc/internal/link/linktest"
	"desc/internal/metrics"
	"desc/internal/workload"
)

// testBlockBits matches the conformance traffic geometry.
const testBlockBits = 512

// trafficPayload flattens the conformance traffic into one block stream.
func trafficPayload(t *testing.T) []byte {
	t.Helper()
	var payload []byte
	for _, b := range linktest.Traffic(testBlockBits) {
		payload = append(payload, b...)
	}
	return payload
}

// do drives one request through the server's handler.
func do(t *testing.T, s *Server, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// jsonEncodeBody renders the standard JSON envelope.
func jsonEncodeBody(t *testing.T, scheme string, payload []byte, extra map[string]any) []byte {
	t.Helper()
	req := map[string]any{
		"scheme": scheme,
		"data":   base64.StdEncoding.EncodeToString(payload),
	}
	for k, v := range extra {
		req[k] = v
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return body
}

// decodeResponse parses a dataResponse, failing on non-200.
func decodeResponse(t *testing.T, rec *httptest.ResponseRecorder) dataResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", rec.Code, rec.Body.String())
	}
	var resp dataResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unmarshal response: %v; body: %s", err, rec.Body.String())
	}
	return resp
}

// errorOf parses the JSON error envelope.
func errorOf(t *testing.T, rec *httptest.ResponseRecorder) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("unmarshal error envelope: %v; body: %s", err, rec.Body.String())
	}
	return er
}

// directCost replays payload through a fresh instance of the scheme at
// its design point — the reference the served totals must match.
func directCost(t *testing.T, scheme string, payload []byte) (link.Cost, []link.Cost) {
	t.Helper()
	d, ok := link.Lookup(scheme)
	if !ok {
		t.Fatalf("scheme %q not registered", scheme)
	}
	l, err := link.New(d.Traits.DesignSpec(scheme, testBlockBits))
	if err != nil {
		t.Fatalf("link.New(%s): %v", scheme, err)
	}
	blockBytes := testBlockBits / 8
	var total link.Cost
	var per []link.Cost
	for off := 0; off < len(payload); off += blockBytes {
		c := l.Send(payload[off : off+blockBytes])
		total.Add(c)
		per = append(per, c)
	}
	return total, per
}

func TestEncodeHappyPath(t *testing.T) {
	s := New(Config{})
	payload := trafficPayload(t)
	rec := do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zero", payload, map[string]any{"per_block": true}))
	resp := decodeResponse(t, rec)

	wantTotal, wantPer := directCost(t, "desc-zero", payload)
	if resp.Scheme != "desc-zero" {
		t.Errorf("scheme = %q, want desc-zero", resp.Scheme)
	}
	if want := len(payload) / (testBlockBits / 8); resp.Blocks != want {
		t.Errorf("blocks = %d, want %d", resp.Blocks, want)
	}
	if resp.Total != asBlockCost(wantTotal) {
		t.Errorf("total = %+v, want %+v", resp.Total, asBlockCost(wantTotal))
	}
	if len(resp.Costs) != len(wantPer) {
		t.Fatalf("per-block costs = %d entries, want %d", len(resp.Costs), len(wantPer))
	}
	var sum blockCost
	for i, c := range resp.Costs {
		if c != asBlockCost(wantPer[i]) {
			t.Errorf("cost[%d] = %+v, want %+v", i, c, asBlockCost(wantPer[i]))
		}
		sum.Cycles += c.Cycles
		sum.DataFlips += c.DataFlips
		sum.ControlFlips += c.ControlFlips
		sum.SyncFlips += c.SyncFlips
	}
	if sum != resp.Total {
		t.Errorf("per-block costs sum to %+v, total says %+v", sum, resp.Total)
	}
}

// TestRoundTripAllSchemes is the golden identity check: for every
// registered scheme, the conformance traffic goes over the served link
// and the receiver view must reproduce it byte for byte. Schemes without
// a receiver view must fail decode with 422 and still encode cleanly.
func TestRoundTripAllSchemes(t *testing.T) {
	s := New(Config{})
	payload := trafficPayload(t)
	for _, scheme := range link.Schemes() {
		t.Run(scheme, func(t *testing.T) {
			body := jsonEncodeBody(t, scheme, payload, nil)
			enc := do(t, s, http.MethodPost, "/v1/encode", "application/json", body)
			resp := decodeResponse(t, enc)
			wantTotal, _ := directCost(t, scheme, payload)
			if resp.Total != asBlockCost(wantTotal) {
				t.Errorf("served total = %+v, direct replay = %+v", resp.Total, asBlockCost(wantTotal))
			}

			dec := do(t, s, http.MethodPost, "/v1/decode", "application/json", body)
			d, _ := link.Lookup(scheme)
			l, err := link.New(d.Traits.DesignSpec(scheme, testBlockBits))
			if err != nil {
				t.Fatalf("link.New(%s): %v", scheme, err)
			}
			if _, ok := l.(link.Decoder); !ok {
				if dec.Code != http.StatusUnprocessableEntity {
					t.Fatalf("decode status = %d, want 422 for receiver-less scheme", dec.Code)
				}
				return
			}
			got := decodeResponse(t, dec)
			recovered, err := base64.StdEncoding.DecodeString(got.Data)
			if err != nil {
				t.Fatalf("decode response data: %v", err)
			}
			if !bytes.Equal(recovered, payload) {
				t.Errorf("round trip mismatch: receiver view differs from sent payload")
			}
		})
	}
}

func TestPerBlockDecodeForm(t *testing.T) {
	s := New(Config{})
	blocks := linktest.Traffic(testBlockBits)
	req := map[string]any{"scheme": "desc-zero"}
	b64 := make([]string, len(blocks))
	for i, b := range blocks {
		b64[i] = base64.StdEncoding.EncodeToString(b)
	}
	req["blocks"] = b64
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	rec := do(t, s, http.MethodPost, "/v1/decode", "application/json", body)
	resp := decodeResponse(t, rec)
	if len(resp.DecodedBlocks) != len(blocks) {
		t.Fatalf("decoded_blocks = %d entries, want %d", len(resp.DecodedBlocks), len(blocks))
	}
	for i, want := range blocks {
		got, err := base64.StdEncoding.DecodeString(resp.DecodedBlocks[i])
		if err != nil {
			t.Fatalf("decoded block %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("block %d round trip mismatch", i)
		}
	}
}

func TestBinaryModeMatchesJSON(t *testing.T) {
	s := New(Config{})
	payload := trafficPayload(t)

	jrec := do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zero", payload, nil))
	jresp := decodeResponse(t, jrec)

	brec := do(t, s, http.MethodPost, "/v1/encode?scheme=desc-zero", "application/octet-stream", payload)
	bresp := decodeResponse(t, brec)
	if bresp.Total != jresp.Total {
		t.Errorf("binary total = %+v, JSON total = %+v", bresp.Total, jresp.Total)
	}

	drec := do(t, s, http.MethodPost, "/v1/decode?scheme=desc-zero", "application/octet-stream", payload)
	if drec.Code != http.StatusOK {
		t.Fatalf("binary decode status = %d; body: %s", drec.Code, drec.Body.String())
	}
	if ct := drec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("binary decode Content-Type = %q", ct)
	}
	if !bytes.Equal(drec.Body.Bytes(), payload) {
		t.Errorf("binary decode body differs from sent payload")
	}
	if got := drec.Header().Get("X-Desc-Cycles"); got != strconv.FormatInt(jresp.Total.Cycles, 10) {
		t.Errorf("X-Desc-Cycles = %s, want %d", got, jresp.Total.Cycles)
	}
	if got := drec.Header().Get("X-Desc-Blocks"); got != strconv.Itoa(jresp.Blocks) {
		t.Errorf("X-Desc-Blocks = %s, want %d", got, jresp.Blocks)
	}
}

func TestUnknownSchemeSuggests(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zer", []byte("0123456789abcdef"), map[string]any{"block_bits": 128}))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body: %s", rec.Code, rec.Body.String())
	}
	er := errorOf(t, rec)
	if !strings.Contains(er.Error, "did you mean") || !strings.Contains(er.Error, "desc-zero") {
		t.Errorf("error lacks the registry suggestion: %q", er.Error)
	}
}

func TestMalformedJSON(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{"{", `{"scheme": 7}`, "", "nonsense"} {
		rec := do(t, s, http.MethodPost, "/v1/encode", "application/json", []byte(body))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
			continue
		}
		er := errorOf(t, rec)
		if !strings.HasPrefix(er.Error, "serve: ") {
			t.Errorf("body %q: error %q lacks the serve: prefix", body, er.Error)
		}
	}
}

func TestOversizedBody(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	payload := trafficPayload(t)
	rec := do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zero", payload, nil))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body: %s", rec.Code, rec.Body.String())
	}
	brec := do(t, s, http.MethodPost, "/v1/encode?scheme=desc-zero", "application/octet-stream", payload)
	if brec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("binary status = %d, want 413; body: %s", brec.Code, brec.Body.String())
	}
}

func TestRequestDeadline(t *testing.T) {
	s := New(Config{RequestDeadline: time.Nanosecond})
	rec := do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zero", trafficPayload(t), nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", rec.Code, rec.Body.String())
	}
	er := errorOf(t, rec)
	if !strings.Contains(er.Error, "deadline exceeded") {
		t.Errorf("error = %q, want a deadline message", er.Error)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Config{})
	block := make([]byte, testBlockBits/8)
	b64 := base64.StdEncoding.EncodeToString(block)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"missing scheme", `{"data":"` + b64 + `"}`, http.StatusBadRequest},
		{"negative chunk bits", `{"scheme":"desc-zero","chunk_bits":-3,"data":"` + b64 + `"}`, http.StatusBadRequest},
		{"empty payload", `{"scheme":"desc-zero","data":""}`, http.StatusBadRequest},
		{"ragged payload", `{"scheme":"desc-zero","data":"` + base64.StdEncoding.EncodeToString(block[:7]) + `"}`, http.StatusBadRequest},
		{"both forms", `{"scheme":"desc-zero","data":"` + b64 + `","blocks":["` + b64 + `"]}`, http.StatusBadRequest},
		{"bad base64", `{"scheme":"desc-zero","data":"!!!"}`, http.StatusBadRequest},
		{"short block", `{"scheme":"desc-zero","blocks":["` + base64.StdEncoding.EncodeToString(block[:8]) + `"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, "/v1/encode", "application/json", []byte(tc.body))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", rec.Code, tc.status, rec.Body.String())
			}
			er := errorOf(t, rec)
			if !strings.HasPrefix(er.Error, "serve: ") {
				t.Errorf("error %q lacks the serve: prefix", er.Error)
			}
		})
	}
	brec := do(t, s, http.MethodPost, "/v1/encode?scheme=desc-zero&chunk_bits=x", "application/octet-stream", block)
	if brec.Code != http.StatusBadRequest {
		t.Errorf("bad query parameter: status = %d, want 400", brec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodGet, "/v1/encode", "", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/encode status = %d, want 405", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodGet, "/healthz", "", nil)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestSchemesListing(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodGet, "/v1/schemes", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var infos []schemeInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := link.Schemes()
	if len(infos) != len(want) {
		t.Fatalf("listing has %d schemes, registry has %d", len(infos), len(want))
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
	}
	for _, w := range want {
		if !names[w] {
			t.Errorf("scheme %q missing from listing", w)
		}
	}
}

func TestExperimentListing(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodGet, "/v1/experiments", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var infos []experimentInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	ids := map[string]bool{}
	for _, in := range infos {
		ids[in.ID] = true
	}
	for _, want := range []string{"fig16", "ext01"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from listing", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodPost, "/v1/experiments", "application/json",
		[]byte(`{"id":"fig99"}`))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body: %s", rec.Code, rec.Body.String())
	}
}

// TestExperimentPlannedMatchesRuns: on a fresh server, a request's
// planned total is the number of runs it then starts. fig14 is the case
// in point: its quick device-class sweep repeats the binary baseline.
func TestExperimentPlannedMatchesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	s := New(Config{})
	rec := do(t, s, http.MethodPost, "/v1/experiments", "application/json",
		[]byte(`{"id":"fig14","quick":true,"instr":400}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", rec.Code, rec.Body.String())
	}
	planned, started := -1, 0
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line does not parse: %v; line: %q", err, line)
		}
		switch ev.Event {
		case "planned":
			planned = ev.Total
		case "run_started":
			started++
		case "error":
			t.Fatalf("stream carries an error event: %s", ev.Error)
		}
	}
	if planned != started {
		t.Errorf("planned total %d, but the stream started %d runs", planned, started)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	payload := trafficPayload(t)
	do(t, s, http.MethodPost, "/v1/encode", "application/json",
		jsonEncodeBody(t, "desc-zero", payload, nil))

	rec := do(t, s, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	wantBlocks := uint64(len(payload) / (testBlockBits / 8))
	if got := counters["serve/link/desc-zero/blocks"]; got != wantBlocks {
		t.Errorf("serve/link/desc-zero/blocks = %d, want %d", got, wantBlocks)
	}
	if got := counters["serve/http/encode/requests"]; got != 1 {
		t.Errorf("serve/http/encode/requests = %d, want 1", got)
	}
	if counters["serve/link/desc-zero/flips_data"] == 0 {
		t.Errorf("serve/link/desc-zero/flips_data = 0, want nonzero")
	}
}

func TestPprofMounted(t *testing.T) {
	s := New(Config{})
	rec := do(t, s, http.MethodGet, "/debug/pprof/", "", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status = %d, want 200", rec.Code)
	}
}

// TestEncodeHotPathZeroAlloc pins the pooled steady state: once the
// scratch buffers have grown to the request size, encodeBlocks performs
// zero allocations per batch — the property the serve-smoke CI gate
// re-asserts against the daemon build — both through a codec's own
// SendBlocks (the DESC schemes) and through link.SendBlocks's Send loop
// (bic).
func TestEncodeHotPathZeroAlloc(t *testing.T) {
	payload := trafficPayload(t)
	blockBytes := testBlockBits / 8
	n := len(payload) / blockBytes
	for _, tc := range []struct {
		name   string
		scheme string
		chunk  int
		per    bool
		decode bool
	}{
		{"desc-zero-8bit", "desc-zero", 8, false, false},
		{"desc-zero-4bit", "desc-zero", 4, false, false},
		{"desc-zero-per-block", "desc-zero", 8, true, false},
		{"desc-zero-decode", "desc-zero", 8, true, true},
		{"desc-basic-per-block", "desc-basic", 4, true, false},
		{"bic", "bic", 0, false, false},
		{"bic-decode", "bic", 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, ok := link.Lookup(tc.scheme)
			if !ok {
				t.Fatalf("scheme %q not registered", tc.scheme)
			}
			spec := d.Traits.DesignSpec(tc.scheme, testBlockBits)
			spec.ChunkBits = tc.chunk
			l, err := link.New(spec)
			if err != nil {
				t.Fatalf("link.New: %v", err)
			}
			var per []link.Cost
			if tc.per {
				per = make([]link.Cost, n)
			}
			var out []byte
			if tc.decode {
				if _, ok := l.(link.Decoder); !ok {
					t.Skipf("%s has no receiver view", tc.scheme)
				}
				out = make([]byte, len(payload))
			}
			ctx := context.Background()
			allocs := testing.AllocsPerRun(10, func() {
				l.Reset()
				if _, err := encodeBlocks(ctx, l, payload, blockBytes, per, out); err != nil {
					t.Fatalf("encodeBlocks: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("encodeBlocks allocates %.1f times per batch, want 0", allocs)
			}
		})
	}
}

// serveEncodeBatch is the serve-encode perfbench batch: 4096 blocks
// split over five profiles (819 generated blocks each).
func serveEncodeBatch(b *testing.B) []byte {
	b.Helper()
	const blockBytes = testBlockBits / 8
	var payload []byte
	for _, name := range []string{"Water-Spatial", "Radix", "Art", "Ocean", "Linear"} {
		prof, ok := workload.ByName(name)
		if !ok {
			b.Fatalf("profile %q not found", name)
		}
		gen := workload.NewGenerator(prof, 1)
		st := gen.Stream(0, 32)
		var buf [blockBytes]byte
		for i := 0; i < 4096/5; i++ {
			gen.FillBlockData(st.Next().Addr, buf[:])
			payload = append(payload, buf[:]...)
		}
	}
	return payload
}

// BenchmarkEncodeBlocks times the data plane without HTTP: one
// encodeBlocks call over the serve-encode batch at the desc-zero design
// point, on a Reset link as a pooled request gets it.
func BenchmarkEncodeBlocks(b *testing.B) {
	const blockBytes = testBlockBits / 8
	payload := serveEncodeBatch(b)
	d, ok := link.Lookup("desc-zero")
	if !ok {
		b.Fatal("scheme desc-zero not registered")
	}
	l, err := link.New(d.Traits.DesignSpec("desc-zero", testBlockBits))
	if err != nil {
		b.Fatalf("link.New: %v", err)
	}
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Reset()
		if _, err := encodeBlocks(ctx, l, payload, blockBytes, nil, nil); err != nil {
			b.Fatalf("encodeBlocks: %v", err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payload)/blockBytes), "ns/block")
}

// BenchmarkHandleEncode times one POST /v1/encode of the serve-encode
// batch at the desc-zero design point through Server.Handler() into an
// httptest.ResponseRecorder: the handler's whole path (routing, body
// read, pooled codec, response) without a loopback connection, as a raw
// octet-stream body (binary) and as the base64 JSON envelope (json).
func BenchmarkHandleEncode(b *testing.B) {
	payload := serveEncodeBatch(b)
	jsonBody, err := json.Marshal(map[string]any{
		"scheme": "desc-zero",
		"data":   base64.StdEncoding.EncodeToString(payload),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name, target, contentType string
		body                      []byte
	}{
		{"binary", "/v1/encode?scheme=desc-zero", "application/octet-stream", payload},
		{"json", "/v1/encode", "application/json", jsonBody},
	} {
		b.Run(mode.name, func(b *testing.B) {
			h := New(Config{}).Handler()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, mode.target, bytes.NewReader(mode.body))
				req.Header.Set("Content-Type", mode.contentType)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// TestRecordSchemeZeroAlloc pins the per-request /metrics bookkeeping:
// once a scheme's counters exist, recordScheme allocates nothing, and
// concurrent first requests of a scheme lose no counts.
func TestRecordSchemeZeroAlloc(t *testing.T) {
	s := New(Config{})
	cost := link.Cost{Cycles: 7, Flips: link.FlipCount{Data: 5, Control: 3, Sync: 2}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.recordScheme("desc-zero", 2, 128, cost)
		}()
	}
	wg.Wait()
	allocs := testing.AllocsPerRun(100, func() {
		s.recordScheme("desc-zero", 2, 128, cost)
	})
	if allocs != 0 {
		t.Errorf("recordScheme allocates %.1f times per request, want 0", allocs)
	}
	const calls = 4 + 101 // AllocsPerRun runs the function once more to warm up
	for name, per := range map[string]uint64{
		"blocks": 2, "payload_bytes": 128, "cycles": 7,
		"flips_data": 5, "flips_control": 3, "flips_sync": 2,
	} {
		if got := s.reg.Counter("serve/link/desc-zero/" + name).Value(); got != calls*per {
			t.Errorf("serve/link/desc-zero/%s = %d, want %d", name, got, calls*per)
		}
	}
}

// TestPoolReuseIsReset pins the pool isolation contract at the unit
// level: a codec returned to the pool carrying history comes back Reset.
func TestPoolReuseIsReset(t *testing.T) {
	d, ok := link.Lookup("desc-last")
	if !ok {
		t.Skip("desc-last not registered")
	}
	spec := d.Traits.DesignSpec("desc-last", testBlockBits)
	pools := codecPools{pools: map[poolKey]*sync.Pool{}}

	c1, err := pools.get(spec)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	block := bytes.Repeat([]byte{0xA7}, testBlockBits/8)
	dirty := c1.link.Send(block) // leave history behind
	pools.put(spec, c1)

	c2, err := pools.get(spec)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer pools.put(spec, c2)
	fresh, err := link.New(spec)
	if err != nil {
		t.Fatalf("link.New: %v", err)
	}
	got := c2.link.Send(block)
	want := fresh.Send(block)
	if got != want {
		t.Errorf("pooled codec after reuse: Send cost %+v, fresh instance %+v (history leaked)", got, want)
	}
	_ = dirty
}

// TestHostileGeometryRejected pins the service-level geometry caps: a
// client-controlled block_bits or data_wires that would size server
// memory (codec scratch and payload buffers are geometry-proportional)
// is rejected before any codec construction or buffer allocation, in
// both request envelopes.
func TestHostileGeometryRejected(t *testing.T) {
	s := New(Config{})
	block := make([]byte, testBlockBits/8)
	b64 := base64.StdEncoding.EncodeToString(block)
	cases := []struct {
		name   string
		target string
		ct     string
		body   string
		status int
	}{
		{"huge block_bits json", "/v1/encode", "application/json",
			`{"scheme":"desc-zero","block_bits":1073741824,"data":"` + b64 + `"}`, http.StatusBadRequest},
		{"huge block_bits query", "/v1/encode?scheme=desc-zero&block_bits=1073741824", "application/octet-stream",
			string(block), http.StatusBadRequest},
		{"huge data_wires json", "/v1/encode", "application/json",
			`{"scheme":"desc-zero","data_wires":1073741824,"data":"` + b64 + `"}`, http.StatusBadRequest},
		{"huge data_wires query", "/v1/encode?scheme=desc-zero&data_wires=1073741824", "application/octet-stream",
			string(block), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, tc.target, tc.ct, []byte(tc.body))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", rec.Code, tc.status, rec.Body.String())
			}
			er := errorOf(t, rec)
			if !strings.HasPrefix(er.Error, "serve: ") {
				t.Errorf("error %q lacks the serve: prefix", er.Error)
			}
		})
	}
}

// TestBlocksClaimBounded pins the per-block pre-allocation bound: a
// blocks request whose claimed total (count x block size) exceeds the
// body limit is a 413 before the payload buffer is sized, so a small
// body cannot request a huge allocation.
func TestBlocksClaimBounded(t *testing.T) {
	s := New(Config{MaxBodyBytes: 4096})
	// 1024-byte blocks pass the per-block geometry cap; 100 of them
	// claim 100KiB, over the 4KiB limit, from a ~600-byte body.
	blocks := make([]string, 100)
	for i := range blocks {
		blocks[i] = "AA=="
	}
	body, err := json.Marshal(map[string]any{
		"scheme":     "desc-zero",
		"block_bits": 8192,
		"blocks":     blocks,
	})
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	rec := do(t, s, http.MethodPost, "/v1/encode", "application/json", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body: %s", rec.Code, rec.Body.String())
	}
}

// TestCodecPoolEviction pins the maxPools cap: sweeping distinct
// geometries keeps the pool map bounded.
func TestCodecPoolEviction(t *testing.T) {
	s := New(Config{})
	for i := 0; i < maxPools+8; i++ {
		blockBits := 8 * (i + 1) // distinct geometry per request
		payload := make([]byte, blockBits/8)
		body, err := json.Marshal(map[string]any{
			"scheme":     "desc-zero",
			"block_bits": blockBits,
			"data":       base64.StdEncoding.EncodeToString(payload),
		})
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rec := do(t, s, http.MethodPost, "/v1/encode", "application/json", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("block_bits %d: status = %d; body: %s", blockBits, rec.Code, rec.Body.String())
		}
	}
	s.pools.mu.RLock()
	n, ordered := len(s.pools.pools), len(s.pools.order)
	s.pools.mu.RUnlock()
	if n > maxPools {
		t.Errorf("pool map grew to %d entries, cap is %d", n, maxPools)
	}
	if n != ordered {
		t.Errorf("pool map has %d entries but eviction queue tracks %d", n, ordered)
	}
}

// TestClientAbortIsNotTimeout pins the 499 path: a request whose client
// went away reports as a client abort (own counter, no response write),
// not as a 504 server timeout in the error counters.
func TestClientAbortIsNotTimeout(t *testing.T) {
	if got := statusOf(context.Canceled); got != statusClientClosed {
		t.Fatalf("statusOf(Canceled) = %d, want %d", got, statusClientClosed)
	}
	if got := statusOf(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Fatalf("statusOf(DeadlineExceeded) = %d, want 504", got)
	}

	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the handler runs
	req := httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(
		jsonEncodeBody(t, "desc-zero", trafficPayload(t), nil))).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if got := rec.Body.Len(); got != 0 {
		t.Errorf("aborted request wrote %d body bytes, want none: %s", got, rec.Body.String())
	}
	if got := s.Registry().Counter("serve/http/encode/canceled").Value(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	if got := s.Registry().Counter("serve/http/encode/errors").Value(); got != 0 {
		t.Errorf("errors counter = %d, want 0 for a client abort", got)
	}
}
