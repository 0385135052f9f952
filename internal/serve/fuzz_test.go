package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzServeEncodeRequest throws arbitrary bytes at the data plane in
// both envelopes and pins the service contract: the request decoder
// never panics, every failure is a clean 4xx with the JSON error
// envelope (5xx means a server bug), and every 200 carries a parseable
// response.
func FuzzServeEncodeRequest(f *testing.F) {
	// Seeds: the happy JSON shape, near-misses for every validation arm,
	// and raw binary bodies. The first byte of mode selects the envelope.
	f.Add([]byte(`{"scheme":"desc-zero","data":"AAAAAAAAAAA="}`), false)
	f.Add([]byte(`{"scheme":"desc-zero","blocks":["AA=="]}`), false)
	f.Add([]byte(`{"scheme":"desc-zer","data":"AAAA"}`), false)
	f.Add([]byte(`{"scheme":"desc-zero","chunk_bits":-3,"data":"AAAA"}`), false)
	f.Add([]byte(`{"scheme":"desc-zero","data":"!!!"}`), false)
	f.Add([]byte(`{"scheme":`), false)
	f.Add([]byte(`{"scheme":7}`), false)
	f.Add([]byte(``), false)
	f.Add([]byte(`{"scheme":"desc-zero","data":"AAAA","blocks":["AAAA"]}`), false)
	f.Add(bytes.Repeat([]byte{0xA7}, 64), true)
	f.Add([]byte{0x00}, true)
	f.Add([]byte(``), true)

	s := New(Config{MaxBodyBytes: 1 << 16})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, binary bool) {
		target := "/v1/encode"
		contentType := "application/json"
		if binary {
			target = "/v1/encode?scheme=desc-zero"
			contentType = "application/octet-stream"
		}
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch {
		case rec.Code == http.StatusOK:
			var resp dataResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response does not parse: %v; body: %q", err, rec.Body.String())
			}
			if resp.Blocks <= 0 {
				t.Fatalf("200 response reports %d blocks", resp.Blocks)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%d error is not the JSON envelope: %q", rec.Code, rec.Body.String())
			}
			if er.Error == "" {
				t.Fatalf("%d error has an empty message", rec.Code)
			}
		default:
			t.Fatalf("status %d outside {200, 4xx}; body: %q", rec.Code, rec.Body.String())
		}
	})
}

// decodeFuzzSchemes are the schemes a binary FuzzServeDecodeRequest body
// is decoded by: the four DESC variants, then two schemes whose receiver
// is a wire-level decoder.
var decodeFuzzSchemes = []string{"desc-zero", "desc-basic", "desc-last", "desc-adaptive", "bic", "binary"}

// FuzzServeDecodeRequest throws arbitrary bodies at POST /v1/decode in
// both envelopes. The handler never panics, every failure is a clean 4xx
// with the JSON error envelope, and for the DESC schemes every accepted
// body decodes to exactly the payload it carried: the raw body in binary
// mode, and the data or blocks field in JSON mode (both sides of a
// base64 field compared as the bytes they decode to). Binary requests
// pick the scheme and a chunk width override from scheme and chunk.
func FuzzServeDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"scheme":"desc-zero","data":"AAAAAAAAAAA="}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":"desc-last","block_bits":64,"data":"EjRWeJq83vAPHi08S1ppeA=="}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":"desc-basic","block_bits":16,"blocks":["AQI=","/wA="],"per_block":true}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":"desc-adaptive","block_bits":8,"data_wires":2,"data":"AQID"}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":"desc-zero","blocks":["AA=="]}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":"desc-zero","data":"!!!"}`), false, uint8(0), uint8(0))
	f.Add([]byte(`{"scheme":`), false, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xA7}, 64), true, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0x10, 0x00, 0xF3}, 64), true, uint8(2), uint8(8))
	f.Add(bytes.Repeat([]byte{0x5A}, 128), true, uint8(4), uint8(0))
	f.Add([]byte{0x00}, true, uint8(1), uint8(0))
	f.Add([]byte(``), true, uint8(3), uint8(0))

	s := New(Config{MaxBodyBytes: 1 << 16})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte, binary bool, scheme, chunk uint8) {
		target := "/v1/decode"
		contentType := "application/json"
		name := decodeFuzzSchemes[int(scheme)%len(decodeFuzzSchemes)]
		if binary {
			target = "/v1/decode?scheme=" + name
			if k := int(chunk) % 9; k > 0 {
				target += fmt.Sprintf("&chunk_bits=%d", k)
			}
			contentType = "application/octet-stream"
		}
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch {
		case rec.Code == http.StatusOK && binary:
			if strings.HasPrefix(name, "desc-") && !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("%s decoded %x, request payload %x", target, rec.Body.Bytes(), body)
			}
		case rec.Code == http.StatusOK:
			var resp dataResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response does not parse: %v; body: %q", err, rec.Body.String())
			}
			if resp.Blocks <= 0 {
				t.Fatalf("200 response reports %d blocks", resp.Blocks)
			}
			var sent blockRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
				t.Fatalf("accepted body does not decode as a request: %v", err)
			}
			if !strings.HasPrefix(sent.Scheme, "desc-") {
				return
			}
			if len(sent.Blocks) == 0 {
				checkDecodedField(t, "data", sent.Data, resp.Data)
				return
			}
			if len(resp.DecodedBlocks) != len(sent.Blocks) {
				t.Fatalf("%d blocks sent, %d decoded", len(sent.Blocks), len(resp.DecodedBlocks))
			}
			for i, b := range sent.Blocks {
				checkDecodedField(t, fmt.Sprintf("block %d", i), b, resp.DecodedBlocks[i])
			}
		case rec.Code >= 400 && rec.Code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%d error is not the JSON envelope: %q", rec.Code, rec.Body.String())
			}
			if er.Error == "" {
				t.Fatalf("%d error has an empty message", rec.Code)
			}
		default:
			t.Fatalf("status %d outside {200, 4xx}; body: %q", rec.Code, rec.Body.String())
		}
	})
}

// checkDecodedField fails unless the base64 fields sent and decoded
// carry the same bytes.
func checkDecodedField(t *testing.T, what, sent, decoded string) {
	t.Helper()
	want, err := base64.StdEncoding.DecodeString(sent)
	if err != nil {
		t.Fatalf("%s of an accepted request is not base64: %v", what, err)
	}
	got, err := base64.StdEncoding.DecodeString(decoded)
	if err != nil {
		t.Fatalf("decoded %s is not base64: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s decoded to %x, request payload %x", what, got, want)
	}
}
