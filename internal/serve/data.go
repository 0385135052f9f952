package serve

import (
	"context"
	"encoding/base64"
	"io"
	"net/http"
	"strconv"
	"strings"

	"desc/internal/link"
	"desc/internal/metrics"
)

// ctxPollBlocks is how often the encode hot loop consults the request
// context: every 512 blocks (~64KiB of payload at the paper's block
// size), cheap enough to be invisible and frequent enough that a
// deadline cuts a hostile batch off promptly. Must be a power of two.
const ctxPollBlocks = 512

// defaultBlockBits is the data-plane default transfer granularity — the
// paper's cache block.
const defaultBlockBits = 512

// maxDataWires bounds the wire counts the service accepts. Geometry
// drives codec construction cost: per-wire history stores (last-value
// registers, adaptive estimators) scale with DataWires, so an untrusted
// data_wires must be capped before link.New runs. The paper's H-tree
// exploration tops out at 512 wires; 64Ki leaves two orders of magnitude
// of headroom for sweeps while keeping a hostile value from sizing
// server memory.
const maxDataWires = 1 << 16

// blockRequest is the data-plane request envelope (JSON mode). Binary
// mode (Content-Type: application/octet-stream) passes the same fields
// as query parameters with the payload as the raw request body.
type blockRequest struct {
	// Scheme names a registered scheme (required).
	Scheme string `json:"scheme"`
	// BlockBits, DataWires, ChunkBits, SegmentBits override the scheme's
	// design-point geometry; zero keeps the registered default.
	BlockBits   int `json:"block_bits"`
	DataWires   int `json:"data_wires"`
	ChunkBits   int `json:"chunk_bits"`
	SegmentBits int `json:"segment_bits"`
	// Data is the batched payload: standard base64 of a byte stream
	// whose length is a whole number of blocks.
	Data string `json:"data"`
	// Blocks is the alternative per-block form: one base64 string per
	// block, each exactly one block long. Exactly one of Data/Blocks
	// must be set.
	Blocks []string `json:"blocks"`
	// PerBlock requests per-block costs alongside the totals.
	PerBlock bool `json:"per_block"`
}

// blockCost is one transfer cost on the wire format.
type blockCost struct {
	Cycles       int64  `json:"cycles"`
	DataFlips    uint64 `json:"data_flips"`
	ControlFlips uint64 `json:"control_flips"`
	SyncFlips    uint64 `json:"sync_flips"`
}

// asBlockCost converts a link.Cost.
func asBlockCost(c link.Cost) blockCost {
	return blockCost{
		Cycles:       c.Cycles,
		DataFlips:    c.Flips.Data,
		ControlFlips: c.Flips.Control,
		SyncFlips:    c.Flips.Sync,
	}
}

// dataResponse is the data-plane response envelope (JSON mode).
type dataResponse struct {
	Scheme string    `json:"scheme"`
	Blocks int       `json:"blocks"`
	Total  blockCost `json:"total"`
	// Costs carries per-block costs when per_block was requested.
	Costs []blockCost `json:"costs,omitempty"`
	// Data is the receiver-recovered payload (decode requests), in the
	// same base64 stream form the request used.
	Data string `json:"data,omitempty"`
	// DecodedBlocks is the per-block decode form, parallel to a Blocks
	// request.
	DecodedBlocks []string `json:"decoded_blocks,omitempty"`
}

func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request) error {
	return s.handleData(w, r, false)
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) error {
	return s.handleData(w, r, true)
}

// handleData is the shared data-plane handler. decode selects whether
// the receiver-recovered payload travels back to the client.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request, decode bool) error {
	binary := isBinary(r)
	var req blockRequest
	if binary {
		if err := requestFromQuery(r, &req); err != nil {
			return err
		}
	} else if err := decodeJSON(r, &req); err != nil {
		return err
	}

	spec, err := s.specFor(&req)
	if err != nil {
		return err
	}
	blockBytes := spec.BlockBits / 8

	c, err := s.pools.get(spec)
	if err != nil {
		// The scheme exists (specFor resolved it); a construction
		// failure here is a bad geometry.
		return errf(http.StatusBadRequest, "serve: %v", err)
	}
	defer s.pools.put(spec, c)

	payload, err := s.gatherPayload(r, &req, c, binary, blockBytes)
	if err != nil {
		return err
	}
	n := len(payload) / blockBytes

	var per []link.Cost
	if req.PerBlock {
		per = grow(&c.costs, n)
	}
	var out []byte
	if decode {
		if _, ok := c.link.(link.Decoder); !ok {
			return errf(http.StatusUnprocessableEntity,
				"serve: scheme %s does not expose a receiver view", spec.Scheme)
		}
		out = grow(&c.out, len(payload))
	}

	total, hotErr := encodeBlocks(r.Context(), c.link, payload, blockBytes, per, out)
	if hotErr != nil {
		return hotErr
	}
	s.recordScheme(spec.Scheme, n, len(payload), total)

	if decode && binary {
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("X-Desc-Blocks", strconv.Itoa(n))
		h.Set("X-Desc-Cycles", strconv.FormatInt(total.Cycles, 10))
		h.Set("X-Desc-Data-Flips", strconv.FormatUint(total.Flips.Data, 10))
		h.Set("X-Desc-Control-Flips", strconv.FormatUint(total.Flips.Control, 10))
		h.Set("X-Desc-Sync-Flips", strconv.FormatUint(total.Flips.Sync, 10))
		_, werr := w.Write(out)
		_ = werr // the client went away; nothing left to do
		return nil
	}

	resp := dataResponse{
		Scheme: spec.Scheme,
		Blocks: n,
		Total:  asBlockCost(total),
	}
	if per != nil {
		resp.Costs = grow(&c.wire, n)
		for i, pc := range per {
			resp.Costs[i] = asBlockCost(pc)
		}
	}
	if decode {
		if len(req.Blocks) > 0 {
			resp.DecodedBlocks = make([]string, n)
			for i := 0; i < n; i++ {
				resp.DecodedBlocks[i] = base64.StdEncoding.EncodeToString(out[i*blockBytes : (i+1)*blockBytes])
			}
		} else {
			resp.Data = base64.StdEncoding.EncodeToString(out)
		}
	}
	return writeJSON(w, resp)
}

// encodeBlocks is the data-plane hot loop: link.SendBlocks over the
// blocks of payload in slices of ctxPollBlocks blocks, in order (links
// are stateful within a request), with the request context polled
// before each slice so a deadline cuts a large batch short. per (when
// non-nil, pre-sized to the block count) receives per-block costs, and
// decoded (when non-nil, pre-sized to len(payload)) the receiver's view
// of every block. The caller guarantees l implements link.Decoder when
// decoded is non-nil, and that len(payload) is a whole number of
// blocks. Allocation-free in the steady state
// (TestEncodeHotPathZeroAlloc).
//
//desclint:hotpath
func encodeBlocks(ctx context.Context, l link.Link, payload []byte, blockBytes int, per []link.Cost, decoded []byte) (link.Cost, error) {
	var total link.Cost
	step := ctxPollBlocks * blockBytes
	for i, off := 0, 0; off < len(payload); i, off = i+ctxPollBlocks, off+step {
		if ctx.Err() != nil {
			return total, ctx.Err()
		}
		end := min(off+step, len(payload))
		var p []link.Cost
		if per != nil {
			p = per[i:]
		}
		var d []byte
		if decoded != nil {
			d = decoded[off:end]
		}
		total.Add(link.SendBlocks(l, payload[off:end], p, d))
	}
	return total, nil
}

// isBinary reports whether the request carries a raw block stream.
func isBinary(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == "application/octet-stream"
}

// requestFromQuery fills a blockRequest from binary-mode query
// parameters.
func requestFromQuery(r *http.Request, req *blockRequest) error {
	q := r.URL.Query()
	req.Scheme = q.Get("scheme")
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"block_bits", &req.BlockBits},
		{"data_wires", &req.DataWires},
		{"chunk_bits", &req.ChunkBits},
		{"segment_bits", &req.SegmentBits},
	} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return errf(http.StatusBadRequest, "serve: query parameter %s=%q is not an integer", f.name, v)
		}
		*f.dst = n
	}
	req.PerBlock = q.Get("per_block") == "true" || q.Get("per_block") == "1"
	return nil
}

// specFor resolves the request's scheme and geometry to a canonical
// link.Spec: the registered design point with the request's nonzero
// overrides applied. Negative overrides pass through so the scheme's
// own Validate rejects them by name (the only-exact-zero-defaults
// discipline). Unknown schemes are 404s carrying the registry's
// did-you-mean suggestion.
//
// Beyond the scheme's own Validate, the service caps the geometry
// before any codec is constructed: scratch allocation is proportional
// to BlockBits and DataWires, so client-controlled values must be
// bounded or a single query parameter forces arbitrary allocations
// (TestHostileGeometryRejected). A block larger than MaxBodyBytes is
// rejected outright — no request body could ever deliver even one such
// block.
func (s *Server) specFor(req *blockRequest) (link.Spec, error) {
	if req.Scheme == "" {
		return link.Spec{}, errf(http.StatusBadRequest, "serve: missing scheme (GET /v1/schemes lists the registry)")
	}
	d, ok := link.Lookup(req.Scheme)
	if !ok {
		// link.New composes the unknown-scheme error, including the
		// edit-distance suggestion.
		_, err := link.New(link.Spec{Scheme: req.Scheme})
		return link.Spec{}, errf(http.StatusNotFound, "serve: %v", err)
	}
	blockBits := req.BlockBits
	if blockBits == 0 {
		blockBits = defaultBlockBits
	}
	spec := d.Traits.DesignSpec(req.Scheme, blockBits)
	if req.DataWires != 0 {
		spec.DataWires = req.DataWires
	}
	if req.ChunkBits != 0 {
		spec.ChunkBits = req.ChunkBits
	}
	if req.SegmentBits != 0 {
		spec.SegmentBits = req.SegmentBits
	}
	if err := spec.Validate(); err != nil {
		return link.Spec{}, errf(http.StatusBadRequest, "serve: %v", err)
	}
	if int64(spec.BlockBits/8) > s.cfg.MaxBodyBytes {
		return link.Spec{}, errf(http.StatusBadRequest,
			"serve: block_bits %d is a %d-byte block, over the %d-byte body limit",
			spec.BlockBits, spec.BlockBits/8, s.cfg.MaxBodyBytes)
	}
	if spec.DataWires > maxDataWires {
		return link.Spec{}, errf(http.StatusBadRequest,
			"serve: data_wires %d exceeds the service cap of %d", spec.DataWires, maxDataWires)
	}
	return spec, nil
}

// gatherPayload assembles the request's block stream into the pooled
// raw buffer: the raw body in binary mode, decoded base64 otherwise.
// The returned slice aliases c.raw and is a validated whole number of
// blocks. Every path allocates at most MaxBodyBytes: the binary body is
// reader-limited, base64 decodes smaller than its input, and the
// per-block form's claimed total is checked against the cap before the
// buffer is sized (base64 always inflates, so a claim past the cap
// could never have validated anyway — rejecting it early just skips the
// multi-gigabyte make a hostile block_bits × block count would ask for).
func (s *Server) gatherPayload(r *http.Request, req *blockRequest, c *pooled, binary bool, blockBytes int) ([]byte, error) {
	var payload []byte
	switch {
	case binary:
		var err error
		payload, err = readBody(r, c)
		if err != nil {
			return nil, err
		}
	case req.Data != "" && len(req.Blocks) > 0:
		return nil, errf(http.StatusBadRequest, "serve: request sets both data and blocks; use one")
	case req.Data != "":
		buf := grow(&c.raw, base64.StdEncoding.DecodedLen(len(req.Data)))
		n, err := base64.StdEncoding.Decode(buf, []byte(req.Data))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "serve: data is not valid base64: %v", err)
		}
		payload = buf[:n]
	case len(req.Blocks) > 0:
		if need := int64(len(req.Blocks)) * int64(blockBytes); need > s.cfg.MaxBodyBytes {
			return nil, errf(http.StatusRequestEntityTooLarge,
				"serve: %d blocks of %d bytes decode to %d bytes, over the %d-byte body limit",
				len(req.Blocks), blockBytes, need, s.cfg.MaxBodyBytes)
		}
		payload = grow(&c.raw, len(req.Blocks)*blockBytes)[:0]
		for i, b := range req.Blocks {
			blk, err := base64.StdEncoding.AppendDecode(payload, []byte(b))
			if err != nil {
				return nil, errf(http.StatusBadRequest, "serve: block %d is not valid base64: %v", i, err)
			}
			if len(blk)-len(payload) != blockBytes {
				return nil, errf(http.StatusBadRequest,
					"serve: block %d is %d bytes, want exactly %d", i, len(blk)-len(payload), blockBytes)
			}
			payload = blk
		}
	default:
		return nil, errf(http.StatusBadRequest, "serve: request carries no blocks (set data or blocks)")
	}
	if len(payload) == 0 {
		return nil, errf(http.StatusBadRequest, "serve: empty payload")
	}
	if len(payload)%blockBytes != 0 {
		return nil, errf(http.StatusBadRequest,
			"serve: payload of %d bytes is not a whole number of %d-byte blocks", len(payload), blockBytes)
	}
	return payload, nil
}

// readBody reads the whole (size-limited) request body into the pooled
// raw buffer, growing it only when a larger request than any before
// arrives.
func readBody(r *http.Request, c *pooled) ([]byte, error) {
	buf := c.raw[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			c.raw = buf
			return buf, nil
		}
		if err != nil {
			c.raw = buf
			return nil, err // MaxBytesError maps to 413 in statusOf
		}
	}
}

// schemeCounters are one scheme's live link counters on /metrics.
type schemeCounters struct {
	blocks, payloadBytes, cycles       *metrics.Counter
	flipsData, flipsControl, flipsSync *metrics.Counter
}

// recordScheme bumps the per-scheme live counters the /metrics endpoint
// samples — blocks, payload bytes, and the flip/cycle totals of what
// just went over the link. Once a scheme's counters exist it neither
// allocates nor takes the registry's lock.
//
//desclint:hotpath once per data-plane request
func (s *Server) recordScheme(scheme string, blocks, payloadBytes int, total link.Cost) {
	c := s.countersFor(scheme)
	c.blocks.Add(uint64(blocks))
	c.payloadBytes.Add(uint64(payloadBytes))
	c.cycles.Add(uint64(total.Cycles))
	c.flipsData.Add(total.Flips.Data)
	c.flipsControl.Add(total.Flips.Control)
	c.flipsSync.Add(total.Flips.Sync)
}

// countersFor returns scheme's counters, registering them on the
// scheme's first recorded request. Schemes reach it only after specFor
// found them in the link registry, so the map stays as small as that.
func (s *Server) countersFor(scheme string) *schemeCounters {
	s.countersMu.RLock()
	c := s.counters[scheme]
	s.countersMu.RUnlock()
	if c != nil {
		return c
	}
	// Two first requests may race here; the registry hands both the
	// same counters, so either entry serves.
	pre := "serve/link/" + scheme + "/"
	c = &schemeCounters{
		blocks:       s.reg.Counter(pre + "blocks"),
		payloadBytes: s.reg.Counter(pre + "payload_bytes"),
		cycles:       s.reg.Counter(pre + "cycles"),
		flipsData:    s.reg.Counter(pre + "flips_data"),
		flipsControl: s.reg.Counter(pre + "flips_control"),
		flipsSync:    s.reg.Counter(pre + "flips_sync"),
	}
	s.countersMu.Lock()
	s.counters[scheme] = c
	s.countersMu.Unlock()
	return c
}

// grow returns buf resized to n, reallocating only when capacity falls
// short — the pooled-scratch growth pattern.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
