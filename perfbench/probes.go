package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"desc/internal/cachemodel"
	"desc/internal/cachesim"
	"desc/internal/exp"
	"desc/internal/link"
	"desc/internal/runcache"
	"desc/internal/trace"
	"desc/internal/workload"
)

// layerCounts gathers the exact counters of traced work across layers.
type layerCounts struct {
	sim simCounts
	exp expCounts
	// cacheDir is a filled run-cache dir for the runcache probe.
	cacheDir string
	// Standalone per-call times of layers with no boundary the workloads
	// cross from outside.
	linkSendNS, linkRecvNS     map[string]float64
	modelAccessNS, simAccessNS float64
	getUS, putUS               float64
	serveRequests, serveErrors uint64
	requestBlocks              int
}

// linkSchemes are the design points the link probe times.
var linkSchemes = []string{"desc-zero", "binary"}

// probeIdleLayers runs what the workload's own traced ops cannot show:
// standalone replays of the per-access layers over the workload's
// blocks, and a small fixed probe of every layer the workload leaves
// idle, so every per-layer metric exists on every workload. Probe spans
// carry op -1 and stay out of the op figures.
func probeIdleLayers(ctx context.Context, cfg config, w benchWorkload, tr *tracer, lc *layerCounts) error {
	blocks := w.blocks()
	if err := probeLink(blocks, lc); err != nil {
		return err
	}
	if err := probeCacheModel(blocks, lc); err != nil {
		return err
	}
	if err := probeCacheSim(cfg.seed, lc); err != nil {
		return err
	}
	byName := statsByName(tr.snapshot())
	if byName["cpusim.RunWith"].n == 0 {
		prof, _ := workload.ByName("Art")
		sp := tr.begin(-1, -1, "bench", "probe")
		_, err := simulate(ctx, tr, sp, -1, exp.DESCZero(), prof, cfg.seed, cfg.sc.probeInstr, &lc.sim)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	switch s := w.(type) {
	case sweepCold:
		lc.cacheDir = s.lastDir
	case *sweepWarm:
		lc.cacheDir = s.dir
	}
	if byName["exp.Execute"].n == 0 {
		// A cold then a warm pass over a small sweep, with a disk cache.
		opt := exp.Options{Quick: true, Seed: cfg.seed, InstrPerContext: cfg.sc.probeInstr / 4}
		exps, err := exp.ByIDs([]string{"fig26"})
		if err != nil {
			return err
		}
		plan := exps[0].Demands(opt.WithDefaults())
		dir := filepath.Join(cfg.workDir, "probe-cache")
		_ = os.RemoveAll(dir)
		for pass := 0; pass < 2; pass++ {
			sp := tr.begin(-1, -1, "bench", "probe")
			_, err := runPass(ctx, tr, sp, -1, nil, dir, opt, exps, plan, false, &lc.exp)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		defer os.RemoveAll(dir)
		lc.cacheDir = dir
	}
	if err := probeRunCache(lc.cacheDir, lc); err != nil {
		return err
	}
	if se, ok := w.(*serveEncode); ok {
		lc.requestBlocks = len(se.batch) / 64
		lc.serveRequests, lc.serveErrors, _ = se.srv.counters(ctx)
		return nil
	}
	return probeServe(ctx, tr, blocks, lc)
}

// timePerItem runs f over n items once to warm up, then reps times, and
// returns the median time per item in nanoseconds.
func timePerItem(reps, n int, f func()) float64 {
	f()
	var per []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		f()
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// probeLink times link Send (the encode path) and Send plus the receiver
// view (the decode path /v1/decode serves) per block.
func probeLink(blocks []byte, lc *layerCounts) error {
	lc.linkSendNS, lc.linkRecvNS = map[string]float64{}, map[string]float64{}
	n := len(blocks) / 64
	out := make([]byte, 64)
	for _, scheme := range linkSchemes {
		l, err := link.New(designLink(scheme))
		if err != nil {
			return err
		}
		dec, _ := l.(link.Decoder)
		lc.linkSendNS[scheme] = timePerItem(7, n, func() {
			l.Reset()
			for off := 0; off < len(blocks); off += 64 {
				l.Send(blocks[off : off+64])
			}
		})
		lc.linkRecvNS[scheme] = timePerItem(7, n, func() {
			l.Reset()
			for off := 0; off < len(blocks); off += 64 {
				l.Send(blocks[off : off+64])
				if dec != nil {
					copy(out, dec.LastDecoded())
				}
			}
		})
	}
	return nil
}

// probeCacheModel replays the blocks through cachemodel.Model.Access at
// the design point, banks in rotation, one write in four.
func probeCacheModel(blocks []byte, lc *layerCounts) error {
	m, err := cachemodel.New(cachemodel.Config{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4})
	if err != nil {
		return err
	}
	n := len(blocks) / 64
	banks := m.Banks()
	lc.modelAccessNS = timePerItem(7, n, func() {
		for i := 0; i < n; i++ {
			m.Access(i%banks, blocks[i*64:(i+1)*64], i%4 == 0)
		}
	})
	return nil
}

// probeCacheSim captures an access stream with internal/trace and
// replays it through cachesim.Hierarchy.Access.
func probeCacheSim(seed int64, lc *layerCounts) error {
	prof, _ := workload.ByName("Art")
	gen := workload.NewGenerator(prof, seed)
	const nctx, perContext = 32, 2048
	var buf bytes.Buffer
	if _, err := trace.Capture(gen, seed, nctx, perContext, &buf); err != nil {
		return err
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return err
	}
	recs, err := r.ReadAll()
	if err != nil {
		return err
	}
	lc.simAccessNS = timePerItem(3, nctx*perContext, func() {
		h, herr := cachesim.New(cachesim.Config{L2: cachemodel.Config{Scheme: "desc-zero", DataWires: 128, ChunkBits: 4}}, gen)
		if herr != nil {
			err = herr
			return
		}
		var now uint64
		for i := 0; i < perContext; i++ {
			for c := 0; c < nctx; c++ {
				a := recs[c][i]
				now += uint64(a.Gap) + 1
				h.Access(now, c/4, a.Addr, a.Write)
			}
		}
	})
	return err
}

// probeRunCache times Store.Get over every entry of a filled cache dir
// and Store.Put of the same payloads into an empty one.
func probeRunCache(dir string, lc *layerCounts) error {
	src, err := runcache.Open(dir, nil)
	if err != nil {
		return err
	}
	keys, err := src.Keys()
	if err != nil || len(keys) == 0 {
		return err
	}
	payloads := make([][]byte, len(keys))
	lc.getUS = timePerItem(3, len(keys), func() {
		for i, k := range keys {
			payloads[i], _ = src.Get(k)
		}
	}) / 1e3
	putDir := dir + "-put"
	defer os.RemoveAll(putDir)
	dst, err := runcache.Open(putDir, nil)
	if err != nil {
		return err
	}
	lc.putUS = timePerItem(3, len(keys), func() {
		for i, k := range keys {
			if perr := dst.Put(k, payloads[i]); perr != nil {
				err = perr
			}
		}
	}) / 1e3
	return err
}

// probeServe sends a few encode requests of the workload's blocks to an
// in-process server.
func probeServe(ctx context.Context, tr *tracer, blocks []byte, lc *layerCounts) error {
	if len(blocks) > 4096*64 {
		blocks = blocks[:4096*64]
	}
	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.stop()
	for i := 0; i < 20; i++ {
		sp := tr.begin(-1, -1, "bench", "probe")
		hsp := tr.begin(sp, -1, "serve", "http.request")
		srv.traceNext(tr, hsp, -1)
		_, err := srv.encode(ctx, "desc-zero", blocks)
		tr.end(hsp)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	lc.requestBlocks = len(blocks) / 64
	lc.serveRequests, lc.serveErrors, err = srv.counters(ctx)
	return err
}

// layerMetrics derives every per-layer metric from the spans and
// counters of a traced run.
func layerMetrics(spans []span, lc *layerCounts, plain, traced *stepTotals, mem *runtimeTotals) map[string]metric {
	by := statsByName(spans)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runs := float64(by["cpusim.RunWith"].n)
	fill, next := by["workload.FillBlockData"], by["workload.Stream.Next"]
	execSelf := selfTimes(spans, func(s span) bool { return s.Name == "exp.Execute" },
		func(span) string { return "" })[""]
	s := lc.sim
	e := lc.exp
	l2 := float64(s.l2Hits + s.l2Miss)
	plainOps := float64(len(plain.opMS))
	p50plain, p50traced := percentile(plain.opMS, 50), percentile(traced.opMS, 50)
	m := map[string]metric{
		"workload.new_generator_ms":              {by["workload.NewGenerator"].meanMS(), "ms"},
		"workload.fill_block_ns":                 {fill.perCallNS(), "ns"},
		"workload.fill_blocks_per_run":           {div(float64(fill.calls), runs), "count"},
		"workload.next_ns":                       {next.perCallNS(), "ns"},
		"workload.next_calls_per_run":            {div(float64(next.calls), runs), "count"},
		"cachemodel.access_ns":                   {lc.modelAccessNS, "ns"},
		"cachemodel.accesses_per_run":            {div(float64(s.modelAccesses), float64(s.runs)), "count"},
		"cachesim.new_ms":                        {by["cachesim.New"].meanMS(), "ms"},
		"cachesim.access_ns":                     {lc.simAccessNS, "ns"},
		"cachesim.l2_hit_ratio":                  {div(float64(s.l2Hits), l2), "ratio"},
		"cachesim.mshr_merge_ratio":              {div(float64(s.mshrMerges), float64(s.l2Miss)), "ratio"},
		"cachesim.queue_delay_cycles_per_access": {div(float64(s.queueDelay), l2), "cycles"},
		"cpusim.run_ms":                          {by["cpusim.RunWith"].meanMS(), "ms"},
		"cpusim.run_excl_workload_ms":            {div(float64(by["cpusim.RunWith"].ns-fill.ns-next.ns)/1e6, runs), "ms"},
		"cpusim.quanta_per_run":                  {div(float64(s.quanta), float64(s.runs)), "count"},
		"energy.compute_us":                      {by["energy.Compute"].meanMS() * 1e3, "us"},
		"exp.execute_ms":                         {by["exp.Execute"].meanMS(), "ms"},
		"exp.overhead_ms":                        {div(float64(execSelf)/1e6, float64(by["exp.Execute"].n)), "ms"},
		"exp.runs_started":                       {div(float64(e.runsStarted), float64(e.executes)), "count"},
		"exp.dedup_skips":                        {div(float64(e.dedupSkips), float64(e.executes)), "count"},
		"exp.disk_hits":                          {div(float64(e.diskHits), float64(e.executes)), "count"},
		"runcache.get_us":                        {lc.getUS, "us"},
		"runcache.put_us":                        {lc.putUS, "us"},
		"runcache.hit_ratio":                     {div(float64(e.hits), float64(e.hits+e.misses)), "ratio"},
		"runcache.corrupt":                       {float64(e.corrupt), "count"},
		"stats.render_ms":                        {by["stats.render"].meanMS(), "ms"},
		"serve.self_ms":                          {by["serve.handler"].meanMS() - lc.linkSendNS["desc-zero"]*float64(lc.requestBlocks)/1e6, "ms"},
		"serve.requests":                         {float64(lc.serveRequests), "count"},
		"serve.errors":                           {float64(lc.serveErrors), "count"},
		"runtime.allocs_per_op":                  {div(float64(mem.mallocs), plainOps), "count"},
		"runtime.alloc_mb_per_op":                {div(float64(mem.bytes)/(1<<20), plainOps), "MB"},
		"runtime.gc_cycles_per_op":               {div(float64(mem.numGC), plainOps), "count"},
		"trace.coverage":                         {coverage(spans), "ratio"},
		"trace.op_ms_p50":                        {p50traced, "ms"},
		"trace.overhead_ms":                      {p50traced - p50plain, "ms"},
	}
	for _, scheme := range linkSchemes {
		name := strings.ReplaceAll(scheme, "-", "_")
		m["link."+name+".send_ns_per_block"] = metric{lc.linkSendNS[scheme], "ns"}
		m["link."+name+".recv_ns_per_block"] = metric{lc.linkRecvNS[scheme], "ns"}
	}
	self := selfTimes(spans, func(s span) bool { return s.Op >= 0 }, func(s span) string { return s.Layer })
	tracedOps := float64(len(traced.opMS))
	for _, layer := range selfLayers {
		m[layer+".self_ms_per_op"] = metric{div(float64(self[layer])/1e6, tracedOps), "ms"}
	}
	return m
}

// selfLayers are the layers whose self time per traced op is reported;
// "bench" is op time no layer span covers.
var selfLayers = []string{"bench", "workload", "cachesim", "cpusim", "energy", "exp", "runcache", "stats", "serve"}
