package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// Shares of the serving half's seconds (1 - trainShare of --seconds).
const (
	warmShare   = 0.05 // unmeasured warm-up at the fixed rate
	fixedShare  = 0.60 // fixed-rate phase: p50_ms, serve_cpu_us_per_req
	reloadShare = 0.35 // fixed rate plus /reload calls: oracle under reloads, wall reload_s
	idleShare   = 0.10 // /reload calls without traffic: the reported reload CPU
	stepShare   = 0.05 // one ramp step of the traced run: serve.max_ok_per_s
	// fixedWindows splits the fixed-rate phase: the reported p99 is the
	// median of the windows' p99s, and the traced run alternates
	// untraced and traced windows.
	fixedWindows = 4
)

// runWorkload runs one workload end to end and fills r.
func runWorkload(w workload, o options, dir string, r *report) error {
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	ds, err := generateDataset(w, filepath.Join(dir, dataFile))
	if err != nil {
		return err
	}
	logf("generated %s (|V|=%d |E|=%d) in %.1fs", w.preset, ds.G.NumVertices(), ds.G.NumEdges(), time.Since(start).Seconds())

	// Training half.
	tro, err := runTraining(w, o, dir)
	if err != nil {
		return err
	}
	r.attempted += tro.Steps + replaySteps
	r.failed += tro.Mismatches
	logf("trained %d steps, %d epochs (median %.3fs), final loss %.4f, val F1 %.4f",
		tro.Steps, len(tro.EpochS), median(tro.EpochS), tro.FinalLoss, tro.ValF1)

	// Serving inputs: artifacts per checkpoint and in-process oracles.
	start = time.Now()
	snapB, err := buildSnapshot(w, ds, filepath.Join(dir, ckptB), filepath.Join(dir, artifactB), o.seed, w.ann || o.trace, workers)
	if err != nil {
		return err
	}
	snapA, err := buildSnapshot(w, ds, filepath.Join(dir, ckptA), filepath.Join(dir, artifactA), o.seed, w.ann, workers)
	if err != nil {
		return err
	}
	ver := newVerifier(w, snapA, snapB)
	logf("built artifacts and oracles in %.1fs", time.Since(start).Seconds())

	// Serving half: set-ups, then load.
	logFile, err := os.Create(filepath.Join(dir, serverLogs))
	if err != nil {
		return err
	}
	defer logFile.Close()
	var (
		srv             *server
		ready, readyCPU []float64
	)
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		srv, d, err = startServer(w, o, dir, logFile)
		if err != nil {
			return err
		}
		ready = append(ready, d.Seconds())
		readyCPU = append(readyCPU, srv.readyCPU)
	}
	defer srv.stop()
	h, err := srv.health()
	if err != nil {
		return err
	}
	r.attempted++
	if w.warm && !h.WarmStart {
		logf("server did not warm-start: %s", h.WarmNote)
		r.failed++
	}
	logf("server ready in %.3fs (median of %d)", median(ready), len(ready))

	var snd sender
	conc := loadConns
	if w.transport == "tcp" {
		ts, err := newTCPSender(srv.wireAddr, w)
		if err != nil {
			return err
		}
		snd, conc = ts, inflight
	} else {
		snd = newJSONSender(srv.base, w)
	}
	defer snd.close()

	serveSecs := (1 - trainShare) * o.seconds
	phaseOps := func(st *stream, rate, share float64) []op {
		n := int(math.Round(rate * share * serveSecs))
		if n < 1 {
			n = 1
		}
		return st.ops(n)
	}
	st := newStream(w, ds.G.NumVertices(), int64(o.seed)*2654435761+17)
	var all []phaseRun
	run := func(name string, ops []op, rate float64) phaseRun {
		p := phaseRun{name: name, ops: ops, outs: openLoop(snd, ops, rate, conc)}
		all = append(all, p)
		return p
	}

	run("warm-up", phaseOps(st, w.rate, warmShare), w.rate)
	var fixed []phaseRun
	var traced []bool
	var reloads []float64
	var reloadCPU float64
	var rampRes rampResult
	cpu0, srvCPU0 := selfCPU(), srv.cpu()
	var before, after promSample
	if o.trace {
		if before, err = srv.scrape(); err != nil {
			return err
		}
		for i := 0; i < fixedWindows; i++ {
			on := i%2 == 1
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if on {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scrapeUntil(srv, stop)
				}()
			}
			fixed = append(fixed, run("fixed", phaseOps(st, w.rate, fixedShare/fixedWindows), w.rate))
			close(stop)
			wg.Wait()
			traced = append(traced, on)
		}
		if after, err = srv.scrape(); err != nil {
			return err
		}
	} else {
		fixed = append(fixed, run("fixed", phaseOps(st, w.rate, fixedShare), w.rate))
	}
	cpu1, srvCPU1 := selfCPU(), srv.cpu()
	var fixedOps []op
	for _, p := range fixed {
		fixedOps = append(fixedOps, p.ops...)
	}

	if !o.trace {
		reloads, err = reloadPhase(w, srv, dir, phaseOps(st, w.rate, reloadShare), func(ops []op) phaseRun { return run("reload", ops, w.rate) }, r)
		if err != nil {
			return err
		}
		// Start the idle reloads on whichever checkpoint is not serving:
		// re-installing the current one would reuse its tables.
		cur, err := srv.health()
		if err != nil {
			return err
		}
		first := 0
		if cur.ModelVersion == snapA.modelVersion {
			first = 1
		}
		if reloadCPU, err = idleReloadCPU(w, srv, dir, first, idleShare*serveSecs, r); err != nil {
			return err
		}
	}
	// Peak RSS covers set-up, the fixed rate and the reloads; the traced
	// run's ramp deliberately overloads the server and comes after it.
	rss, err := vmHWM(srv.pid)
	if err != nil {
		return err
	}
	if o.trace {
		rampRes, err = runRamp(w, st, serveSecs, func(ops []op, rate float64) phaseRun { return run("ramp", ops, rate) })
		if err != nil {
			return err
		}
	}
	hEnd, err := srv.health()
	if err != nil {
		return err
	}
	srv.stop()

	// Verify every kept answer before computing latency, so a
	// mismatched answer counts as missing every limit.
	checked, mismatched := 0, 0
	for _, p := range all {
		c, m := ver.verifyAll(p.ops, p.outs)
		checked += c
		mismatched += m
	}
	logf("oracle: %d answers checked, %d mismatched", checked, mismatched)
	for _, p := range all {
		s := summarize(p.outs)
		r.attempted += s.n
		r.failed += s.failed
		if s.failed > 0 {
			logf("%s phase: %d of %d requests failed (first: %v)", p.name, s.failed, s.n, s.failedExample)
		}
	}

	var fixedOuts []outcome
	for _, p := range fixed {
		fixedOuts = append(fixedOuts, p.outs...)
	}
	fs := summarize(fixedOuts)
	capMs := fs.durationMs
	// The gated times are CPU times: on a shared host the wall times
	// below follow the neighbours' load (README.md) and go to the
	// properties line instead.
	cpuPerReq := (srvCPU1 - srvCPU0) / float64(fs.n)
	r.set("setup_s", median(tro.SetupCPU)+median(readyCPU))
	r.set("epoch_cpu_s", median(tro.EpochCPU))
	r.set("final_loss", tro.FinalLoss)
	r.set("serve_cpu_us_per_req", 1e6*cpuPerReq)
	r.set("recall_at_10", mean(ver.recall))
	r.set("peak_rss_mb", rss)
	r.set("train_rss_mb", tro.RSSMB)
	logf("fixed %.0f/s: p50 %.3fms p99 %.3fms (n=%d, windows %.3f), late p99 %.3fms, server cpu %.1fus/req; max ok %.0f/s; reload %.3fs (%d, %.1fms cpu); recall %.4f over %d",
		w.rate, fs.p50, fs.p99, fs.n, windowQuantiles(fs.latMs, fixedWindows, 0.99), fs.lateP99, 1e6*cpuPerReq, rampRes.peakOKPerS,
		median(reloads), len(reloads), 1000*reloadCPU, mean(ver.recall), len(ver.recall))

	// Workload properties: the inputs that decide whether an
	// optimisation applies.
	share := repeatShare(fixedOps)
	r.prop("subgraph_vertices", tro.SubN)
	r.prop("subgraph_avg_degree", tro.SubAvgDeg)
	r.prop("ids_per_request", meanIDs(fixedOps))
	r.prop("zipf_s", w.zipfS)
	r.prop("topk_repeat_share", share)
	r.prop("epochs_timed", len(tro.EpochS))
	r.prop("fixed_epochs", w.epochs)
	r.prop("fixed_phase_requests", fs.n)
	// p99 at the fixed rate is reported, not gated: on a shared 2-core
	// host it follows the host's scheduling noise (README.md).
	windows := windowQuantiles(fs.latMs, fixedWindows, 0.99)
	for i := range windows {
		windows[i] = math.Min(windows[i], capMs)
	}
	r.prop("p99_ms", median(windows))
	r.prop("p99_window_ms", windows)
	r.prop("p99_tail_samples_per_window", int(float64(fs.n)*0.01/fixedWindows))
	r.prop("epochs_s", tro.EpochS)
	r.prop("setup_wall_s", median(tro.SetupS)+median(ready))
	r.prop("epoch_s", median(tro.EpochS))
	r.prop("p50_ms", math.Min(fs.p50, capMs))
	r.prop("reload_s", median(reloads))
	r.prop("reload_cpu_ms", 1000*reloadCPU)
	r.prop("reloads", len(reloads))
	r.prop("val_f1", tro.ValF1)
	r.prop("coalescing", hEnd.Coalescing)

	if !o.trace {
		return nil
	}
	// Per-layer metrics of the traced run.
	for k, v := range tro.Layers {
		r.set(k, v)
	}
	r.set("datasets.read_s", median(tro.ReadS))
	r.set("core.setup_s", median(tro.SetupCPU))
	r.set("serve.ready_s", median(readyCPU))
	r.set("sampler.sample_ms", tro.SampleMs)
	r.set("sampler.pool_wait_ms", mean(tro.WaitMs))
	r.set("nn.featprop_ms", mean(tro.FeatMs))
	r.set("nn.weight_ms", mean(tro.WeightMs))
	r.set("core.step_ms", mean(tro.StepMs))
	r.set("core.step_other_ms", mean(tro.StepMs)-mean(tro.FeatMs)-mean(tro.WeightMs)-mean(tro.WaitMs))
	r.set("core.alloc_mb_per_step", tro.AllocMB/float64(tro.Steps))
	r.set("core.gc_per_step", tro.NumGC/float64(tro.Steps))
	r.set("core.val_f1", tro.ValF1)
	var on, off []float64
	for i, e := range tro.EpochS {
		if tro.EpochTraced[i] {
			on = append(on, e)
		} else {
			off = append(off, e)
		}
	}
	r.set("trace.epoch_overhead_pct", overheadPct(on, off))
	var pOn, pOff []float64
	for i, p := range fixed {
		s := summarize(p.outs)
		if traced[i] {
			pOn = append(pOn, s.latMs...)
		} else {
			pOff = append(pOff, s.latMs...)
		}
	}
	r.set("trace.p50_overhead_pct", 100*(median(pOn)-median(pOff))/median(pOff))
	r.set("serve.p50_ms", quantile(pOff, 0.5))
	r.set("serve.p99_ms", quantile(pOff, 0.99))
	r.set("serve.max_ok_per_s", rampRes.peakOKPerS)
	r.set("serve.max_ok_within_slo_per_s", rampRes.withinSLO.okPerS)
	batches := delta(before, after, "gsgcn_batcher_batches_total")
	queries := delta(before, after, "gsgcn_batcher_queries_total")
	r.set("serve.batch_size", ratio(queries, batches))
	r.set("serve.flush_ms", 1000*ratio(delta(before, after, "gsgcn_batcher_flush_duration_seconds_sum"),
		delta(before, after, "gsgcn_batcher_flush_duration_seconds_count")))
	r.set("serve.shed", delta(before, after, "gsgcn_shed_total"))
	r.set("serve.topk_repeat_share", share)
	r.set("serve.resident_mb", float64(h.ResidentBytes)/(1<<20))
	r.set("gen.late_ms_p99", fs.lateP99)
	genCPU := cpu1 - cpu0
	r.set("gen.cpu_share", ratio(genCPU, genCPU+(srvCPU1-srvCPU0)))
	r.set("prop.subgraph_vertices", tro.SubN)
	r.set("prop.subgraph_avg_degree", tro.SubAvgDeg)
	r.set("prop.ids_per_request", meanIDs(fixedOps))
	r.set("prop.zipf_s", w.zipfS)
	return serveProbes(w, o, ds, snapA, snapB, fixedOps, workers, r)
}

// phaseRun is one open-loop phase's requests and outcomes.
type phaseRun struct {
	name string
	ops  []op
	outs []outcome
}

// rampResult is what the ramp found: the highest step that met the
// SLO, and the most answers per second any step without a failed
// request delivered (the server's capacity: past the knee the backlog
// grows, but answers keep coming at the rate the server can sustain).
type rampResult struct {
	withinSLO  phaseStats
	peakOKPerS float64
}

// runRamp offers the step grid rate*grid^i coarse-to-fine (see ramp).
func runRamp(w workload, st *stream, serveSecs float64, run func([]op, float64) phaseRun) (rampResult, error) {
	var res rampResult
	results := map[int]phaseStats{}
	// A step fails only when two attempts in a row fail, so one
	// transient stall on the shared cores does not end the ramp.
	best := ramp(rampSteps, rampCoarse, func(i int) bool {
		rate := w.rate * math.Pow(rampGrid, float64(i))
		n := int(math.Round(rate * stepShare * serveSecs))
		for try := 0; try < 2; try++ {
			p := run(st.ops(n), rate)
			s := summarize(p.outs)
			pass := stepPasses(s, sloMs)
			logf("ramp step %d: offered %.0f/s ok %.0f/s p99 %.2fms late growth %.2fms failed %d pass=%v",
				i, rate, s.okPerS, s.p99, s.lateGrowthMs, s.failed, pass)
			if s.failed == 0 && s.okPerS > res.peakOKPerS {
				res.peakOKPerS = s.okPerS
			}
			// Let a saturated step's backlog drain before the next one.
			time.Sleep(100 * time.Millisecond)
			if pass {
				results[i] = s
				return true
			}
		}
		return false
	})
	if best < 0 {
		return res, fmt.Errorf("the ramp's first step (%.0f/s) failed twice", w.rate)
	}
	res.withinSLO = results[best]
	return res, nil
}

// reloadTarget is one checkpoint a /reload installs, with its
// artifact base ("" for a workload that reloads cold).
type reloadTarget struct{ ckpt, art string }

// reloadTargets are A and B, in the order reloads alternate (the
// server starts on B).
func reloadTargets(w workload, dir string) []reloadTarget {
	targets := []reloadTarget{{filepath.Join(dir, ckptA), filepath.Join(dir, artifactA)}, {filepath.Join(dir, ckptB), filepath.Join(dir, artifactB)}}
	if !w.warm {
		targets[0].art, targets[1].art = "", ""
	}
	return targets
}

// minIdleReloads bounds the idle reloads from below, so a workload
// whose reloads are slow still takes a median-worthy sample.
const minIdleReloads = 4

// idleReloadCPU runs back-to-back /reload calls with no traffic,
// alternating A and B from targets[first], for secs seconds and at
// least minIdleReloads, and returns the server's CPU seconds per
// reload. Without traffic the server's CPU is the reloads' alone.
func idleReloadCPU(w workload, srv *server, dir string, first int, secs float64, r *report) (float64, error) {
	targets := reloadTargets(w, dir)
	c0, start := srv.cpu(), time.Now()
	n := 0
	for ; n < minIdleReloads || time.Since(start).Seconds() < secs; n++ {
		t := targets[(first+n)%2]
		r.attempted++
		if _, err := srv.reload(t.ckpt, t.art); err != nil {
			r.failed++
			return 0, err
		}
	}
	return (srv.cpu() - c0) / float64(n), nil
}

// reloadPhase offers the fixed rate while /reload alternates between
// the two checkpoints (and their artifacts) every reloadEvery, and
// returns the reload round trips. A sharded workload's traffic comes
// in bursts of reloadEvery instead, and each reload runs after a
// burst's last answer: the router installs a model shard by shard, so
// a cross-shard answer that overlaps an install mixes two model
// versions under one version label (README.md, known finding).
func reloadPhase(w workload, srv *server, dir string, ops []op, run func([]op) phaseRun, r *report) ([]float64, error) {
	targets := reloadTargets(w, dir)
	if w.shards > 1 {
		return reloadBetweenBursts(w, srv, targets, ops, run, r)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var rounds []float64
	var failed int
	go func() {
		defer close(done)
		tick := time.NewTicker(w.reloadEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t := targets[i%2]
			d, err := srv.reload(t.ckpt, t.art)
			if err != nil {
				logf("reload: %v", err)
				failed++
				continue
			}
			rounds = append(rounds, d.Seconds())
		}
	}()
	run(ops)
	close(stop)
	<-done
	r.attempted += len(rounds) + failed
	r.failed += failed
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no reload completed during the reload phase")
	}
	return rounds, nil
}

// reloadBetweenBursts splits ops into bursts of reloadEvery at the
// fixed rate and calls /reload after each burst but the last, while
// no request is in flight.
func reloadBetweenBursts(w workload, srv *server, targets []reloadTarget, ops []op, run func([]op) phaseRun, r *report) ([]float64, error) {
	burst := int(math.Round(w.rate * w.reloadEvery.Seconds()))
	if burst < 1 {
		burst = 1
	}
	var rounds []float64
	for i := 0; i < len(ops); i += burst {
		run(ops[i:min(i+burst, len(ops))])
		if i+burst >= len(ops) {
			break
		}
		t := targets[len(rounds)%2]
		r.attempted++
		d, err := srv.reload(t.ckpt, t.art)
		if err != nil {
			r.failed++
			return nil, fmt.Errorf("reload: %w", err)
		}
		rounds = append(rounds, d.Seconds())
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("no reload completed during the reload phase")
	}
	return rounds, nil
}

// scrapeUntil polls /metrics and /healthz every 100ms until stop
// closes: the traced run's server-side observation.
func scrapeUntil(srv *server, stop chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			_, _ = srv.scrape()
			_, _ = srv.health()
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadPct is 100*(median(on)-median(off))/median(off).
func overheadPct(on, off []float64) float64 {
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(on) - median(off)) / median(off)
}
