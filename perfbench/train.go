package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"gsgcn/internal/core"
	"gsgcn/internal/datasets"
	"gsgcn/internal/graph"
	"gsgcn/internal/mat"
	"gsgcn/internal/partition"
	"gsgcn/internal/rng"
	"gsgcn/internal/sampler"
)

// The training half runs in a child process so that its peak RSS is
// the trainer's alone (input generation and the serving half's
// in-process oracles live in the parent).

const (
	trainShare  = 0.35 // share of --seconds the training half measures
	setupReps   = 4    // set-ups per run; setup_s reports their median
	replaySteps = 2    // steps replayed at Workers=1 by the loss oracle
	probeGraphs = 3    // subgraphs sampled for the per-layer probes
)

// Files of one run directory.
const (
	dataFile   = "data.gsg"
	ckptA      = "a.ckpt" // after epochs-1
	ckptB      = "b.ckpt" // after epochs: the checkpoint served first
	trainFile  = "train.json"
	artifactA  = "a.art"
	artifactB  = "b.art"
	serverLogs = "server.log"
)

// trainOut is what the training child reports to the parent.
type trainOut struct {
	SetupS      []float64 // wall
	SetupCPU    []float64 // CPU seconds of the same set-ups
	ReadS       []float64
	EpochS      []float64 // wall
	EpochCPU    []float64 // CPU seconds of the same epochs
	EpochTraced []bool
	StepMs      []float64
	WaitMs      []float64
	FeatMs      []float64
	WeightMs    []float64
	Steps       int
	FinalLoss   float64
	ValF1       float64
	Mismatches  int
	RSSMB       float64
	AllocMB     float64
	NumGC       float64
	SampleMs    float64
	SubN        float64
	SubAvgDeg   float64
	Layers      map[string]float64
}

// trainConfig is the model/trainer configuration of a workload: the
// frontier sampler at Config defaults, L=2, Workers = PInter = nproc.
func trainConfig(w workload, seed uint64, workers int) core.Config {
	return core.Config{
		Layers: 2, Hidden: w.hidden,
		Workers: workers, PInter: runtime.NumCPU(),
		Seed: seed + 1, // core treats 0 as "unset"
	}
}

// generateDataset writes the workload's .gsg file and returns the
// dataset. The graph is the preset's own, fixed across workload seeds
// like a real dataset; the seed varies everything drawn on top of it
// (initial weights, sampled subgraphs, served checkpoints and the
// request stream), so runs with different seeds are comparable.
func generateDataset(w workload, path string) (*datasets.Dataset, error) {
	cfg, err := datasets.Preset(w.preset, w.scale)
	if err != nil {
		return nil, err
	}
	ds := datasets.Generate(cfg)
	if err := datasets.WriteFile(ds, path); err != nil {
		return nil, fmt.Errorf("writing dataset: %w", err)
	}
	return ds, nil
}

// runTraining runs the training child and returns its report.
func runTraining(w workload, o options, dir string) (*trainOut, error) {
	args := []string{"--role", "train", "--dir", dir, "--workload", w.name,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace]}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	wait, err := children.start(cmd)
	if err != nil {
		return nil, err
	}
	select {
	case err = <-wait:
		children.forget(cmd)
	case <-time.After(150 * time.Second):
		children.stop(cmd, time.Second)
		return nil, fmt.Errorf("training half timed out")
	}
	if err != nil {
		return nil, fmt.Errorf("training half: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, trainFile))
	if err != nil {
		return nil, err
	}
	var out trainOut
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// timingSampler wraps a VertexSampler and accumulates the wall time
// of its calls while on. The pool calls it from several goroutines.
type timingSampler struct {
	inner sampler.VertexSampler
	on    atomic.Bool
	ns    atomic.Int64
	calls atomic.Int64
}

func (t *timingSampler) Name() string { return t.inner.Name() }

func (t *timingSampler) SampleVertices(r *rng.RNG) []int32 {
	if !t.on.Load() {
		return t.inner.SampleVertices(r)
	}
	start := time.Now()
	vs := t.inner.SampleVertices(r)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return vs
}

func frontierFor(ds *datasets.Dataset, cfg core.Config) *sampler.Frontier {
	return &sampler.Frontier{G: ds.G, M: cfg.FrontierM, N: cfg.Budget, Eta: cfg.Eta, DegCap: cfg.DegCap}
}

// trainChild is the child process: set-ups, the timed Step loop, the
// Workers=1 loss replay and, when traced, the per-layer probes.
func trainChild(w workload, o options, dir string) error {
	workers := runtime.GOMAXPROCS(0)
	cfg := trainConfig(w, o.seed, workers)
	path := filepath.Join(dir, dataFile)
	out := &trainOut{Layers: map[string]float64{}}

	var (
		ds *datasets.Dataset
		m  *core.Model
		tr *core.Trainer
		ts *timingSampler
	)
	for i := 0; i < setupReps; i++ {
		ds, m, tr = nil, nil, nil
		runtime.GC()
		debug.FreeOSMemory()
		start, cpu := time.Now(), selfCPU()
		var err error
		ds, err = datasets.ReadFile(path)
		if err != nil {
			return err
		}
		read := time.Since(start)
		m = core.NewModel(ds, cfg)
		if o.trace {
			ts = &timingSampler{inner: frontierFor(ds, m.Config())}
			tr = core.NewTrainerWithSampler(ds, m, ts)
		} else {
			tr = core.NewTrainer(ds, m)
		}
		out.SetupS = append(out.SetupS, time.Since(start).Seconds())
		out.SetupCPU = append(out.SetupCPU, selfCPU()-cpu)
		out.ReadS = append(out.ReadS, read.Seconds())
	}

	rc := m.Config()
	stepsPerEpoch := (ds.G.NumVertices() + rc.Budget - 1) / rc.Budget
	budget := time.Duration(trainShare * o.seconds * float64(time.Second))
	var firstLoss []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for epoch := 1; epoch <= w.epochs || time.Since(start) < budget; epoch++ {
		traced := o.trace && epoch%2 == 0
		if ts != nil {
			ts.on.Store(traced)
		}
		sum := 0.0
		epochStart, epochCPU := time.Now(), selfCPU()
		for s := 0; s < stepsPerEpoch; s++ {
			wait0, feat0, weight0 := tr.Timer.Get("sampling"), tr.Timer.Get("featprop"), tr.Timer.Get("weight")
			stepStart := time.Now()
			loss := tr.Step()
			out.StepMs = append(out.StepMs, ms(time.Since(stepStart)))
			out.WaitMs = append(out.WaitMs, ms(tr.Timer.Get("sampling")-wait0))
			out.FeatMs = append(out.FeatMs, ms(tr.Timer.Get("featprop")-feat0))
			out.WeightMs = append(out.WeightMs, ms(tr.Timer.Get("weight")-weight0))
			if len(firstLoss) < replaySteps {
				firstLoss = append(firstLoss, loss)
			}
			sum += loss
		}
		out.EpochS = append(out.EpochS, time.Since(epochStart).Seconds())
		out.EpochCPU = append(out.EpochCPU, selfCPU()-epochCPU)
		out.EpochTraced = append(out.EpochTraced, traced)
		switch epoch {
		case w.epochs - 1:
			if err := saveCheckpoint(m, tr, filepath.Join(dir, ckptA)); err != nil {
				return err
			}
		case w.epochs:
			out.FinalLoss = sum / float64(stepsPerEpoch)
			if err := saveCheckpoint(m, tr, filepath.Join(dir, ckptB)); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	out.Steps = tr.Steps()
	out.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	out.NumGC = float64(ms1.NumGC - ms0.NumGC)
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	out.RSSMB = rss
	if ts != nil && ts.calls.Load() > 0 {
		out.SampleMs = ms(time.Duration(ts.ns.Load() / ts.calls.Load()))
	}

	// Validation F1 of checkpoint B, evaluated after the timed loop: an
	// evaluation between epochs would let the sampler pool prefetch
	// untimed and make the next epoch look faster than it is.
	mb, err := core.LoadModelFile(filepath.Join(dir, ckptB))
	if err != nil {
		return err
	}
	out.ValF1 = core.NewTrainer(ds, mb).Evaluate(ds.ValIdx)

	// Loss oracle: the first steps replayed at Workers=1 must produce
	// bit-identical losses (the determinism contract).
	cfg1 := trainConfig(w, o.seed, 1)
	tr1 := core.NewTrainer(ds, core.NewModel(ds, cfg1))
	for i, want := range firstLoss {
		if got := tr1.Step(); math.Float64bits(got) != math.Float64bits(want) {
			logf("loss oracle: step %d loss %v at Workers=1, %v at Workers=%d", i, got, want, workers)
			out.Mismatches++
		}
	}

	subs := probeSubgraphs(ds, rc, o.seed, out)
	if o.trace {
		layerProbes(ds, m, subs, workers, out.Layers)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, trainFile), raw, 0o644)
}

func saveCheckpoint(m *core.Model, tr *core.Trainer, path string) error {
	m.ModelVersion = uint64(tr.Steps())
	return m.SaveFile(path)
}

// probeSubgraphs draws subgraphs with the workload's frontier sampler
// (on streams the trainer never uses), timing the sampler with its
// Dashboard statistics and CSR.Induce, and records the subgraph size
// and degree the workload properties report.
func probeSubgraphs(ds *datasets.Dataset, cfg core.Config, seed uint64, out *trainOut) []*graph.Subgraph {
	fr := frontierFor(ds, cfg)
	var hit, cleanups, induce, n, deg []float64
	var subs []*graph.Subgraph
	for i := 0; i < probeGraphs; i++ {
		r := rng.NewStream(seed+1, 1<<20+i)
		vs, st := fr.SampleVerticesStats(r)
		if st.Probes > 0 {
			hit = append(hit, float64(st.Pops)/float64(st.Probes))
		}
		cleanups = append(cleanups, float64(st.Cleanups))
		start := time.Now()
		sub := ds.G.Induce(vs)
		induce = append(induce, ms(time.Since(start)))
		n = append(n, float64(sub.N))
		deg = append(deg, sub.AvgDegree())
		subs = append(subs, sub)
	}
	out.Layers["sampler.probe_hit"] = mean(hit)
	out.Layers["sampler.cleanups"] = mean(cleanups)
	out.Layers["graph.induce_ms"] = median(induce)
	out.SubN = mean(n)
	out.SubAvgDeg = mean(deg)
	return subs
}

// layerProbes times each GCN layer's and the head's Forward and
// Backward on the probe subgraphs, feature propagation at the Theorem 2
// Q, and the layer-1 GEMM.
func layerProbes(ds *datasets.Dataset, m *core.Model, subs []*graph.Subgraph, workers int, into map[string]float64) {
	feat := ds.FeatureDim()
	times := map[string][]float64{}
	var gbs, gflops []float64
	for _, sub := range subs {
		n := sub.N
		idx := make([]int, n)
		for i, v := range sub.Orig {
			idx[i] = int(v)
		}
		h0 := mat.New(n, feat)
		mat.GatherRowsP(h0, ds.Features, idx, workers)
		ctx := m.CtxForGraph(sub.CSR, feat, nil)

		x := h0
		for l, layer := range m.Layers {
			start := time.Now()
			x = layer.Forward(ctx, x)
			times[fmt.Sprintf("nn.l%d.fwd_ms", l+1)] = append(times[fmt.Sprintf("nn.l%d.fwd_ms", l+1)], ms(time.Since(start)))
		}
		start := time.Now()
		logits := m.Head.Forward(ctx, x)
		times["nn.head.fwd_ms"] = append(times["nn.head.fwd_ms"], ms(time.Since(start)))
		d := mat.New(logits.Rows, logits.Cols)
		for i := range d.Data {
			d.Data[i] = 1 / float64(n)
		}
		m.ZeroGrad()
		start = time.Now()
		d = m.Head.Backward(ctx, d)
		times["nn.head.bwd_ms"] = append(times["nn.head.bwd_ms"], ms(time.Since(start)))
		for l := len(m.Layers) - 1; l >= 0; l-- {
			start := time.Now()
			d = m.Layers[l].Backward(ctx, d)
			times[fmt.Sprintf("nn.l%d.bwd_ms", l+1)] = append(times[fmt.Sprintf("nn.l%d.bwd_ms", l+1)], ms(time.Since(start)))
		}

		// Feature propagation of the layer-1 input at the Q the
		// Theorem 2 solver derives. Bytes moved, from the shapes: every
		// directed edge reads one f-wide source row (8 B/value) and one
		// 4-byte column index, every vertex writes its f-wide row and
		// reads its two row offsets.
		cm := partition.CommModel{N: n, AvgDeg: sub.AvgDegree(), F: feat, Cores: workers, CacheBytes: 256 << 10}
		q := cm.OptimalQ()
		dst := mat.New(n, feat)
		nnz := float64(sub.NumDirectedEdges())
		bytes := 8*float64(feat)*(nnz+float64(n)) + 4*nnz + 16*float64(n)
		dur := medianDuration(3, func(int) { partition.Propagate(dst, h0, sub.CSR, partition.NormDst, q, workers) })
		gbs = append(gbs, bytes/dur.Seconds()/1e9)

		// The layer-1 weight-application GEMM: (n x f) * (f x hidden).
		wself := m.Layers[0].WSelf.W
		out := mat.New(n, wself.Cols)
		dur = medianDuration(3, func(int) { mat.Mul(out, h0, wself, workers) })
		gflops = append(gflops, 2*float64(n)*float64(feat)*float64(wself.Cols)/dur.Seconds()/1e9)
	}
	for k, v := range times {
		into[k] = median(v)
	}
	into["partition.propagate_gbs"] = median(gbs)
	into["mat.gemm_gflops"] = median(gflops)
}
