// Command perfbench is the repository benchmark. Each workload is one
// seeded pipeline through the whole system: it generates a .gsg
// dataset, trains on it with core.Trainer in a child process (the
// training half), then serves the checkpoints it trained with a real
// gsgcn-serve process under open-loop load from this process (the
// serving half). Every end-to-end metric therefore exists on every
// workload, and the per-layer metrics come from timing calls into the
// internal packages from outside and from scraping the server's
// /metrics and /healthz.
//
// Run it from the repository root through run.sh, which builds the
// server and this program first:
//
//	bash perfbench/run.sh --workload reddit-json --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// heldOutSeed is the seed no change is tuned against: a claimed gain
// must also hold when the benchmark runs with it.
const heldOutSeed = 9001

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		o     options
		trace int
		role  string
		dir   string
	)
	flag.StringVar(&o.workload, "workload", "reddit-json", "workload name (see README.md)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every generated input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run, split between the training and serving halves")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&o.serveBin, "serve-bin", ".bench_build/gsgcn-serve", "gsgcn-serve binary to benchmark")
	flag.StringVar(&o.workDir, "work", ".bench_build/runs", "scratch directory for generated inputs (removed after the run)")
	flag.StringVar(&role, "role", "", "internal: \"train\" runs the training half in this process")
	flag.StringVar(&dir, "dir", "", "internal: run directory of the training half")
	flag.Parse()
	o.trace = trace == 1

	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// The benchmark's own load stays within the host's cores.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if role == "train" {
		if err := trainChild(w, o, dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench train:", err)
			return 1
		}
		return 0
	}

	if _, err := os.Stat(o.serveBin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: server binary: %v (run through perfbench/run.sh)\n", err)
		return 2
	}
	runDir, err := os.MkdirTemp(mustMkdir(o.workDir), o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	defer children.stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		children.stopAll()
		os.RemoveAll(runDir)
		os.Exit(1)
	}()

	r := &report{metrics: map[string]metric{}}
	start := time.Now()
	if err := runWorkload(w, o, runDir, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d finished in %.1fs\n", w.name, o.seed, time.Since(start).Seconds())

	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.name, m.Value)
			return 1
		}
		out.Metrics[d.name] = metric{Value: m.Value, Unit: d.unit}
	}
	prov := provenance(w, o)
	printJSONLine(map[string]any{"provenance": prov})
	printJSONLine(map[string]any{"properties": r.props})
	printJSONLine(out)
	return 0
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	props             map[string]any
}

func (r *report) set(name string, v float64) { r.metrics[name] = metric{Value: v} }

func (r *report) prop(name string, v any) {
	if r.props == nil {
		r.props = map[string]any{}
	}
	r.props[name] = v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		return
	}
	fmt.Println(string(b))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
