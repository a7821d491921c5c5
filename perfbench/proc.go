package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark starts so each one is
// stopped and waited for on every exit path.
var children = &procSet{m: map[*exec.Cmd]chan error{}}

type procSet struct {
	mu sync.Mutex
	m  map[*exec.Cmd]chan error
}

// start launches cmd and registers it; wait reports its exit.
func (p *procSet) start(cmd *exec.Cmd) (wait chan error, err error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	p.mu.Lock()
	p.m[cmd] = done
	p.mu.Unlock()
	return done, nil
}

// stop sends SIGTERM, escalates to SIGKILL after grace, and waits.
func (p *procSet) stop(cmd *exec.Cmd, grace time.Duration) {
	p.mu.Lock()
	done, ok := p.m[cmd]
	delete(p.m, cmd)
	p.mu.Unlock()
	if !ok {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(grace):
		_ = cmd.Process.Kill()
		<-done
	}
}

// forget drops a process that already exited on its own.
func (p *procSet) forget(cmd *exec.Cmd) {
	p.mu.Lock()
	delete(p.m, cmd)
	p.mu.Unlock()
}

func (p *procSet) stopAll() {
	p.mu.Lock()
	var cmds []*exec.Cmd
	for c := range p.m {
		cmds = append(cmds, c)
	}
	p.mu.Unlock()
	for _, c := range cmds {
		p.stop(c, 2*time.Second)
	}
}

// vmHWM returns the peak resident set of a process in MB, from the
// VmHWM line of /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// userHZ is the clock-tick rate of /proc/<pid>/stat CPU times (fixed
// at 100 by the Linux user ABI).
const userHZ = 100

// cpuSeconds returns user+system CPU seconds of a process from
// /proc/<pid>/stat.
func cpuSeconds(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces, so fields are counted
// after its closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	// After ")": state is field 3, utime field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in stat line")
	}
	return (ut + st) / userHZ, nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so
// a result names the exact code it measured even in a checkout that
// is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gitCommit returns HEAD when root itself is a git checkout, ""
// otherwise (git is not asked, so it cannot report an enclosing repo).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func provenance(w workload, o options) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"seed":          o.seed,
		"held_out_seed": o.seed == heldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        gitCommit("."),
		"source_sha256": sourceDigest("."),
		"offered_rate":  w.rate,
		"slo_p99_ms":    sloMs,
	}
}
