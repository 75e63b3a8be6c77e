// Command perfbench is the PMWare cloud instance's benchmark. It boots the
// PCI in this process on loopback TCP, drives it with the internal/load
// population and schedules, checks every answer and the data after a
// restart, and prints its metrics as one JSON object on the last line of
// standard output.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sync --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the traced run
// and prints the per-layer metrics. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// The seeds claims are made with: defaultSeed while a change is written,
// heldOutSeed to confirm it.
const (
	defaultSeed = 1
	heldOutSeed = 20140917
)

func main() {
	name := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for data and spans")
	flag.Parse()

	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := &config{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		traced:  *traceFlag == 1,
		setups:  3,
		reopens: 5,
		rounds:  max(1, *seconds/2),
		workers: runtime.NumCPU(),
		dir:     filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())),
		logf:    logf,
	}
	out, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}

// benchmark runs once and renders the stamp, detail and result lines.
func benchmark(cfg *config) ([]byte, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer removeAll(cfg.dir)
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	for _, v := range rep.violations {
		cfg.logf("check failed: %s", v)
	}
	stamp, err := json.Marshal(stampOf(cfg))
	if err != nil {
		return nil, err
	}
	detail, err := json.Marshal(map[string]any{"detail": rep.detail, "violations": rep.violations})
	if err != nil {
		return nil, err
	}
	result, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, line := range [][]byte{stamp, detail, result} {
		out = append(append(out, line...), '\n')
	}
	return out, nil
}

// stampOf identifies the host, build and settings a run was made with.
func stampOf(cfg *config) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	w := cfg.w
	mix := make([]string, 0, len(w.mix))
	for r, v := range w.mix {
		mix = append(mix, fmt.Sprintf("%s=%.2f", r, v))
	}
	sort.Strings(mix)
	return map[string]any{"stamp": map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"revision":      rev,
		"traced":        cfg.traced,
		"seed":          cfg.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"workload":      w.name,
		"users":         w.users,
		"templates":     w.templates,
		"zipf_s":        w.zipfS,
		"mix":           mix,
		"fsync":         "interval",
		"shards":        8,
		"compact_every": w.compactEvery,
		"wire":          w.wire,
		"nodes":         w.nodes,
		"offered_rps":   w.rate,
		"open_seconds":  openSeconds(cfg.seconds),
		"probe_n":       listSize(w.probeRate, cfg.seconds),
		"closed_n":      listSize(w.closedRate, cfg.seconds),
		"rounds":        cfg.rounds,
		"warmup_n":      w.warmupN,
		"fixture_days":  w.fixtureDays,
		"workers":       cfg.workers,
		"setups":        cfg.setups,
		"reopens":       cfg.reopens,
	}}
}
