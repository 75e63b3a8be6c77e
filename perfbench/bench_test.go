package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks output
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func tinyConfig(t *testing.T, name string, traced bool) *config {
	w, ok := workloads()[name]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", name)
	}
	return &config{
		w:       w.tiny(),
		seed:    defaultSeed,
		seconds: 2,
		traced:  traced,
		setups:  2,
		reopens: 2,
		rounds:  2,
		workers: 2,
		dir:     filepath.Join(t.TempDir(), "run"),
		logf:    t.Logf,
	}
}

// TestEveryWorkloadTiny runs every workload at a tiny size, untraced and
// traced, and checks the printed result against BENCHMARK.json: every
// metric present with its unit, every check passed, spans nested.
func TestEveryWorkloadTiny(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, wl.Name, traced)
			out, err := benchmark(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res printed
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.Name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d; output:\n%s", wl.Name, traced, res.Correct, res.Attempted, res.Failed, out)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestOneSeedOneSchedule: the schedule is a function of the seed alone.
func TestOneSeedOneSchedule(t *testing.T) {
	for name := range workloads() {
		a := compile(tinyConfig(t, name, true))
		b := compile(tinyConfig(t, name, true))
		if a.hash != b.hash {
			t.Errorf("%s: seed %d compiled to two schedules (%016x, %016x)", name, defaultSeed, a.hash, b.hash)
		}
		other := tinyConfig(t, name, true)
		other.seed = heldOutSeed
		if compile(other).hash == a.hash {
			t.Errorf("%s: seeds %d and %d compiled to the same schedule", name, defaultSeed, heldOutSeed)
		}
	}
}

// TestSpansNest runs a traced tiny sync workload and checks every request's
// spans nest (client ⊇ transport ⊇ server) with non-negative self times.
func TestSpansNest(t *testing.T) {
	cfg := tinyConfig(t, "sync", true)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bds := rep.tracer.breakdowns()
	if len(bds) == 0 {
		t.Fatal("no traced requests")
	}
	for i, b := range bds {
		if !b.nested {
			t.Errorf("request %d (%s): spans do not nest", i, b.route)
		}
		if b.clientSelf() < 0 || b.netSelf() < 0 || b.server <= 0 {
			t.Errorf("request %d (%s): client self %v, net self %v, server %v", i, b.route, b.clientSelf(), b.netSelf(), b.server)
		}
	}
}
