package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// The compact-pause benchmark for ISSUE 10: on a 50k-record shard, the
// write-lock pause of a compaction must improve ≥10x when the state's
// SnapshotView captures a cheap copy-on-write view under the lock and encodes
// off it, versus a baseline SnapshotView that does the full JSON encode under
// the lock (what compaction did before the off-lock protocol). The state
// mirrors the production dataState shape — a top-level map keyed by user whose
// values are per-user record sets — because that is what makes the view
// capture O(users) instead of O(records): cloning map headers is cheap, the
// encode that walks every record is not.

// benchRec journals one slot write: user U's record R becomes payload P.
type benchRec struct {
	U string `json:"u"`
	R int    `json:"r"`
	P string `json:"p"`
}

// benchUserKV is the baseline state: per-user record sets whose SnapshotView
// encodes the whole map eagerly, i.e. under the shard lock.
type benchUserKV struct {
	m map[string][]string
}

func newBenchUserKV() *benchUserKV { return &benchUserKV{m: map[string][]string{}} }

func (s *benchUserKV) set(rec benchRec) {
	rs := slices.Clone(s.m[rec.U]) // copy-on-write: never mutate a captured view's slice
	for len(rs) <= rec.R {
		rs = append(rs, "")
	}
	rs[rec.R] = rec.P
	s.m[rec.U] = rs
}

func (s *benchUserKV) Apply(raw []byte) error {
	var rec benchRec
	if err := json.Unmarshal(raw, &rec); err != nil {
		return err
	}
	s.set(rec)
	return nil
}

func (s *benchUserKV) SnapshotView() (func(io.Writer) error, func(), error) {
	payload, err := json.Marshal(s.m)
	if err != nil {
		return nil, nil, err
	}
	encode := func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}
	return encode, func() {}, nil
}

func (s *benchUserKV) RestoreStream(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	m := map[string][]string{}
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	s.m = m
	return nil
}

// benchCowKV is the off-lock state: SnapshotView clones only the top-level
// map (slice values are never mutated in place, see set), and the expensive
// Marshal runs in the returned encoder, off the shard lock.
type benchCowKV struct {
	benchUserKV
}

func newBenchCowKV() *benchCowKV { return &benchCowKV{benchUserKV{m: map[string][]string{}}} }

func (s *benchCowKV) SnapshotView() (func(io.Writer) error, func(), error) {
	view := maps.Clone(s.m)
	encode := func(w io.Writer) error {
		payload, err := json.Marshal(view)
		if err != nil {
			return err
		}
		_, err = w.Write(payload)
		return err
	}
	return encode, func() {}, nil
}

// pauseStats summarizes exact per-compaction pause samples (microseconds).
type pauseStats struct {
	Compactions int     `json:"compactions"`
	P50US       float64 `json:"p50_us"`
	P99US       float64 `json:"p99_us"`
	MaxUS       float64 `json:"max_us"`
}

func summarizePauses(samples []float64) pauseStats {
	sort.Float64s(samples)
	q := func(p float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return pauseStats{
		Compactions: len(samples),
		P50US:       q(0.50),
		P99US:       q(0.99),
		MaxUS:       samples[len(samples)-1],
	}
}

// measureCompactPauses populates a single durable shard with `users` × `recs`
// records, then runs `rounds` compactions with a burst of updates between
// each, returning the exact write-lock pause of every compaction. Exactness
// comes from delta-reading the pci_storage_compact_pause_us histogram Sum
// around each Compact call — sums are exact, bucket bounds are not.
func measureCompactPauses(t *testing.T, dir string, state ShardState, users, recs, rounds int) pauseStats {
	t.Helper()
	reg := obs.NewRegistry()
	e, err := Open(Options{
		Dir:          dir,
		Sync:         SyncNever,
		CompactEvery: -1, // only the explicit Compact calls below
		Metrics:      reg,
	}, []ShardState{state})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(10))
	setter := state.(interface{ set(benchRec) })
	write := func(u, r int) {
		rec := benchRec{U: fmt.Sprintf("user-%06d", u), R: r, P: fmt.Sprintf("payload-%06d-%02d-%016x", u, r, rng.Int63())}
		err := e.Mutate(0, func() ([]byte, error) {
			raw, err := json.Marshal(&rec)
			if err != nil {
				return nil, err
			}
			setter.set(rec)
			return raw, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		for r := 0; r < recs; r++ {
			write(u, r)
		}
	}

	samples := make([]float64, 0, rounds)
	prev := reg.Snapshot().Histograms["pci_storage_compact_pause_us"].Sum
	for i := 0; i < rounds; i++ {
		for j := 0; j < 200; j++ { // updates, not inserts: the shard stays at users×recs records
			write(rng.Intn(users), rng.Intn(recs))
		}
		// Collect allocator debt outside the measured window: GC stalls on
		// this 1-core host hit both paths alike and are not what the
		// comparison measures.
		runtime.GC()
		if err := e.Compact(0); err != nil {
			t.Fatal(err)
		}
		sum := reg.Snapshot().Histograms["pci_storage_compact_pause_us"].Sum
		samples = append(samples, float64(sum-prev))
		prev = sum
	}
	return summarizePauses(samples)
}

// TestCompactPauseBenchRecord appends the off_lock_compaction section to the
// JSON report named by STORAGE_BENCH_OUT (normally BENCH_storage.json, merged
// in place so existing sections survive). Skipped in normal runs —
// measurement is not a correctness gate — but when run it enforces the
// ISSUE 10 floor: compact-pause p99 improves ≥10x on a 50k-record shard when
// the state's snapshot view is copy-on-write instead of an eager encode.
func TestCompactPauseBenchRecord(t *testing.T) {
	out := os.Getenv("STORAGE_BENCH_OUT")
	if out == "" {
		t.Skip("set STORAGE_BENCH_OUT to record the compact-pause benchmark")
	}
	const (
		users  = 1000
		recs   = 50 // 50k records total — the ISSUE 10 shard size
		rounds = 60
	)
	// Prefer tmpfs: the pause comparison measures lock-held CPU work (the
	// O(records) encode vs the O(users) view capture). On this host's shared
	// virtio disk the one dir fsync both paths pay in-lock jitters by
	// milliseconds, which swamps the sub-millisecond off-lock pause with
	// device noise that has nothing to do with either path.
	media := "tmpfs"
	benchDir := func() string {
		d, err := os.MkdirTemp("/dev/shm", "pmware-compact-bench-")
		if err != nil {
			media = "disk"
			return t.TempDir()
		}
		t.Cleanup(func() { os.RemoveAll(d) })
		return d
	}
	legacy := measureCompactPauses(t, benchDir(), newBenchUserKV(), users, recs, rounds)
	offLock := measureCompactPauses(t, benchDir(), newBenchCowKV(), users, recs, rounds)
	improvement := legacy.P99US / offLock.P99US
	t.Logf("legacy in-lock pause:  p50 %.0fµs p99 %.0fµs max %.0fµs", legacy.P50US, legacy.P99US, legacy.MaxUS)
	t.Logf("off-lock view pause:   p50 %.0fµs p99 %.0fµs max %.0fµs", offLock.P50US, offLock.P99US, offLock.MaxUS)
	t.Logf("pause p99 improvement: %.1fx", improvement)
	if improvement < 10 {
		t.Errorf("pause p99 improved only %.1fx, under the 10x floor", improvement)
	}

	section := struct {
		Recorded string     `json:"recorded"`
		Go       string     `json:"go_version"`
		Command  string     `json:"command"`
		Note     string     `json:"note"`
		Shard    string     `json:"shard"`
		Legacy   pauseStats `json:"legacy_in_lock_pause"`
		OffLock  pauseStats `json:"snapshot_view_pause"`
		P99Gain  float64    `json:"pause_p99_improvement"`
	}{
		Recorded: time.Now().UTC().Format("2006-01-02"),
		Go:       runtime.Version(),
		Command:  "STORAGE_BENCH_OUT=BENCH_storage.json go test ./internal/storage -run TestCompactPauseBenchRecord -v",
		Note: "Write-lock pause per compaction (exact histogram-sum deltas around each Compact), " +
			"legacy state (whole-map JSON encode under the lock) vs copy-on-write view state " +
			"(top-level map clone under the lock, encode off it). Both paths write, fsync, and " +
			"rename the snapshot off the lock; the residual off-lock pause is the clone plus the " +
			"wal-(N+1) create+dir-sync. Runs on tmpfs when available so the comparison isolates " +
			"the lock-held work from this shared virtio disk's multi-ms fsync jitter, which hits " +
			"the one O(1) dir sync both paths pay identically. The 10x floor is ISSUE 10's " +
			"acceptance bar.",
		Shard:   fmt.Sprintf("%d users x %d records = %d records, fsync=never, %s", users, recs, users*recs, media),
		Legacy:  legacy,
		OffLock: offLock,
		P99Gain: improvement,
	}

	report := map[string]json.RawMessage{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("existing %s is not a JSON object: %v", out, err)
		}
	}
	blob, err := json.Marshal(section)
	if err != nil {
		t.Fatal(err)
	}
	report["off_lock_compaction"] = blob
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
