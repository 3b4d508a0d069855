package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStreamSnapshots: lines are JSON snapshots, stop emits a
// final one even when the run is shorter than the interval, and stop is
// idempotent.
func TestStreamSnapshots(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var calls int
	source := func() Snapshot {
		calls++
		return Snapshot{Enabled: true, Runs: int64(calls)}
	}
	stop := StreamSnapshots(w, time.Hour, source)
	stop()
	stop() // idempotent

	out := buf.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want exactly the final flush:\n%s", len(lines), out)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatalf("line is not snapshot JSON: %v", err)
	}
	if s.Runs != 1 || !s.Enabled {
		t.Fatalf("final snapshot = %+v, want the source's first value", s)
	}

	// With a short interval the ticker emits periodically too.
	buf.Reset()
	stop = StreamSnapshots(w, time.Millisecond, source)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := bytes.Count(buf.Bytes(), []byte("\n"))
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker never emitted")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMerge: counters sum, stage/group entries concatenate, utilization
// is recomputed over the merged wall time, Enabled ors.
func TestMerge(t *testing.T) {
	a := Snapshot{
		Enabled:   true,
		Runs:      2,
		WallNanos: 100,
		Stages:    []StageStats{{Name: "f"}},
		Workers:   WorkerStats{Workers: 2, BusyNanos: 100},
		Arena:     ArenaStats{Hits: 3, Misses: 1, Pooled: 2, PooledBytes: 64},
	}
	b := Snapshot{
		Runs:      1,
		WallNanos: 100,
		Stages:    []StageStats{{Name: "g"}},
		Groups:    []GroupStats{{Anchor: "g"}},
		Workers:   WorkerStats{Workers: 2, BusyNanos: 100},
		Arena:     ArenaStats{Hits: 1},
	}
	m := Merge(a, b)
	if !m.Enabled || m.Runs != 3 || m.WallNanos != 200 {
		t.Fatalf("merged header wrong: %+v", m)
	}
	if len(m.Stages) != 2 || len(m.Groups) != 1 {
		t.Fatalf("merged stages/groups wrong: %d/%d", len(m.Stages), len(m.Groups))
	}
	if m.Arena.Hits != 4 || m.Arena.Misses != 1 || m.Arena.Pooled != 2 || m.Arena.PooledBytes != 64 {
		t.Fatalf("merged arena wrong: %+v", m.Arena)
	}
	if m.Workers.Workers != 4 || m.Workers.BusyNanos != 200 {
		t.Fatalf("merged workers wrong: %+v", m.Workers)
	}
	// 200 busy nanos over 200 wall * 4 workers = 0.25.
	if m.Workers.Utilization != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", m.Workers.Utilization)
	}
	if empty := Merge(); empty.Enabled || empty.Runs != 0 {
		t.Fatalf("empty merge = %+v", empty)
	}
}
