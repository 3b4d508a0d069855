package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// StreamSnapshots periodically emits the source's snapshot as one
// JSON-encoded line — the shape a sidecar scraper consumes. It owns the
// ticker goroutine and the final flush; the serving layer's
// /metrics?stream endpoint streams through it.
//
// The returned stop function halts the stream, emits one final snapshot
// (so runs shorter than the interval still produce a line) and waits for
// the goroutine to exit before returning. It is safe to call more than
// once; calls after the first are no-ops.
func StreamSnapshots(w io.Writer, interval time.Duration, source func() Snapshot) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	emit := func() {
		if b, err := json.Marshal(source()); err == nil {
			w.Write(append(b, '\n')) // a failed write means the reader is gone; stop ends the stream
		}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				emit()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
			emit()
		})
	}
}

// Merge folds several executors' snapshots into one aggregate view: runs,
// wall time, worker busy time and arena counters are summed; stage and
// group entries are concatenated (callers that merge across programs
// should disambiguate stage names themselves). Enabled is true when any
// input snapshot had metrics enabled. The serving layer uses it for a
// whole-process /metrics snapshot across every cached program.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out.Enabled = out.Enabled || s.Enabled
		out.Runs += s.Runs
		out.WallNanos += s.WallNanos
		out.Frames += s.Frames
		out.FrameNanos += s.FrameNanos
		for i, n := range s.FrameHist {
			if i >= len(out.FrameHist) {
				out.FrameHist = append(out.FrameHist, make([]int64, i+1-len(out.FrameHist))...)
			}
			out.FrameHist[i] += n
		}
		out.Stages = append(out.Stages, s.Stages...)
		out.Groups = append(out.Groups, s.Groups...)
		out.Workers.Workers += s.Workers.Workers
		out.Workers.BusyNanos += s.Workers.BusyNanos
		// The fleet is process-wide and shared, so merging takes the max
		// rather than summing per-program views of the same worker set.
		if s.Workers.Fleet > out.Workers.Fleet {
			out.Workers.Fleet = s.Workers.Fleet
		}
		out.Arena.Hits += s.Arena.Hits
		out.Arena.Misses += s.Arena.Misses
		out.Arena.Pooled += s.Arena.Pooled
		out.Arena.PooledBytes += s.Arena.PooledBytes
		out.TempPools.VMRegBytes += s.TempPools.VMRegBytes
	}
	if out.WallNanos > 0 && out.Workers.Workers > 0 {
		out.Workers.Utilization = float64(out.Workers.BusyNanos) / (float64(out.WallNanos) * float64(out.Workers.Workers))
	}
	return out
}
