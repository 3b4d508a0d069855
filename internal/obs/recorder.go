package obs

import (
	"math/bits"
	"sync/atomic"
)

// FrameHistBuckets is the size of a latency histogram: bucket i counts
// samples whose wall time was in [2^(i-1), 2^i) microseconds (bucket 0 is
// sub-microsecond). 40 buckets cover up to ~2^39 µs ≈ 6 days.
const FrameHistBuckets = 40

// LatencyHist accumulates latency samples: their count, their nanosecond
// total and a power-of-two histogram of FrameHistBuckets buckets. The zero
// value is ready; Record and Load are safe for concurrent use and Record
// never allocates.
type LatencyHist struct {
	count, nanos atomic.Int64
	hist         [FrameHistBuckets]atomic.Int64
}

// Record adds one sample.
func (h *LatencyHist) Record(nanos int64) {
	h.count.Add(1)
	h.nanos.Add(nanos)
	micros := nanos / 1e3
	if micros < 0 {
		micros = 0
	}
	b := bits.Len64(uint64(micros))
	if b >= FrameHistBuckets {
		b = FrameHistBuckets - 1
	}
	h.hist[b].Add(1)
}

// Load returns the totals and the histogram with trailing empty buckets
// trimmed (nil before the first sample).
func (h *LatencyHist) Load() (count, nanos int64, hist []int64) {
	count, nanos = h.count.Load(), h.nanos.Load()
	if count == 0 {
		return count, nanos, nil
	}
	hist = make([]int64, 0, FrameHistBuckets)
	for i := range h.hist {
		hist = append(hist, h.hist[i].Load())
	}
	for len(hist) > 0 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	return count, nanos, hist
}

// Recorder collects executor metrics for one compiled program. It is
// created with the program's stage and group names (indices into those
// slices are the dense ids call sites record against) and a fixed number
// of worker shards.
//
// A nil *Recorder is the disabled state: call sites hold a nil *Shard and
// skip all recording behind one nil check.
type Recorder struct {
	stages []string
	groups []string
	shards []*Shard

	// Run-level counters (recorded once per Run by the caller that holds
	// the run lock, read atomically by Snapshot).
	runs     atomic.Int64
	runNanos atomic.Int64

	// Frame-level counters: streamed frames (Executor.RunFrames /
	// Stream.RunFrame) record here in addition to the run counters, with a
	// power-of-two latency histogram for tail visibility.
	frames LatencyHist
}

// NewRecorder builds a recorder for the given stage and group names with
// shards worker shards. All counter storage is allocated up front so the
// recording path never allocates.
func NewRecorder(stages, groups []string, shards int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	r := &Recorder{stages: stages, groups: groups, shards: make([]*Shard, shards)}
	for i := range r.shards {
		r.shards[i] = newShard(len(stages), len(groups))
	}
	return r
}

// Shard returns worker shard i (0 ≤ i < the shard count given at
// construction). Each worker must record only into its own shard.
func (r *Recorder) Shard(i int) *Shard {
	if r == nil {
		return nil
	}
	return r.shards[i]
}

// RecordRun adds one completed pipeline run with the given wall time.
func (r *Recorder) RecordRun(nanos int64) {
	if r == nil {
		return
	}
	r.runs.Add(1)
	r.runNanos.Add(nanos)
}

// RecordFrame adds one completed streamed frame with the given wall time:
// the frame counters and the latency histogram grow; the run counters do
// not (the caller records the frame as a run separately if it wants the
// utilization denominator to include streamed time).
func (r *Recorder) RecordFrame(nanos int64) {
	if r == nil {
		return
	}
	r.frames.Record(nanos)
}

// Shard is one worker's private slice of the metric space. The owning
// worker adds with atomic writes (uncontended: the cache line is local);
// Snapshot merges shards with atomic loads, so concurrent reads are safe
// without locks.
type Shard struct {
	stageNanos  []atomic.Int64 // per stage: kernel time
	stagePts    []atomic.Int64 // per stage: points computed
	stageRecPts []atomic.Int64 // per stage: points recomputed in overlap halos
	stageRows   []atomic.Int64 // per stage: rows evaluated
	stageRecRow []atomic.Int64 // per stage: rows recomputed in overlap halos
	stageTiles  []atomic.Int64 // per stage: tile-member executions
	groupTiles  []atomic.Int64 // per group: tiles executed
	groupSkips  []atomic.Int64 // per group: tiles skipped by dirty-rectangle runs
	busyNanos   atomic.Int64   // time spent inside pool tasks
}

func newShard(stages, groups int) *Shard {
	return &Shard{
		stageNanos:  make([]atomic.Int64, stages),
		stagePts:    make([]atomic.Int64, stages),
		stageRecPts: make([]atomic.Int64, stages),
		stageRows:   make([]atomic.Int64, stages),
		stageRecRow: make([]atomic.Int64, stages),
		stageTiles:  make([]atomic.Int64, stages),
		groupTiles:  make([]atomic.Int64, groups),
		groupSkips:  make([]atomic.Int64, groups),
	}
}

// StageKernel records one kernel execution of stage id: its duration, the
// points and rows it evaluated, and how many of those were recomputation
// in an overlapped-tile halo.
func (s *Shard) StageKernel(id int, nanos, points, recomputedPts, rows, recomputedRows int64) {
	if s == nil {
		return
	}
	s.stageNanos[id].Add(nanos)
	s.stagePts[id].Add(points)
	s.stageRecPts[id].Add(recomputedPts)
	s.stageRows[id].Add(rows)
	s.stageRecRow[id].Add(recomputedRows)
	s.stageTiles[id].Add(1)
}

// Tile records one executed tile of group id.
func (s *Shard) Tile(group int) {
	if s == nil {
		return
	}
	s.groupTiles[group].Add(1)
}

// TileSkipped records one tile of group id that a dirty-rectangle run
// copied from the previous frame instead of recomputing.
func (s *Shard) TileSkipped(group int) {
	if s == nil {
		return
	}
	s.groupSkips[group].Add(1)
}

// Busy records nanos spent executing a pool task (worker utilization).
func (s *Shard) Busy(nanos int64) {
	if s == nil {
		return
	}
	s.busyNanos.Add(nanos)
}
