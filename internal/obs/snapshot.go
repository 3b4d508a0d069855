package obs

// StageStats is the merged runtime view of one pipeline stage.
type StageStats struct {
	Name string
	// KernelNanos is time spent evaluating the stage's kernels (summed
	// over workers; with one worker it is bounded by the run wall time).
	KernelNanos int64
	// Points / Rows are domain points and rows evaluated, including
	// recomputation in overlapped-tile halos.
	Points int64
	Rows   int64
	// RecomputedPoints / RecomputedRows count the subset of Points/Rows
	// that fell outside the executing tile's owned region — the redundant
	// work overlapped tiling trades for parallelism (Section 3.4/3.5 of
	// the paper). Zero for untiled stages.
	RecomputedPoints int64
	RecomputedRows   int64
	// Tiles is the number of tile-member executions of this stage.
	Tiles int64
}

// RecomputeFraction returns RecomputedPoints / Points (0 when idle).
func (s StageStats) RecomputeFraction() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.RecomputedPoints) / float64(s.Points)
}

// KernelMillis returns the stage's kernel time in milliseconds.
func (s StageStats) KernelMillis() float64 { return float64(s.KernelNanos) / 1e6 }

// GroupStats is the merged runtime view of one schedule group.
type GroupStats struct {
	Anchor  string
	Members []string
	// Tiles executed since the recorder was created (all runs).
	Tiles int64
	// TilesSkipped counts tiles a dirty-rectangle run copied from the
	// previous frame's retained buffers instead of recomputing — the
	// partial-recompute win, measured (zero outside streamed ROI runs).
	TilesSkipped int64
	// PlannedTiles is the tile plan's tile count for one run; filled by
	// the engine (zero for untiled groups, which execute without tiles).
	PlannedTiles int64
	// OverlapRatio is the schedule model's per-anchor-dimension estimate
	// of redundant computation; filled by the engine.
	OverlapRatio []float64
}

// WorkerStats reports worker usage.
type WorkerStats struct {
	// Workers is the program's effective parallelism: its Threads option
	// clamped to the shared fleet's size (a program cannot use more workers
	// than the process has).
	Workers int
	// Fleet is the size of the process-wide shared worker fleet all
	// programs' parallel sections feed (GOMAXPROCS at first use).
	Fleet int
	// BusyNanos is the total time workers spent executing this program's
	// tasks (fleet workers and run-context callers combined).
	BusyNanos int64
	// Utilization is BusyNanos / (wall · Workers): the fraction of the
	// program's parallel capacity spent doing work during measured runs.
	Utilization float64
}

// ArenaStats reports the executor's cross-run buffer arena.
type ArenaStats struct {
	// Hits / Misses count full-buffer requests served from recycled
	// storage versus fresh allocations since the executor was created. In
	// steady state Misses stops growing: every request is a hit.
	Hits   int64
	Misses int64
	// Pooled / PooledBytes gauge the buffers currently parked in the
	// arena awaiting reuse.
	Pooled      int64
	PooledBytes int64
}

// Snapshot is a consistent merged view of an executor's metrics. Arena
// statistics are always present; the remaining fields are populated only
// when the executor was built with metrics enabled (Enabled reports
// which).
type Snapshot struct {
	Enabled bool
	// Runs and WallNanos cover completed Run calls.
	Runs      int64
	WallNanos int64
	// Frames and FrameNanos cover streamed frames (RunFrames/Stream);
	// FrameHist is their power-of-two latency histogram — bucket i counts
	// frames that took [2^(i-1), 2^i) microseconds, trailing empty buckets
	// trimmed.
	Frames     int64
	FrameNanos int64
	FrameHist  []int64
	Stages     []StageStats
	Groups     []GroupStats
	Workers    WorkerStats
	Arena      ArenaStats
	TempPools  TempPoolStats
}

// TempPoolStats gauges the per-worker row scratch memory, summed across an
// executor's workers.
type TempPoolStats struct {
	// VMRegBytes is the memory pinned by row-VM register files.
	VMRegBytes int64
}

// WallMillis returns the total measured run wall time in milliseconds.
func (s Snapshot) WallMillis() float64 { return float64(s.WallNanos) / 1e6 }

// Stage returns the stats for the named stage.
func (s Snapshot) Stage(name string) (StageStats, bool) {
	for _, st := range s.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return StageStats{}, false
}

// Snapshot merges the recorder's shards into a Snapshot. Safe to call
// concurrently with recording; the result is a sum of atomic loads, so it
// may land mid-run (totals grow monotonically between calls). The engine
// decorates the result with arena, plan and utilization data.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Enabled:   true,
		Runs:      r.runs.Load(),
		WallNanos: r.runNanos.Load(),
		Stages:    make([]StageStats, len(r.stages)),
		Groups:    make([]GroupStats, len(r.groups)),
	}
	snap.Frames, snap.FrameNanos, snap.FrameHist = r.frames.Load()
	for i, name := range r.stages {
		snap.Stages[i].Name = name
	}
	for i, name := range r.groups {
		snap.Groups[i].Anchor = name
	}
	for _, sh := range r.shards {
		for i := range snap.Stages {
			st := &snap.Stages[i]
			st.KernelNanos += sh.stageNanos[i].Load()
			st.Points += sh.stagePts[i].Load()
			st.RecomputedPoints += sh.stageRecPts[i].Load()
			st.Rows += sh.stageRows[i].Load()
			st.RecomputedRows += sh.stageRecRow[i].Load()
			st.Tiles += sh.stageTiles[i].Load()
		}
		for i := range snap.Groups {
			snap.Groups[i].Tiles += sh.groupTiles[i].Load()
			snap.Groups[i].TilesSkipped += sh.groupSkips[i].Load()
		}
		snap.Workers.BusyNanos += sh.busyNanos.Load()
	}
	return snap
}
