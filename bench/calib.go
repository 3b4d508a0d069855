package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The box this benchmark runs on changes speed under it. A fixed piece of
// work timed over and over takes 1.6 ms, 2.6 ms or 5.3 ms, holding one level
// for seconds to minutes, with no steal time to show for it (a guest whose
// host shares cores and turbo budget among guests behaves so), and every
// workload here slows and speeds up with it: ten runs of one workload, each
// reporting medians over its ten seconds, spread by 15 % to 50 % of their
// median, and no statistic over the ops of a run does better.
//
// The benchmark therefore measures the machine as it measures the program.
// The calibration kernel below is timed every half second during a pass,
// with the system under test idle, and the pass's latencies are scaled to
// what they would have been had the kernel taken calibrationRefMS:
//
//	scaled = measured * (calibrationRefMS / mean kernel) ^ calibrationExponent
//
// The exponent is below 1 because the programs are partly bound by memory
// and the L2-resident kernel is not: over six minutes in which the kernel
// varied 1.6x, pipeline runs, JSON encoding and schedule search each varied
// 1.3x to 1.8x, and scaling by the kernel time cut the spread of ten-second
// medians from 14-26 % to 3-10 % for exponents from 0.5 to 0.7. The kernel
// and the exponent live in this file and do not change, so the scaled
// numbers of two commits compare on equal terms. The table printed beside a
// result has the latencies as measured, and the per-layer rows are as
// measured too.

const (
	// calibrationRefMS is the kernel time end-to-end latencies are scaled
	// to: a round number in the middle of what this box takes.
	calibrationRefMS    = 3.0
	calibrationExponent = 0.6
	// calibrationEvery is how stale the last kernel time may be when an op
	// starts.
	calibrationEvery = 500 * time.Millisecond

	calibrationElems = 64 << 10 // 256 KB of float32: in L2, like a tile's scratchpads
	calibrationSweep = 24
)

// speedometer keeps the kernel times of one pass.
type speedometer struct {
	// gate is held shared by every op in flight and exclusively by a
	// calibration, which therefore runs with the system under test idle.
	gate    sync.RWMutex
	mu      sync.Mutex
	samples []float64      // kernel times, ms
	last    time.Time      // when the latest was taken
	bufs    [][2][]float32 // the kernel's rows, one pair per CPU
}

// kernel returns the median time in ms of three rounds of the calibration
// kernel: a three-tap stencil swept over an L2-sized row, run on every CPU
// at once and timed until the last one finishes, the way a tiled group's
// parallel section is. The caller holds gate.
func (s *speedometer) kernel() float64 {
	if s.bufs == nil {
		s.bufs = make([][2][]float32, runtime.GOMAXPROCS(0))
		for i := range s.bufs {
			for j := range s.bufs[i] {
				s.bufs[i][j] = make([]float32, calibrationElems)
				for k := range s.bufs[i][j] {
					s.bufs[i][j][k] = float32(k%97) / 97
				}
			}
		}
	}
	var times [3]float64
	for it := range times {
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range s.bufs {
			wg.Add(1)
			go func(a, b []float32) {
				defer wg.Done()
				for sweep := 0; sweep < calibrationSweep; sweep++ {
					for k := 1; k < len(a)-1; k++ {
						b[k] = 0.25*a[k-1] + 0.5*a[k] + 0.25*a[k+1]
					}
					a, b = b, a
				}
			}(s.bufs[i][0], s.bufs[i][1])
		}
		wg.Wait()
		times[it] = float64(time.Since(t0)) / 1e6
	}
	return median(times[:])
}

// sample times the kernel once no op is in flight. Unless forced, it does
// nothing when another caller has just done so.
func (s *speedometer) sample(force bool) {
	s.gate.Lock()
	defer s.gate.Unlock()
	if !force && !s.stale() {
		return
	}
	ms := s.kernel()
	s.mu.Lock()
	s.samples, s.last = append(s.samples, ms), time.Now()
	s.mu.Unlock()
}

func (s *speedometer) stale() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.last) >= calibrationEvery
}

// enter starts an op, after a calibration if the last one is stale.
func (s *speedometer) enter() {
	if s.stale() {
		s.sample(false)
	}
	s.gate.RLock()
}

func (s *speedometer) leave() { s.gate.RUnlock() }

// factor returns what to multiply the pass's times by: the reference kernel
// time over the mean kernel time of the pass, to the calibration exponent.
func (s *speedometer) factor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	return math.Pow(calibrationRefMS/mean(s.samples), calibrationExponent)
}
