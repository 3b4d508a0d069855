package service

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// phase is one step of a request's life that /metrics totals.
type phase int

const (
	phaseDecode phase = iota
	phaseQueue
	phaseCompile
	phaseInputs
	phaseRun
	phaseChecksum
	phaseEncode
	numPhases
)

// phaseStats totals where requests spend their time and how many body
// bytes cross the HTTP surface. A nil *phaseStats is the disabled state
// (Config.DisableMetrics): no clock is read and nothing is recorded.
type phaseStats struct {
	lat               [numPhases]obs.LatencyHist
	bytesIn, bytesOut atomic.Int64
}

// now reads the clock only when recording is on.
func (p *phaseStats) now() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// since records the time from t0, a value of now, as one sample of ph.
func (p *phaseStats) since(ph phase, t0 time.Time) {
	if p != nil {
		p.add(ph, time.Since(t0))
	}
}

func (p *phaseStats) add(ph phase, d time.Duration) {
	if p != nil {
		p.lat[ph].Record(int64(d))
	}
}

func (p *phaseStats) addBytes(in, out int64) {
	if p != nil {
		p.bytesIn.Add(in)
		p.bytesOut.Add(out)
	}
}

// totals returns the phase totals and the body bytes in and out.
func (p *phaseStats) totals() (ph RequestPhases, in, out int64) {
	if p == nil {
		return ph, 0, 0
	}
	// In the order of the phase constants.
	for i, m := range []*PhaseMetrics{&ph.Decode, &ph.Queue, &ph.Compile, &ph.Inputs, &ph.Run, &ph.Checksum, &ph.Encode} {
		m.Count, m.Nanos, m.Hist = p.lat[i].Load()
	}
	return ph, p.bytesIn.Load(), p.bytesOut.Load()
}
