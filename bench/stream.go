package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/affine"
	"repro/internal/engine"
	"repro/internal/obs"
)

// streamROI is the executor used for frame sequences with a dirty
// rectangle: after one whole frame, every RunFrame changes the inputs only
// inside the centred quarter of the image (6.25 % of it) and says so, so
// the engine recomputes the tiles that read it and copies the rest.
type streamROI struct {
	e       *env
	streams []*roiStream
	next    int
	subj    subjectStat
}

// roiStream is one pipeline's stream pair: roi is told the dirty rectangle,
// full is not and recomputes whole frames from the same inputs.
type roiStream struct {
	c         *compiled
	in        map[string]*engine.Buffer
	rect      affine.Box
	patch     *engine.Buffer
	roi, full *engine.Stream
	frame     int64
	last      map[string]*engine.Buffer // roi's latest outputs
}

func setupStreamROI(e *env) (workload, error) {
	pipes, err := tablePipes(e.tiny, "harris", "camera")
	if err != nil {
		return nil, err
	}
	if err := precheckAll(pipes); err != nil {
		return nil, err
	}
	w := &streamROI{e: e}
	for _, p := range pipes {
		c, err := compile(p, p.bench, true, false, nil, -1, -1)
		if err != nil {
			w.close()
			return nil, err
		}
		s := &roiStream{c: c, patch: &engine.Buffer{}}
		w.streams = append(w.streams, s)
		if s.in, err = p.inputs(c.b, p.bench, e.seed); err != nil {
			w.close()
			return nil, err
		}
		if s.rect, err = centredQuarter(s.in); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		ex := c.prog.Executor()
		if s.roi, err = ex.NewStream(engine.StreamOptions{}); err != nil {
			w.close()
			return nil, err
		}
		if s.full, err = ex.NewStream(engine.StreamOptions{}); err != nil {
			w.close()
			return nil, err
		}
		if s.last, err = s.roi.RunFrame(s.in, nil); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// centredQuarter returns the centred quarter, per dimension, of the
// highest-rank input image.
func centredQuarter(in map[string]*engine.Buffer) (affine.Box, error) {
	var box affine.Box
	for _, b := range in {
		if len(b.Box) > len(box) {
			box = b.Box
		}
	}
	if len(box) == 0 {
		return nil, fmt.Errorf("no input image to place a dirty rectangle in")
	}
	rect := make(affine.Box, len(box))
	for d, r := range box {
		size := r.Hi - r.Lo + 1
		q := max(size/4, 1)
		lo := r.Lo + (size-q)/2
		rect[d] = affine.Range{Lo: lo, Hi: lo + q - 1}
	}
	return rect, nil
}

// advance changes the inputs inside the dirty rectangle, deterministically
// from the seed and the frame number.
func (s *roiStream) advance(seed int64) {
	s.frame++
	for _, b := range s.in {
		if len(b.Box) != len(s.rect) {
			continue
		}
		s.patch.ResetElem(s.rect, b.Elem)
		engine.FillPattern(s.patch, seed*7919+s.frame)
		b.CopyRegion(s.patch, s.rect)
	}
}

func (w *streamROI) clients() int { return 1 }

func (w *streamROI) close() {
	for _, s := range w.streams {
		for _, st := range []*engine.Stream{s.roi, s.full} {
			if st != nil {
				st.Close()
			}
		}
		s.c.prog.Close()
	}
}

func (w *streamROI) pass(d time.Duration, tr *tracer, o *ops) error {
	defer w.subj.start(os.Getpid())()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); w.next++ {
		s := w.streams[w.next%len(w.streams)]
		id := tr.op(s.c.name)
		root := tr.begin("stream.frame", -1, id)
		sp := tr.begin("bench.advance", root, id)
		s.advance(w.e.seed)
		tr.end(sp)
		ok := o.run(s.c.name, func() (time.Duration, error) {
			sp := tr.begin("engine.stream.run_frame", root, id)
			t0 := time.Now()
			out, err := s.roi.RunFrame(s.in, s.rect)
			lat := time.Since(t0)
			tr.end(sp)
			if err == nil {
				s.last = out
			}
			return lat, err
		})
		if ok && tr != nil {
			// The same frame with the rectangle withheld: what the dirty
			// rectangle saves, and a check on every traced frame.
			sp := tr.begin("engine.stream.full_frame", root, id)
			whole, err := s.full.RunFrame(s.in, nil)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("bench.verify", root, id)
			s.compare(whole, o)
			tr.end(sp)
		}
		tr.end(root)
	}
	return nil
}

// compare demands that the stream's latest outputs are bit-identical with
// a whole-frame recompute of the same inputs.
func (s *roiStream) compare(whole map[string]*engine.Buffer, o *ops) {
	for _, lo := range s.c.outs {
		if eq, msg := s.last[lo].Equal(whole[lo], 0); !eq {
			o.mismatch("%s frame %d output %s: dirty-rectangle result differs from a whole-frame recompute: %s", s.c.name, s.frame, lo, msg)
		}
	}
}

// verify recomputes each pipeline's final frame whole, with the rectangle
// withheld, and demands bit-identical outputs.
func (w *streamROI) verify(o *ops) error {
	for _, s := range w.streams {
		whole, err := s.full.RunFrame(s.in, nil)
		if err != nil {
			return err
		}
		s.compare(whole, o)
	}
	return nil
}

func (w *streamROI) layers(m map[string]float64, tr *tracer, timed, traced *ops) error {
	for row, v := range tr.durations("engine.stream.run_frame") {
		m["engine.run_ms."+row] = median(v)
	}
	m["engine.stream.roi_ms_p95"] = quantile(traced.all(), 0.95)
	var full []float64
	for _, v := range tr.durations("engine.stream.full_frame") {
		full = append(full, median(v))
	}
	m["engine.stream.fullframe_ms"] = geomean(full)
	var skipped, executed float64
	stages := map[string][]obs.StageModel{}
	snaps := map[string]obs.Snapshot{}
	for _, s := range w.streams {
		st := s.roi.Stats()
		skipped += float64(st.TilesSkipped)
		executed += float64(st.TilesExecuted)
		stages[s.c.name] = s.c.prog.Stats().Stages
		snaps[s.c.name] = s.c.prog.Executor().Snapshot()
	}
	m["engine.stream.tiles_skipped_share"] = ratio(skipped, skipped+executed)
	engineLayers(m, stages, snaps)
	w.subj.layers(m)
	return nil
}
