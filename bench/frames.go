package main

import (
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// frames is the library steady state: every pipeline compiled once in the
// default configuration, then Executor.Run + Recycle round-robin from one
// caller. The engine's executor does all the work and the scheduler and
// the service none.
type frames struct {
	progs  []*compiled // timed configuration
	traced []*compiled // same pipelines bound with executor metrics
	hand   []*compiled // hand schedule of the Table-2 apps, for the ablation row
	in     []map[string]*engine.Buffer
	first  []string // checksum of each pipeline's first run
	next   int      // round-robin position, kept across passes
	allocs struct{ bytes, ops float64 }
	subj   subjectStat
}

func setupFrames(e *env) (workload, error) {
	pipes, err := tablePipes(e.tiny)
	if err != nil {
		return nil, err
	}
	pipes = append(pipes, narrowPipes(e.tiny)...)
	if err := precheckAll(pipes); err != nil {
		return nil, err
	}
	w := &frames{}
	for _, p := range pipes {
		c, err := compile(p, p.bench, true, false, nil, -1, -1)
		if err != nil {
			w.close()
			return nil, err
		}
		w.progs = append(w.progs, c)
		in, err := p.inputs(c.b, p.bench, e.seed)
		if err != nil {
			w.close()
			return nil, err
		}
		w.in = append(w.in, in)
		out, err := c.prog.Run(in)
		if err != nil {
			w.close()
			return nil, err
		}
		w.first = append(w.first, c.checksum(out))
		c.prog.Executor().Recycle(out)
	}
	return w, nil
}

func (w *frames) clients() int { return 1 }

func (w *frames) close() {
	for _, set := range [][]*compiled{w.progs, w.traced, w.hand} {
		for _, c := range set {
			c.prog.Close()
		}
	}
}

func (w *frames) pass(d time.Duration, tr *tracer, o *ops) error {
	defer w.subj.start(os.Getpid())()
	progs := w.progs
	if tr != nil {
		if w.traced == nil {
			for _, c := range w.progs {
				t, err := c.rebind()
				if err != nil {
					return err
				}
				w.traced = append(w.traced, t)
			}
		}
		progs = w.traced
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, n0 := ms.TotalAlloc, o.attempted
	for deadline := time.Now().Add(d); time.Now().Before(deadline); w.next++ {
		i := w.next % len(progs)
		c, ex := progs[i], progs[i].prog.Executor()
		op := tr.op(c.name)
		root := tr.begin("frame", -1, op)
		var out map[string]*engine.Buffer
		ok := o.run(c.name, func() (time.Duration, error) {
			sp := tr.begin("engine.run", root, op)
			t0 := time.Now()
			var err error
			out, err = ex.Run(w.in[i])
			lat := time.Since(t0)
			tr.end(sp)
			return lat, err
		})
		if ok {
			sp := tr.begin("bench.verify", root, op)
			sum := c.checksum(out)
			tr.end(sp)
			sp = tr.begin("engine.recycle", root, op)
			ex.Recycle(out)
			tr.end(sp)
			if sum != w.first[i] {
				o.mismatch("%s: run checksum %s differs from the first run's %s", c.name, sum, w.first[i])
			}
		}
		tr.end(root)
	}
	runtime.ReadMemStats(&ms)
	w.allocs.bytes += float64(ms.TotalAlloc - alloc0)
	w.allocs.ops += float64(o.attempted - n0)
	return nil
}

// verify has nothing to add: every op was compared with its pipeline's
// first run as it completed, and set-up tied each pipeline to the reference
// interpreter.
func (w *frames) verify(o *ops) error { return nil }

func (w *frames) layers(m map[string]float64, tr *tracer, timed, traced *ops) error {
	for row, v := range tr.durations("engine.run") {
		m["engine.run_ms."+row] = median(v)
	}
	m["engine.run_ms_p95"] = quantile(traced.all(), 0.95)
	w.subj.layers(m)
	stages := map[string][]obs.StageModel{}
	snaps := map[string]obs.Snapshot{}
	for _, c := range w.traced {
		stages[c.name] = c.prog.Stats().Stages
		snaps[c.name] = c.prog.Executor().Snapshot()
	}
	engineLayers(m, stages, snaps)
	m["engine.alloc_kb_per_op"] = ratio(w.allocs.bytes/1024, w.allocs.ops)

	// The auto-vs-hand ablation: a few frames of the hand schedule in the
	// same binary, per Table-2 app.
	for i, c := range w.progs {
		if c.narrow {
			continue
		}
		h, err := compile(c.pipe, c.params, false, false, nil, -1, -1)
		if err != nil {
			return err
		}
		w.hand = append(w.hand, h)
		var ms []float64
		for f := 0; f < 5; f++ {
			t0 := time.Now()
			out, err := h.prog.Run(w.in[i])
			if err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			h.prog.Executor().Recycle(out)
		}
		m["schedule.hand_run_ms."+c.name] = median(ms)
	}
	return nil
}
