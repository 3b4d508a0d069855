package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/service"
)

// coldSpecs is how many inline difftest specs follow the apps in a round.
const coldSpecs = 32

// cold is the compile path: each round starts a fresh polymage-serve and
// posts coldSpecs generated specs and then one /run per Table-2 app, so
// every request misses the program cache and pays pipeline build, bounds
// check, inlining, the schedule search and lowering before a short run.
// (Specs go first so that the apps are still among the 32 cached programs
// when the round ends and /metrics is read.)
type cold struct {
	e     *env
	pipes []pipe
	specs []difftest.PipelineSpec
	srv   *server // started and not yet used; nil once its round is done

	served map[string]string // op key -> checksums the server returned
	lib    map[string]string // op key -> checksums of the in-process replay
	layer  map[string]float64
	runMS  float64          // summed run_ms the server reported
	met    *service.Metrics // server /metrics at the end of the last round
	subj   subjectStat
}

func setupCold(e *env) (workload, error) {
	pipes, err := tablePipes(e.tiny)
	if err != nil {
		return nil, err
	}
	w := &cold{e: e, pipes: pipes, served: map[string]string{}, lib: map[string]string{}, layer: map[string]float64{}}
	if err := precheckAll(pipes); err != nil {
		return nil, err
	}
	for i := int64(0); i < coldSpecs; i++ {
		w.specs = append(w.specs, difftest.Generate(e.seed+i))
	}
	if w.srv, err = startServer(e.serverBin); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *cold) clients() int { return 1 }

func (w *cold) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func specKey(i int) string { return fmt.Sprintf("spec:%d", i) }

// pass without a tracer runs whole rounds against fresh servers while
// another round fits in d (at least one). With a tracer it replays the
// requests in this process instead, once, with a span per layer call.
func (w *cold) pass(d time.Duration, tr *tracer, o *ops) error {
	if tr != nil {
		for i := range w.specs {
			if err := w.replaySpec(i, tr, o); err != nil {
				return err
			}
		}
		for _, p := range w.pipes {
			if err := w.replayApp(p, tr, o); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	for {
		if w.srv == nil {
			var err error
			if w.srv, err = startServer(w.e.serverBin); err != nil {
				return err
			}
		}
		t0 := time.Now()
		stop := w.subj.start(w.srv.pid())
		err := w.round(o)
		stop()
		w.close()
		if err != nil {
			return err
		}
		if time.Since(start)+time.Since(t0) > d {
			return nil
		}
	}
}

func (w *cold) round(o *ops) error {
	post := func(row, key string, req *service.RunRequest) {
		o.run(row, func() (time.Duration, error) {
			resp, lat, err := w.srv.run(req)
			if err != nil {
				return 0, err
			}
			if resp.Cached {
				return 0, fmt.Errorf("%s was served from the program cache; a cold op must compile", key)
			}
			w.served[key] = responseSums(resp)
			w.runMS += resp.RunMillis
			return lat, nil
		})
	}
	for i := range w.specs {
		post("specs", specKey(i), &service.RunRequest{Spec: &w.specs[i]})
	}
	for _, p := range w.pipes {
		post(p.name, p.name, w.appRequest(p))
	}
	var err error
	if w.met, err = w.srv.metrics(); err != nil {
		return err
	}
	// A first run must give what a warm run gives: ask for each app again,
	// untimed, now that its program is cached.
	for _, p := range w.pipes {
		resp, _, err := w.srv.run(w.appRequest(p))
		if err != nil {
			return fmt.Errorf("%s: warm re-request: %w", p.name, err)
		}
		if got := responseSums(resp); !resp.Cached || got != w.served[p.name] {
			o.mismatch("%s: cold run returned %s, warm run (cached=%v) %s", p.name, w.served[p.name], resp.Cached, got)
		}
	}
	return nil
}

func (w *cold) appRequest(p pipe) *service.RunRequest {
	return &service.RunRequest{App: p.name, Params: p.bench, Seed: w.e.seed}
}

// finish is the tail of a replayed request: checksum the outputs, encode
// the response, keep the checksums as the library path's answer.
func (w *cold) finish(tr *tracer, root, op int, key string, outs []string, out map[string]*engine.Buffer) {
	sp := tr.begin("difftest.checksum", root, op)
	resp := libraryResponse(key, outs, out)
	tr.end(sp)
	sp = tr.begin("service.encode", root, op)
	_, _ = json.Marshal(resp) // cannot fail: strings and integers
	tr.end(sp)
	w.lib[key] = responseSums(resp)
}

// replayApp does in this process what service.build and Service.Do do for
// a cold app request — compile, bind, synthesize inputs, run, checksum,
// encode — and keeps the compile-side layer rows.
func (w *cold) replayApp(p pipe, tr *tracer, o *ops) (err error) {
	o.run(p.name, func() (time.Duration, error) {
		t0 := time.Now()
		err = w.replayAppOp(p, tr)
		return time.Since(t0), err
	})
	return err
}

func (w *cold) replayAppOp(p pipe, tr *tracer) error {
	op := tr.op(p.name)
	root := tr.begin("cold.request", -1, op)
	c, err := compile(p, p.bench, true, false, tr, root, op)
	if err != nil {
		return err
	}
	defer c.prog.Close()
	sp := tr.begin("apps.inputs", root, op)
	in, err := p.inputs(c.b, p.bench, w.e.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("engine.run", root, op)
	out, err := c.prog.Run(in)
	tr.end(sp)
	if err != nil {
		return err
	}
	w.finish(tr, root, op, p.name, c.outs, out)
	tr.end(root)

	st := c.prog.Stats()
	phase := func(name string) float64 {
		ph, _ := st.Compile.Find(name)
		return ph.Millis()
	}
	w.layer["pipeline.build_ms"] += phase("graph")
	w.layer["bounds.check_ms"] += phase("bounds")
	w.layer["inline.apply_ms"] += phase("inline")
	w.layer["inline.stages_inlined"] += float64(len(c.pl.Inlined))
	w.layer["schedule.group_ms."+p.name] = phase("group") + phase("auto")
	w.layer["schedule.search_states."+p.name] = float64(st.SearchStates)
	w.layer["schedule.groups."+p.name] = float64(len(st.Groups))
	w.layer["engine.lower_ms."+p.name] = float64(st.Bind.Total()) / 1e6
	return nil
}

// replaySpec does the same for an inline spec, and ties the spec to the
// reference interpreter: the specs have no golden test of their own.
func (w *cold) replaySpec(i int, tr *tracer, o *ops) (err error) {
	var out map[string]*engine.Buffer
	o.run("specs", func() (time.Duration, error) {
		t0 := time.Now()
		out, err = w.replaySpecOp(i, tr)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	// Compilation rewrote the graph it was given in place; interpret a
	// fresh one, as the service's verify mode does.
	spec := w.specs[i]
	fresh, err := spec.Build(false)
	if err != nil {
		return fmt.Errorf("spec %d: %w", spec.Seed, err)
	}
	ref, err := engine.Reference(fresh.Graph, fresh.Params, fresh.Inputs)
	if err != nil {
		return fmt.Errorf("spec %d: reference: %w", spec.Seed, err)
	}
	for _, lo := range fresh.LiveOuts {
		if d := difftest.Compare(out[lo], ref[lo], 1e-5, 32); d != "" {
			o.mismatch("spec %d output %s differs from the reference interpreter: %s", spec.Seed, lo, d)
		}
	}
	return nil
}

func (w *cold) replaySpecOp(i int, tr *tracer) (map[string]*engine.Buffer, error) {
	spec := w.specs[i]
	op := tr.op("specs")
	root := tr.begin("cold.request", -1, op)
	sp := tr.begin("difftest.build", root, op)
	rb, err := spec.Build(false)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("spec %d: %w", spec.Seed, err)
	}
	_, prog, err := compileGraph(rb.Graph.Builder, rb.LiveOuts, rb.Params, true,
		engine.ExecOptions{Fast: true, ReuseBuffers: true}, tr, root, op)
	if err != nil {
		return nil, fmt.Errorf("spec %d: %w", spec.Seed, err)
	}
	defer prog.Close()
	sp = tr.begin("engine.run", root, op)
	out, err := prog.Run(rb.Inputs)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("spec %d: %w", spec.Seed, err)
	}
	w.finish(tr, root, op, specKey(i), rb.LiveOuts, out)
	tr.end(root)
	return out, nil
}

// verify compares what the server returned with the library path's answer
// to the same request. The specs are cheap to replay and always are; the
// apps cost a second six-to-nine-second compile, so an untraced run settles
// for the round's cold-equals-warm check and the set-up pre-check, and a
// traced run, which has replayed them, compares those too.
func (w *cold) verify(o *ops) error {
	if _, ok := w.lib[specKey(0)]; !ok {
		scratch := newOps()
		for i := range w.specs {
			if err := w.replaySpec(i, nil, scratch); err != nil {
				return err
			}
		}
		o.wrong += scratch.wrong
		o.notes = append(o.notes, scratch.notes...)
	}
	for key, want := range w.lib {
		if got := w.served[key]; got != want {
			o.mismatch("%s: served %s, library path %s", key, got, want)
		}
	}
	return nil
}

func (w *cold) layers(m map[string]float64, tr *tracer, served, traced *ops) error {
	for k, v := range w.layer {
		m[k] = v
	}
	for row, v := range tr.durations("engine.run") {
		if row != "specs" {
			m["engine.run_ms."+row] = median(v)
		}
	}
	for row, med := range served.rowMedians() {
		if row != "specs" {
			m["service.lat_ms."+row] = med
		}
	}
	m["service.run_share"] = ratio(w.runMS, sum(served.all()))
	serviceLayers(m, w.met)
	w.subj.layers(m)
	return nil
}
