package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/service"
)

// serveSeeds is how many input seeds the clients rotate through; the
// server memoizes synthetic inputs for up to four seeds per program.
const serveSeeds = 4

// serve is the path a service user gets: warm /run requests with
// server-synthesized inputs and checksum output, from two closed-loop
// clients that each walk their own seeded shuffle of the apps, so the
// shared fleet always has two programs in flight.
type serve struct {
	e     *env
	pipes []pipe
	srv   *server
	svc   *service.Service // the same service in this process: the library path
	want  map[string]string
	subj  subjectStat

	// Sums over the traced pass, for the ratio rows.
	mu                       sync.Mutex
	runMS, latMS             float64
	doOver, transport, cksum []float64
}

type serveOp struct {
	app  pipe
	seed int64
}

func (op serveOp) key() string { return fmt.Sprintf("%s/%d", op.app.name, op.seed) }

func (op serveOp) request(output string) *service.RunRequest {
	return &service.RunRequest{App: op.app.name, Params: op.app.bench, Seed: op.seed, Output: output}
}

func setupServe(e *env) (workload, error) {
	pipes, err := tablePipes(e.tiny)
	if err != nil {
		return nil, err
	}
	if err := precheckAll(pipes); err != nil {
		return nil, err
	}
	srv, err := startServer(e.serverBin)
	if err != nil {
		return nil, err
	}
	w := &serve{e: e, pipes: pipes, srv: srv, want: map[string]string{},
		svc: service.New(service.Config{AutoSchedule: true})}

	// Warm both sides at once: the server compiles in its process while the
	// in-process service compiles here. Each (app, seed) is requested once;
	// the two answers must agree, and every timed op must repeat them.
	served := map[string]string{}
	var wg sync.WaitGroup
	var serr, lerr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, op := range w.ops() {
			resp, _, err := srv.run(op.request(""))
			if err != nil {
				serr = fmt.Errorf("warm-up %s: %w", op.key(), err)
				return
			}
			served[op.key()] = responseSums(resp)
		}
	}()
	go func() {
		defer wg.Done()
		for _, op := range w.ops() {
			resp, err := w.svc.Do(context.Background(), op.request(""))
			if err != nil {
				lerr = fmt.Errorf("library warm-up %s: %w", op.key(), err)
				return
			}
			w.want[op.key()] = responseSums(resp)
		}
	}()
	wg.Wait()
	for _, err := range []error{serr, lerr} {
		if err != nil {
			w.close()
			return nil, err
		}
	}
	for key, want := range w.want {
		if served[key] != want {
			w.close()
			return nil, fmt.Errorf("%s: served checksum %s differs from the library path's %s", key, served[key], want)
		}
	}
	return w, nil
}

// ops lists every (app, input seed) pair once, apps in Table-2 order.
func (w *serve) ops() []serveOp {
	var out []serveOp
	for _, p := range w.pipes {
		for k := int64(0); k < serveSeeds; k++ {
			out = append(out, serveOp{app: p, seed: w.e.seed*serveSeeds + k + 1})
		}
	}
	return out
}

func (w *serve) clients() int { return 2 }

func (w *serve) close() {
	w.srv.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.svc.Close(ctx) // nothing is in flight; a drain timeout loses nothing
}

func (w *serve) pass(d time.Duration, tr *tracer, o *ops) error {
	defer w.subj.start(w.srv.pid())()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		seq := w.ops()
		r := rand.New(rand.NewSource(w.e.seed*31 + int64(c)))
		r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				w.one(seq[i%len(seq)], tr, o)
			}
		}()
	}
	wg.Wait()
	return nil
}

// one sends one request. Traced, it then repeats the request against the
// in-process service, with and without the output checksum, so that what
// HTTP adds and what the checksum costs can be read off the differences.
func (w *serve) one(op serveOp, tr *tracer, o *ops) {
	row := op.app.name
	id := tr.op(row)
	root := tr.begin("serve.request", -1, id)
	defer tr.end(root)

	var resp *service.RunResponse
	var lat time.Duration
	sp := tr.begin("http.run", root, id)
	ok := o.run(row, func() (_ time.Duration, err error) {
		resp, lat, err = w.srv.run(op.request(""))
		return lat, err
	})
	tr.end(sp)
	if !ok {
		return
	}
	if got := responseSums(resp); got != w.want[op.key()] {
		o.mismatch("%s: served %s, library path %s", op.key(), got, w.want[op.key()])
	}
	if !resp.Cached {
		o.mismatch("%s: warm request compiled again", op.key())
	}
	if tr == nil {
		return
	}
	tr.child("engine.run", sp, 0, ms(resp.RunMillis))

	do := func(name, output string) (time.Duration, float64) {
		sp := tr.begin(name, root, id)
		t0 := time.Now()
		r, err := w.svc.Do(context.Background(), op.request(output))
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			o.mismatch("%s: in-process replay failed: %v", op.key(), err)
			return 0, 0
		}
		tr.child("engine.run_inprocess", sp, 0, ms(r.RunMillis))
		return d, r.RunMillis
	}
	full, fullRun := do("service.do", "")
	bare, bareRun := do("service.do_nochecksum", service.OutputNone)
	over := float64(full)/1e6 - fullRun
	w.mu.Lock()
	w.runMS += resp.RunMillis
	w.latMS += float64(lat) / 1e6
	w.doOver = append(w.doOver, over)
	w.transport = append(w.transport, float64(lat)/1e6-resp.RunMillis-over)
	w.cksum = append(w.cksum, over-(float64(bare)/1e6-bareRun))
	w.mu.Unlock()
}

func ms(v float64) time.Duration { return time.Duration(v * 1e6) }

// verify has nothing to add: every op was compared with the library path's
// answer for the same app and seed as it completed.
func (w *serve) verify(o *ops) error { return nil }

func (w *serve) layers(m map[string]float64, tr *tracer, timed, traced *ops) error {
	for row, med := range traced.rowMedians() {
		m["service.lat_ms."+row] = med
	}
	m["service.lat_ms_p95"] = quantile(traced.all(), 0.95)
	for row, v := range tr.durations("engine.run") {
		m["engine.run_ms."+row] = median(v)
	}
	m["service.run_share"] = ratio(w.runMS, w.latMS)
	m["service.do_overhead_ms"] = median(w.doOver)
	m["service.checksum_ms"] = median(w.cksum)
	m["http.transport_ms"] = median(w.transport)
	met, err := w.srv.metrics()
	if err != nil {
		return err
	}
	serviceLayers(m, met)
	w.subj.layers(m)
	return nil
}
