package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/service"
)

// pixels is the service used with payloads instead of seeds and checksums:
// warm /run requests that carry the input image as a JSON array and ask
// for the output data back, from one client, two unsharp requests for
// every harris request. The JSON codec dominates; the engine does little.
type pixels struct {
	e    *env
	srv  *server
	svc  *service.Service
	reqs []pixelReq
	next int
	subj subjectStat

	decode, encode, transport []float64
}

// pixelReq is one app's request, encoded once in set-up.
type pixelReq struct {
	name string
	body []byte
	// outputs is the raw "outputs" member of the first response, which was
	// decoded and compared value by value with the library path's; equal
	// data encodes to equal bytes, so later responses compare as bytes.
	outputs json.RawMessage
}

// pixelCycle is the request mix: indices into reqs (unsharp, harris).
var pixelCycle = []int{0, 0, 1}

func setupPixels(e *env) (workload, error) {
	pipes, err := tablePipes(e.tiny, "unsharp", "harris")
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
	w := &pixels{e: e, srv: srv, svc: service.New(service.Config{AutoSchedule: true})}
	for _, p := range pipes {
		r, err := w.prepare(p)
		if err != nil {
			w.close()
			return nil, err
		}
		w.reqs = append(w.reqs, r)
	}
	return w, nil
}

// prepare encodes the app's request, warms the server with it and checks
// the returned pixels against the in-process service's, value by value.
func (w *pixels) prepare(p pipe) (pixelReq, error) {
	b, _ := p.build()
	in, err := p.inputs(b, p.bench, w.e.seed)
	if err != nil {
		return pixelReq{}, err
	}
	req := &service.RunRequest{App: p.name, Params: p.bench, Output: service.OutputData, Inputs: map[string][]float32{}}
	for name, buf := range in {
		req.Inputs[name] = buf.Data
	}
	body, err := json.Marshal(req)
	if err != nil {
		return pixelReq{}, err
	}
	status, data, _, err := w.srv.post(body)
	if err != nil || status != 200 {
		return pixelReq{}, fmt.Errorf("%s: warm-up: status %d, %v", p.name, status, err)
	}
	var served service.RunResponse
	if err := json.Unmarshal(data, &served); err != nil {
		return pixelReq{}, err
	}
	want, err := w.svc.Do(context.Background(), req)
	if err != nil {
		return pixelReq{}, fmt.Errorf("%s: library path: %w", p.name, err)
	}
	for lo, wo := range want.Outputs {
		so := served.Outputs[lo]
		if len(so.Data) != len(wo.Data) || len(wo.Data) == 0 {
			return pixelReq{}, fmt.Errorf("%s: output %s: served %d values, library path %d", p.name, lo, len(so.Data), len(wo.Data))
		}
		for i := range wo.Data {
			if so.Data[i] != wo.Data[i] {
				return pixelReq{}, fmt.Errorf("%s: output %s[%d]: served %v, library path %v", p.name, lo, i, so.Data[i], wo.Data[i])
			}
		}
	}
	raw, err := rawResponse(data)
	if err != nil {
		return pixelReq{}, err
	}
	return pixelReq{name: p.name, body: body, outputs: raw.Outputs}, nil
}

// rawResponse reads a response's run time and cuts out its "outputs"
// member without parsing the numbers in it.
func rawResponse(body []byte) (r struct {
	RunMillis float64         `json:"run_ms"`
	Outputs   json.RawMessage `json:"outputs"`
}, err error) {
	err = json.Unmarshal(body, &r)
	return r, err
}

func (w *pixels) clients() int { return 1 }

func (w *pixels) close() {
	w.srv.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.svc.Close(ctx) // nothing is in flight; a drain timeout loses nothing
}

func (w *pixels) pass(d time.Duration, tr *tracer, o *ops) error {
	defer w.subj.start(w.srv.pid())()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); w.next++ {
		r := &w.reqs[pixelCycle[w.next%len(pixelCycle)]]
		id := tr.op(r.name)
		root := tr.begin("pixels.request", -1, id)
		var data []byte
		var lat time.Duration
		sp := tr.begin("http.run", root, id)
		ok := o.run(r.name, func() (time.Duration, error) {
			var status int
			var err error
			status, data, lat, err = w.srv.post(r.body)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d: %.200s", status, data)
			}
			return lat, err
		})
		tr.end(sp)
		if ok {
			vsp := tr.begin("bench.verify", root, id)
			got, err := rawResponse(data)
			if err != nil || !bytes.Equal(got.Outputs, r.outputs) {
				o.mismatch("%s: response outputs differ from the first, verified response (%v)", r.name, err)
			}
			tr.end(vsp)
			if tr != nil {
				tr.child("engine.run", sp, 0, ms(got.RunMillis))
				if err := w.replay(r, lat, ms(got.RunMillis), tr, root, id); err != nil {
					o.mismatch("%s: in-process replay failed: %v", r.name, err)
				}
			}
		}
		tr.end(root)
	}
	return nil
}

// replay walks the same request through the service layer in this process:
// decode the body, Service.Do, encode the response — the three steps the
// server's handler takes, each under its own span.
func (w *pixels) replay(r *pixelReq, lat, served time.Duration, tr *tracer, root, id int) error {
	sp := tr.begin("service.decode", root, id)
	t0 := time.Now()
	var req service.RunRequest
	err := json.Unmarshal(r.body, &req)
	dec := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("service.do", root, id)
	t0 = time.Now()
	resp, err := w.svc.Do(context.Background(), &req)
	do := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.child("engine.run_inprocess", sp, 0, ms(resp.RunMillis))
	sp = tr.begin("service.encode", root, id)
	t0 = time.Now()
	_, err = json.Marshal(resp)
	enc := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	w.decode = append(w.decode, float64(dec)/1e6)
	w.encode = append(w.encode, float64(enc)/1e6)
	// What HTTP adds: the client's latency less the replayed steps, with the
	// server's own run time in place of this process's (which has the
	// generated kernels linked and the server does not).
	w.transport = append(w.transport, float64(lat-dec-enc-(do-ms(resp.RunMillis))-served)/1e6)
	return nil
}

// verify has nothing to add: set-up compared each app's pixels with the
// library path's, and every op was compared with that response.
func (w *pixels) verify(o *ops) error { return nil }

func (w *pixels) layers(m map[string]float64, tr *tracer, timed, traced *ops) error {
	for row, med := range traced.rowMedians() {
		m["service.lat_ms."+row] = med
	}
	for row, v := range tr.durations("engine.run") {
		m["engine.run_ms."+row] = median(v)
	}
	// Means, like the body sizes below: per op of the request mix.
	m["service.decode_ms"] = mean(w.decode)
	m["service.encode_ms"] = mean(w.encode)
	m["http.transport_ms"] = mean(w.transport)
	var in, out float64
	for _, i := range pixelCycle {
		in += float64(len(w.reqs[i].body))
		out += float64(len(w.reqs[i].outputs))
	}
	m["service.body_mb_in"] = in / float64(len(pixelCycle)) / 1e6
	m["service.body_mb_out"] = out / float64(len(pixelCycle)) / 1e6
	met, err := w.srv.metrics()
	if err != nil {
		return err
	}
	serviceLayers(m, met)
	w.subj.layers(m)
	return nil
}
