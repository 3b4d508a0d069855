package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
)

// pixelRequest is an output:"data" request for a registered app at its test
// size with explicit inputs: the app's synthetic pattern times scale.
func pixelRequest(t *testing.T, name string, seed int64, scale float32) *RunRequest {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := app.Build()
	in, err := app.Inputs(b, app.TestParams, seed)
	if err != nil {
		t.Fatal(err)
	}
	req := &RunRequest{App: name, Params: app.TestParams, Output: OutputData, Inputs: map[string][]float32{}}
	for image, buf := range in {
		data := append([]float32(nil), buf.Data...)
		for i := range data {
			data[i] *= scale
		}
		req.Inputs[image] = data
	}
	return req
}

// postBody posts a /run body and returns the status and the raw response.
func postBody(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, data
}

// sameData reports the first difference between two output sets, bit for
// bit.
func sameData(t *testing.T, label string, got, want map[string]OutputResult) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Errorf("%s: %d outputs, want %d", label, len(got), len(want))
		return
	}
	for name, wo := range want {
		gd := got[name].Data
		if len(gd) != len(wo.Data) || len(gd) == 0 {
			t.Errorf("%s: output %q: %d values, want %d", label, name, len(gd), len(wo.Data))
			return
		}
		for i, v := range wo.Data {
			if math.Float32bits(gd[i]) != math.Float32bits(v) {
				t.Errorf("%s: output %q[%d] = %v, want %v", label, name, i, gd[i], v)
				return
			}
		}
	}
}

// TestPixelsConcurrent: concurrent /run requests carrying pixels both ways
// on two apps, through a codec forced to split every array, each checked
// value by value against Service.Do and byte for byte against
// encoding/json's print of the same response.
func TestPixelsConcurrent(t *testing.T) {
	svc := New(Config{})
	svc.codec = codec{workers: 3, minSpan: 1 << 10, chunk: 1 << 9}
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	type job struct {
		req  *RunRequest
		body []byte
		want *RunResponse
	}
	var jobs []job
	for _, name := range []string{"unsharp", "harris"} {
		for seed := int64(1); seed <= 2; seed++ {
			req := pixelRequest(t, name, seed, 1)
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{req, body, want})
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				j := jobs[(c+i)%len(jobs)]
				status, data := postBody(t, srv.URL+"/run", j.body)
				if status != 200 {
					t.Errorf("%s: status %d: %.200s", j.req.App, status, data)
					return
				}
				var got RunResponse
				if err := json.Unmarshal(data, &got); err != nil {
					t.Errorf("%s: %v", j.req.App, err)
					return
				}
				sameData(t, j.req.App, got.Outputs, j.want.Outputs)
				if line, _ := encodeLine(&got); !bytes.Equal(line, data) {
					t.Errorf("%s: response bytes are not encoding/json's for the same response", j.req.App)
				}
			}
		}(c)
	}
	wg.Wait()

	var met Metrics
	getJSON(t, srv.URL+"/metrics", &met)
	p := met.Phases
	for name, ph := range map[string]PhaseMetrics{"decode": p.Decode, "queue": p.Queue, "compile": p.Compile, "run": p.Run, "encode": p.Encode} {
		var inHist int64
		for _, n := range ph.Hist {
			inHist += n
		}
		// 24 requests over HTTP, 4 more through Do above.
		if ph.Count < 24 || ph.Nanos <= 0 || inHist != ph.Count {
			t.Errorf("phase %s: %+v, want at least 24 samples, all in the histogram", name, ph)
		}
	}
	if p.Decode.Count != 24 || p.Queue.Count != 28 {
		t.Errorf("decode counted %d and queue %d, want 24 and 28", p.Decode.Count, p.Queue.Count)
	}
	var in int64
	for c := 0; c < 4; c++ {
		for i := 0; i < 6; i++ {
			in += int64(len(jobs[(c+i)%len(jobs)].body))
		}
	}
	if met.BodyBytesIn != in || met.BodyBytesOut < in/2 {
		t.Errorf("body bytes in %d out %d, want %d in and about as much out", met.BodyBytesIn, met.BodyBytesOut, in)
	}
}

// TestPixelsMetricsDisabled: DisableMetrics keeps the phase totals off.
func TestPixelsMetricsDisabled(t *testing.T) {
	svc := New(Config{DisableMetrics: true})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body, _ := json.Marshal(pixelRequest(t, "unsharp", 1, 1))
	if status, data := postBody(t, srv.URL+"/run", body); status != 200 {
		t.Fatalf("status %d: %.200s", status, data)
	}
	if svc.phases != nil {
		t.Fatal("a phase recorder exists under DisableMetrics")
	}
	var met Metrics
	getJSON(t, srv.URL+"/metrics", &met)
	if met.Requests != 1 || met.BodyBytesIn != 0 || met.BodyBytesOut != 0 || met.Phases.Decode.Count != 0 || met.Phases.Run.Count != 0 || met.Phases.Encode.Hist != nil {
		t.Errorf("phases recorded under DisableMetrics: %+v in %d out %d", met.Phases, met.BodyBytesIn, met.BodyBytesOut)
	}
}

// TestPixelsRejections: the request-side failures of a pixel-carrying body
// answer as they did through encoding/json.
func TestPixelsRejections(t *testing.T) {
	svc := New(Config{MaxBodyBytes: 64 << 10})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	check := func(label string, status int, data []byte, want int, msg string) {
		t.Helper()
		var e Error
		if err := json.Unmarshal(data, &e); err != nil || status != want || e.Status != want || !strings.Contains(e.Msg, msg) {
			t.Errorf("%s: status %d body %.200s, want %d mentioning %q", label, status, data, want, msg)
		}
	}

	// Over MaxBodyBytes, with the length declared and without.
	big, _ := json.Marshal(&RunRequest{Spec: testSpec(), Inputs: map[string][]float32{"I": make([]float32, 40000)}})
	status, data := postBody(t, srv.URL+"/run", big)
	check("declared length", status, data, 413, "request body exceeds 65536 bytes")
	resp, err := http.Post(srv.URL+"/run", "application/json", io.MultiReader(bytes.NewReader(big))) // no Content-Length: chunked
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("undeclared length", resp.StatusCode, data, 413, "request body exceeds 65536 bytes")

	// A wrong element count.
	short, _ := json.Marshal(&RunRequest{Spec: testSpec(), Inputs: map[string][]float32{"I": {1, 2, 3}}})
	status, data = postBody(t, srv.URL+"/run", short)
	check("element count", status, data, 400, `input "I": got 3 values, want `)

	// Values and text JSON or a float32 cannot hold.
	for _, tc := range []struct{ label, array, msg string }{
		{"overflow", "[1,1e40]", `input "I"[1]: number 1e40 does not fit a float32`},
		{"null element", "[1,null]", `input "I"[1]: null is not a number`},
		{"string element", `[1,"2"]`, `input "I"[1]: invalid number`},
		{"truncated", "[1,2", "unexpected end of JSON input"},
	} {
		body := `{"spec":` + string(mustJSON(t, testSpec())) + `,"inputs":{"I":` + tc.array + `}}`
		if tc.label == "truncated" {
			body = body[:len(body)-2]
		}
		status, data = postBody(t, srv.URL+"/run", []byte(body))
		check(tc.label, status, data, 400, tc.msg)
	}

	// The same process still serves.
	if code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()}); code != 200 {
		t.Fatalf("good request after rejections = %d (%v)", code, m["error"])
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPixelsNonFinite: an output value JSON cannot carry answers a typed
// 422 with a body, not a 200 with none; the same inputs still run with a
// checksum out, and over a stream the failure takes the status line when it
// is the first frame.
func TestPixelsNonFinite(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := pixelRequest(t, "harris", 1, 1e30) // harris multiplies gradients: products of 1e30s overflow float32
	want422 := func(label, url string) {
		t.Helper()
		status, data := postBody(t, url, mustJSON(t, req))
		var e Error
		if err := json.Unmarshal(data, &e); err != nil || status != 422 || e.Status != 422 ||
			!strings.Contains(e.Msg, `output "harris"[`) || !strings.Contains(e.Msg, `"checksum"`) {
			t.Fatalf("%s: status %d body %.300q, want a 422 naming the output and suggesting a checksum", label, status, data)
		}
	}
	want422("single shot", srv.URL+"/run")
	want422("first frame", srv.URL+"/run?frames=2")

	var met Metrics
	getJSON(t, srv.URL+"/metrics", &met)
	if met.Errors != 2 {
		t.Errorf("errors = %d after two 422s, want 2", met.Errors)
	}

	req.Output = OutputChecksum
	if code, _, m := post(t, srv.URL, req); code != 200 {
		t.Fatalf("checksum output for the same inputs = %d (%v), want 200", code, m["error"])
	}
}

// TestWriteJSONEncodeFailure: a small body that cannot be encoded is a 500
// with a message, decided before the status line.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, map[string]float64{"x": math.Inf(1)})
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != 500 || e.Status != 500 || !strings.Contains(e.Msg, "encode response") {
		t.Fatalf("status %d body %q, want a 500 saying the response did not encode", rec.Code, rec.Body)
	}
}

// TestStreamPixels: an ndjson stream with output:"data" — every line is
// byte for byte what encoding/json prints for its FrameResult, and the
// pixels are the ones DoStream hands an in-process caller.
func TestStreamPixels(t *testing.T) {
	svc := New(Config{})
	svc.codec = codec{workers: 3, minSpan: 1 << 10, chunk: 1 << 9}
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := pixelRequest(t, "unsharp", 3, 1)
	req.Frames = 3
	want, err := collectFrames(t, svc, req)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/run?frames=3", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != 200 || ct != "application/x-ndjson" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, ct)
	}
	rd := bufio.NewReader(resp.Body)
	for f := 0; f < 3; f++ {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		var fr FrameResult
		if err := json.Unmarshal(line, &fr); err != nil || fr.Frame != f {
			t.Fatalf("frame %d: line %.100q: %v", f, line, err)
		}
		if again, _ := encodeLine(&fr); !bytes.Equal(again, line) {
			t.Errorf("frame %d: line is not encoding/json's for the same FrameResult", f)
		}
		sameData(t, "frame", fr.Outputs, want[f].Outputs)
	}
	if rest, _ := io.ReadAll(rd); len(rest) != 0 {
		t.Errorf("bytes after the last frame: %.100q", rest)
	}
}
