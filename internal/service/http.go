package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/apps"
	"repro/internal/obs"
)

// Handler returns the service's HTTP surface:
//
//	POST /run      execute a pipeline (RunRequest -> RunResponse)
//	GET  /healthz  liveness + admission gauges (Health)
//	GET  /metrics  counters + per-program executor snapshots (Metrics);
//	               ?stream=<interval> streams merged obs.Snapshot JSON
//	               lines until the client disconnects
//	GET  /apps     the registered applications and their parameters
//
// Every handler runs behind a recover barrier: a panic answers 500 and
// the process keeps serving.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/apps", s.handleApps)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeError(w, errf(500, "internal error: %v", rec))
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, errf(405, "POST only"))
		return
	}
	t0 := s.phases.now()
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, errf(413, "request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, errf(400, "bad request body: %v", err))
		return
	}
	req, err := s.codec.decodeRequest(body)
	s.phases.since(phaseDecode, t0)
	s.phases.addBytes(int64(len(body)), 0)
	if err != nil {
		writeError(w, errf(400, "bad request body: %v", err))
		return
	}
	if q := r.URL.Query().Get("frames"); q != "" {
		n, perr := strconv.Atoi(q)
		if perr != nil || n < 1 {
			writeError(w, errSentinel(400, ErrInvalidFrames, "frames query parameter must be a positive integer, got %q", q))
			return
		}
		req.Frames = n
	}
	if req.Frames > 1 {
		s.handleRunStream(w, r, req)
		return
	}
	resp, err := s.Do(r.Context(), req)
	if err != nil {
		writeError(w, toError(err))
		return
	}
	t0 = s.phases.now()
	envelope := *resp
	envelope.Outputs = withoutData(resp.Outputs)
	line, e := resultLine(&envelope, resp.Outputs)
	if e != nil {
		s.errs.Add(1)
		writeError(w, e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(200)
	_ = s.sendResult(w, line, resp.Outputs, t0) // a failed write means the client is gone
}

// readBody reads a request body of at most limit bytes into a buffer sized
// by the declared Content-Length; a longer body fails with
// *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := min(max(r.ContentLength, 0), limit)
	// ReadFrom grows the buffer unless MinRead bytes are free when it looks
	// for the end of the body.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// resultLine makes the checks a 200 with pixels must pass before its
// status line goes out, while a failure can still be answered as one: no
// output value is NaN or infinite, and the envelope — the RunResponse or
// FrameResult with its outputs' data withheld — encodes. It returns the
// encoded envelope.
func resultLine(envelope any, outputs map[string]OutputResult) ([]byte, *Error) {
	if e := nonFinite(outputs); e != nil {
		return nil, e
	}
	line, err := encodeLine(envelope)
	if err != nil {
		return nil, errf(500, "encode response: %v", err)
	}
	return line, nil
}

// sendResult writes a checked result, the outputs' data spliced into line,
// and records the encode phase begun at t0.
func (s *Service) sendResult(w io.Writer, line []byte, outputs map[string]OutputResult, t0 time.Time) error {
	n, err := s.codec.writeResult(w, line, outputs)
	s.phases.since(phaseEncode, t0)
	s.phases.addBytes(0, n)
	return err
}

// handleRunStream answers a frames>1 /run request as ndjson: one
// FrameResult line per frame, flushed as it completes. Failures before
// the first frame come back as an ordinary JSON error with their status;
// once frames have been emitted the status line is gone, so a mid-stream
// failure (deadline, execution error, a non-finite output value) appends a
// terminal {"error": ...} line instead.
func (s *Service) handleRunStream(w http.ResponseWriter, r *http.Request, req *RunRequest) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(500, "streaming unsupported by this connection"))
		return
	}
	started := false
	err := s.DoStream(r.Context(), req, func(fr *FrameResult) error {
		t0 := s.phases.now()
		envelope := *fr
		envelope.Outputs = withoutData(fr.Outputs)
		line, e := resultLine(&envelope, fr.Outputs)
		if e != nil {
			return e
		}
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(200)
			started = true
		}
		if err := s.sendResult(w, line, fr.Outputs, t0); err != nil {
			return err
		}
		fl.Flush()
		return nil
	})
	if err != nil {
		e := toError(err)
		if !started {
			writeError(w, e)
			return
		}
		line, _ := encodeLine(e) // a status and a string always encode
		w.Write(line)            // the stream is over either way
		fl.Flush()
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := 200
	if h.Status != "ok" {
		code = 503
	}
	writeJSON(w, code, h)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stream := r.URL.Query().Get("stream")
	if stream == "" {
		writeJSON(w, 200, s.Metrics())
		return
	}
	interval, err := time.ParseDuration(stream)
	if err != nil {
		writeError(w, errf(400, "bad stream interval %q: %v", stream, err))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(500, "streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(200)
	fl.Flush()
	stop := obs.StreamSnapshots(flushWriter{w, fl}, interval, s.Snapshot)
	<-r.Context().Done()
	stop()
}

// flushWriter flushes after every write so each snapshot line reaches the
// client immediately.
type flushWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	f.fl.Flush()
	return n, err
}

// appInfo is one entry of GET /apps.
type appInfo struct {
	Name        string           `json:"name"`
	Title       string           `json:"title"`
	Stages      int              `json:"stages"`
	PaperParams map[string]int64 `json:"paper_params,omitempty"`
	TestParams  map[string]int64 `json:"test_params,omitempty"`
}

func (s *Service) handleApps(w http.ResponseWriter, r *http.Request) {
	var out []appInfo
	for _, a := range apps.All() {
		out = append(out, appInfo{
			Name:        a.Name,
			Title:       a.Title,
			Stages:      a.StageCount(),
			PaperParams: a.PaperParams,
			TestParams:  a.TestParams,
		})
	}
	writeJSON(w, 200, out)
}

// writeJSON answers with v encoded. These bodies are small, so they are
// encoded before the status line: a value that cannot be encoded becomes a
// 500 instead of an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	line, err := encodeLine(v)
	if err != nil {
		code = 500
		line, _ = encodeLine(errf(500, "encode response: %v", err)) // a status and a string always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(line) // a failed write means the client is gone
}

func writeError(w http.ResponseWriter, e *Error) {
	if e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	writeJSON(w, e.Status, e)
}
