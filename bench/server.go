package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// buildServer builds the real polymage-serve binary from the repository at
// root into dir and returns its path and the build time. The build time
// measures the go build cache more than the program, so it stays outside
// set-up time and is reported as process.build_s.
func buildServer(root, dir string) (string, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "polymage-serve"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/polymage-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/polymage-serve: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// server is one running polymage-serve process with default flags.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
}

// startServer starts the binary on a free loopback port and waits until
// /healthz answers.
func startServer(bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = io.Discard
	// Should this process die without reaching stop, take the server along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + addr, client: &http.Client{Timeout: 120 * time.Second}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("polymage-serve on %s: no healthy /healthz within 10s (last error: %v)", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain and waits until the process has ended.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status of a terminated server carries no news
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// post sends one /run body and returns the status, the raw response body
// and the client-side latency: request written to response fully read.
func (s *server) post(body []byte) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, data, d, err
}

// run posts a request and decodes the response; a non-200 answer is an
// error carrying the status.
func (s *server) run(req *service.RunRequest) (*service.RunResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	status, data, d, err := s.post(body)
	if err != nil {
		return nil, 0, err
	}
	if status != 200 {
		return nil, 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	var resp service.RunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, 0, err
	}
	return &resp, d, nil
}

// metrics reads GET /metrics.
func (s *server) metrics() (*service.Metrics, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return &m, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procStat reads a process's consumed CPU seconds (user + system) and its
// peak resident set (VmHWM) in MB from /proc.
func procStat(pid int) (cpuSeconds, peakRSSMB float64) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	if data, err := os.ReadFile(filepath.Join(dir, "stat")); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, in clock ticks of 1/100 s.
		if i := bytes.LastIndexByte(data, ')'); i >= 0 {
			f := strings.Fields(string(data[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuSeconds = (ut + st) / 100
			}
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "status")); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	return cpuSeconds, peakRSSMB
}

// subjectStat accumulates, over a run's passes, the CPU use and the peak
// memory of the process under test: the server on the service workloads,
// this process on the library workloads.
type subjectStat struct {
	cpu, wall, peakMB float64
}

// start begins one measured interval of process pid; the returned func
// ends it and must run while the process still exists.
func (s *subjectStat) start(pid int) (stop func()) {
	t0 := time.Now()
	cpu0, _ := procStat(pid)
	return func() {
		cpu1, rss := procStat(pid)
		s.cpu += cpu1 - cpu0
		s.wall += time.Since(t0).Seconds()
		s.peakMB = max(s.peakMB, rss)
	}
}

func (s *subjectStat) layers(m map[string]float64) {
	m["process.peak_rss_mb"] = s.peakMB
	m["process.cpu_util"] = ratio(s.cpu, s.wall*float64(runtime.NumCPU()))
}
