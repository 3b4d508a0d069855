package service

// Auto-scheduling through the serving layer: cache-key separation between
// searched and hand schedules, the request-level override, and the
// auto/tiles exclusivity rule. Run race-checked by `make auto-race`.

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
)

// TestAutoCacheKeyDistinct pins the cache-key rule: the same request
// compiled with and without the auto-scheduler must never share a compiled
// program, and the auto key must include the search-options digest (so a
// knob change invalidates cached schedules).
func TestAutoCacheKeyDistinct(t *testing.T) {
	req := &RunRequest{Spec: testSpec()}
	if err := req.validate(); err != nil {
		t.Fatal(err)
	}
	eo := engine.ExecOptions{Threads: 1}
	hand := req.cacheKey(eo, nil, false)
	auto := req.cacheKey(eo, nil, true)
	if hand == auto {
		t.Fatal("auto and hand requests share a cache key")
	}
	if req.cacheKey(eo, nil, true) != auto {
		t.Fatal("auto cache key not stable")
	}
}

// TestAutoServeEndToEnd drives a server whose default is auto-scheduling:
// the response must carry auto_scheduled and a schedule digest, a request
// pinning auto=false must miss the auto program's cache entry, and
// explicit tiles must reject the auto override with a 400.
func TestAutoServeEndToEnd(t *testing.T) {
	svc := New(Config{AutoSchedule: true})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()})
	if code != 200 {
		t.Fatalf("auto run = %d %v", code, m["error"])
	}
	if m["auto_scheduled"] != true {
		t.Fatalf("auto_scheduled = %v, want true", m["auto_scheduled"])
	}
	if d, _ := m["schedule_digest"].(string); d == "" {
		t.Fatal("missing schedule_digest on an auto-scheduled response")
	}

	// Same spec with auto pinned off: a different program (cache cold),
	// and no auto_scheduled marker.
	off := false
	code, _, m = post(t, srv.URL, &RunRequest{Spec: testSpec(), Auto: &off})
	if code != 200 {
		t.Fatalf("hand run = %d %v", code, m["error"])
	}
	if m["cached"] != false {
		t.Fatal("hand request hit the auto-scheduled cache entry")
	}
	if m["auto_scheduled"] == true {
		t.Fatal("hand-scheduled response claims auto_scheduled")
	}

	// /metrics says what the search did for the searched program, and
	// nothing for the hand-scheduled one.
	var searched, hand int
	for _, pm := range svc.Metrics().Programs {
		if pm.Search == nil {
			hand++
			continue
		}
		searched++
		if s := pm.Search; s.States <= 0 || s.PerDimEvals <= 0 || s.EnumeratedEvals != 0 {
			t.Errorf("search metrics %+v: want states > 0, per-dimension evaluations only", *s)
		}
	}
	if searched != 1 || hand != 1 {
		t.Errorf("%d searched and %d hand programs carry search metrics, want 1 and 1", searched, hand)
	}

	// Explicit tiles pin a hand schedule; combining them with auto=true
	// is a contradiction the API rejects.
	on := true
	code, _, m = post(t, srv.URL, &RunRequest{Spec: testSpec(), Tiles: []int64{32}, Auto: &on})
	if code != 400 {
		t.Fatalf("auto+tiles = %d %v, want 400", code, m["error"])
	}
}
