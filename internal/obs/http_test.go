package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestHandlerMounts(t *testing.T) {
	m := NewMetrics(1)
	h := Handler(m.Families)
	cases := []struct {
		path     string
		contains string
	}{
		{"/debug/pprof/", "profile"},
		{"/metrics", "# EOF"},
	}
	for _, tc := range cases {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", tc.path, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status %d", tc.path, rr.Code)
			continue
		}
		if !strings.Contains(rr.Body.String(), tc.contains) {
			t.Errorf("%s: body missing %q", tc.path, tc.contains)
		}
	}
}

func TestHandlerWithoutSourcesHasNoMetrics(t *testing.T) {
	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/metrics without sources: status %d, want 404", rr.Code)
	}
}

func TestServeResolvesAndShutsDownCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, ln, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	addr := ln.Addr().String()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("listener did not resolve :0, got %s", addr)
	}

	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err == nil {
		t.Fatal("server still accepting after Close")
	}

	// The accept loop and per-connection goroutines must wind down; allow
	// the runtime a few scheduling rounds before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after shutdown: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestServeBadAddr(t *testing.T) {
	if _, _, err := Serve("256.256.256.256:99999"); err == nil {
		t.Fatal("Serve accepted an impossible address")
	}
}
