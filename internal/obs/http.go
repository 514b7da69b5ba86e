package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the observability mux served by `nasrun -obs`: the full
// pprof suite under /debug/pprof/ and — when family sources are given — the
// OpenMetrics exposition at /metrics. Handlers are mounted explicitly
// rather than via the net/http/pprof side-effect registration, so nothing
// leaks onto http.DefaultServeMux.
func Handler(metricSources ...func() []Family) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if len(metricSources) > 0 {
		mux.Handle("/metrics", MetricsHandler(metricSources...))
	}
	return mux
}

// Serve starts the observability listener on addr (e.g. ":6060") and serves
// Handler on it in the background. It returns the bound listener (its Addr
// resolves ":0" for tests) and the server for shutdown. The server runs
// until closed; serve errors after Close are discarded.
func Serve(addr string, metricSources ...func() []Family) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(metricSources...), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln, nil
}
