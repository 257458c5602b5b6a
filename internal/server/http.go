package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
)

// newReader and newWriter size the per-connection buffers; statements
// are small, responses can carry whole tables.
func newReader(nc net.Conn) *bufio.Reader { return bufio.NewReaderSize(nc, 4096) }
func newWriter(nc net.Conn) *bufio.Writer { return bufio.NewWriterSize(nc, 16384) }

// startMetrics serves /metrics (the registry in Prometheus text format),
// /healthz and /readyz on cfg.MetricsAddr. The two probes answer alike:
// ok, or 503 while the server drains.
func (s *Server) startMetrics() error {
	ln, err := net.Listen("tcp", s.cfg.MetricsAddr)
	if err != nil {
		return fmt.Errorf("server: metrics listen %s: %w", s.cfg.MetricsAddr, err)
	}
	s.metricsLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.met.WriteText(w)
	})
	probe := func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("/healthz", probe)
	mux.HandleFunc("/readyz", probe)
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return nil
}

// MetricsAddr returns the HTTP listener's actual address (nil when no
// metrics address was configured).
func (s *Server) MetricsAddr() net.Addr {
	if s.metricsLn == nil {
		return nil
	}
	return s.metricsLn.Addr()
}

// stopMetrics closes the HTTP listener; in-flight scrapes finish on
// their own connections.
func (s *Server) stopMetrics() {
	if s.metricsLn != nil {
		s.metricsLn.Close()
	}
}
