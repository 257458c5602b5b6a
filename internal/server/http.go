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

// startMetrics serves /metrics (the registry in Prometheus text format)
// and /healthz on cfg.MetricsAddr.
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
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return nil
}

// handleReadyz answers whether this node should receive traffic:
// primaries are ready unless draining (the body reports role and
// epoch); replicas are ready only once bootstrapped and within the
// configured LSN lag of their primary — a load balancer pointed here
// never routes reads to a replica still installing a snapshot or
// trailing far behind.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	role := s.Role()
	epoch := s.db.Engine().Epoch()
	if role == "primary" {
		fmt.Fprintf(w, "ok role=primary epoch=%d\n", epoch)
		return
	}
	s.roleMu.Lock()
	rep := s.rep
	s.roleMu.Unlock()
	maxLag := s.cfg.ReadyMaxLagLSNs
	if maxLag <= 0 {
		maxLag = 1024
	}
	switch {
	case rep == nil:
		http.Error(w, fmt.Sprintf("fenced with no peers to follow role=replica epoch=%d", epoch),
			http.StatusServiceUnavailable)
	case !rep.Bootstrapped():
		http.Error(w, fmt.Sprintf("bootstrapping role=replica epoch=%d", epoch),
			http.StatusServiceUnavailable)
	default:
		lag, _ := rep.Lag()
		if lag > uint64(maxLag) {
			http.Error(w, fmt.Sprintf("lagging %d lsns (max %d) role=replica epoch=%d", lag, maxLag, epoch),
				http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ok role=replica epoch=%d lag=%d\n", epoch, lag)
	}
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
