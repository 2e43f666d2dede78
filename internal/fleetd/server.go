package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"time"

	"flashwear/internal/obs"
	"flashwear/internal/runtrace"
)

// Server exposes a Manager over HTTP/JSON — the control and query plane
// of a fleetd instance:
//
//	POST /v1/campaigns            submit a CampaignSpec, returns Status
//	GET  /v1/campaigns            list campaign Statuses
//	GET  /v1/campaigns/{id}       one campaign's Status
//	GET  /v1/campaigns/{id}/series  committed day series (CSV; ?format=json)
//	GET  /v1/campaigns/{id}/ledger  point-in-time wear ledger (CSV; ?format=json)
//	GET  /v1/campaigns/{id}/result  final Aggregate (JSON; 409 until done)
//	GET  /v1/campaigns/{id}/events  journal events (?since=N; ?format=jsonl)
//	GET  /v1/campaigns/{id}/watch   live event stream (SSE; ?since=N)
//	POST /v1/campaigns/{id}/pause
//	POST /v1/campaigns/{id}/resume
//	POST /v1/campaigns/{id}/fork  body ForkOptions, returns the fork's Status
//	GET  /metrics                 ops-domain metrics (Prometheus text format)
//	POST /v1/trace/start          open a runtrace recording window
//	POST /v1/trace/stop           close it (spans stay fetchable)
//	GET  /v1/trace                fetch the window as Chrome trace-event JSON
//	GET  /v1/trace/status         recording state + per-phase wall totals
//	GET  /debug/pprof/...         net/http/pprof (profile/heap/trace/...)
//
// Every query serves committed state under the campaign mutex, so
// polling mid-run never observes a half-merged epoch. Every route runs
// through the obs middleware: panic recovery, request metrics, and (when
// the manager has a logger) a structured log line per request. Mutating
// routes additionally honor the Idempotency-Key header (see idemStore),
// so a client that timed out can retry without double-executing.
type Server struct {
	mgr  *Manager
	mux  *http.ServeMux
	idem *idemStore

	shutdownOnce sync.Once
	shutdown     chan struct{}
}

// NewServer wraps a manager in an HTTP handler.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux(), idem: newIdemStore(), shutdown: make(chan struct{})}
	handle := func(pattern string, h http.HandlerFunc) {
		// The mux pattern doubles as the route label so metric cardinality
		// stays fixed no matter what IDs clients request.
		s.mux.Handle(pattern, obs.Instrument(pattern, mgr.metrics.HTTP, mgr.Logger(), h))
	}
	handle("POST /v1/campaigns", s.idempotent(s.submit))
	handle("GET /v1/campaigns", s.list)
	handle("GET /v1/campaigns/{id}", s.status)
	handle("GET /v1/campaigns/{id}/series", s.series)
	handle("GET /v1/campaigns/{id}/ledger", s.ledger)
	handle("GET /v1/campaigns/{id}/result", s.result)
	handle("GET /v1/campaigns/{id}/events", s.events)
	handle("GET /v1/campaigns/{id}/watch", s.watch)
	handle("POST /v1/campaigns/{id}/pause", s.idempotent(s.pause))
	handle("POST /v1/campaigns/{id}/resume", s.idempotent(s.resume))
	handle("POST /v1/campaigns/{id}/fork", s.idempotent(s.fork))
	handle("GET /metrics", mgr.metrics.Registry.ServeHTTP)
	// Execution tracing (DESIGN.md §14). Start/stop are naturally
	// idempotent — re-starting restarts the window — so they skip the
	// Idempotency-Key machinery.
	handle("POST /v1/trace/start", s.traceStart)
	handle("POST /v1/trace/stop", s.traceStop)
	handle("GET /v1/trace", s.traceFetch)
	handle("GET /v1/trace/status", s.traceStatus)
	// net/http/pprof on the ops plane. CPU profile and execution trace
	// block for ?seconds=N, so they clear the server WriteTimeout the
	// same way the SSE watch does.
	handle("GET /debug/pprof/", noWriteTimeout(httppprof.Index))
	handle("GET /debug/pprof/cmdline", httppprof.Cmdline)
	handle("GET /debug/pprof/profile", noWriteTimeout(httppprof.Profile))
	handle("GET /debug/pprof/symbol", httppprof.Symbol)
	handle("POST /debug/pprof/symbol", httppprof.Symbol)
	handle("GET /debug/pprof/trace", noWriteTimeout(httppprof.Trace))
	return s
}

// noWriteTimeout clears the server's write deadline for one response —
// for handlers that legitimately stream or block (pprof's ?seconds=N
// profile windows), exactly like the SSE watch route.
func noWriteTimeout(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).SetWriteDeadline(time.Time{})
		h(w, r)
	}
}

// TraceStatus is the GET /v1/trace/status (and trace stop) response.
type TraceStatus struct {
	Recording bool         `json:"recording"`
	Spans     int          `json:"spans"`
	Dropped   int64        `json:"dropped"`
	Phases    []PhaseTotal `json:"phases"`
}

// PhaseTotal is one phase's since-process-start wall-time sum.
type PhaseTotal struct {
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// traceStatusNow snapshots the tracer for status/stop responses.
func (s *Server) traceStatusNow() TraceStatus {
	tr := s.mgr.trace
	st := TraceStatus{Recording: tr.Recording(), Spans: tr.SpanCount(), Dropped: tr.Dropped()}
	//flashvet:ignore wallclock ops status endpoint: per-phase wall totals go to the operator, never into campaign results
	totals := tr.Totals()
	for p := runtrace.Phase(0); p < runtrace.NumPhases; p++ {
		st.Phases = append(st.Phases, PhaseTotal{
			Phase: p.String(), Count: totals[p].Count, Seconds: totals[p].Seconds(),
		})
	}
	return st
}

func (s *Server) traceStart(w http.ResponseWriter, r *http.Request) {
	s.mgr.trace.StartRecording()
	writeJSON(w, http.StatusOK, s.traceStatusNow())
}

func (s *Server) traceStop(w http.ResponseWriter, r *http.Request) {
	s.mgr.trace.StopRecording()
	writeJSON(w, http.StatusOK, s.traceStatusNow())
}

func (s *Server) traceStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.traceStatusNow())
}

func (s *Server) traceFetch(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.mgr.trace.WriteChrome(w)
}

// Shutdown releases long-lived SSE watch streams so http.Server.Shutdown
// can finish draining. Idempotent; new watch requests after Shutdown end
// immediately after their replay.
func (s *Server) Shutdown() {
	s.shutdownOnce.Do(func() { close(s.shutdown) })
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// campaign resolves {id} or replies 404.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.mgr.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no campaign %q", id))
		return nil, false
	}
	return c, true
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	c, err := s.mgr.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	campaigns := s.mgr.List()
	out := make([]Status, len(campaigns))
	for i, c := range campaigns {
		out[i] = c.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) series(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	series := c.Series()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, series)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	series.WriteCSV(w)
}

func (s *Server) ledger(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	ledger := c.Ledger()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		ledger.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	ledger.WriteCSV(w)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	agg, final := c.Aggregate()
	if !final {
		writeErr(w, http.StatusConflict, fmt.Errorf("campaign %s is %s; no final result yet", c.ID(), c.State()))
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

// sinceParam parses ?since=N (default 0).
func sinceParam(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad since %q: %w", raw, err)
	}
	return n, nil
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	evs := c.Events(since)
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, e := range evs {
			enc.Encode(e)
		}
		return
	}
	writeJSON(w, http.StatusOK, evs)
}

// watch streams the campaign journal as server-sent events: a replay of
// everything after ?since=, then live events as they append. Each frame
// carries the journal sequence number as the SSE id, so a dropped client
// reconnects with ?since=<last id> and misses nothing.
func (s *Server) watch(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	since, err := sinceParam(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	// The server's WriteTimeout (slowloris protection on every other
	// route) would kill a healthy long-lived stream; clear the deadline
	// for this response only.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(e obs.Event) bool {
		raw, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, raw); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	replay, ch, cancel := c.Journal().Subscribe(since)
	defer cancel()
	for _, e := range replay {
		if !send(e) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.shutdown:
			// Graceful server shutdown: end the stream cleanly so
			// http.Server.Shutdown can drain; the client reconnects to the
			// restarted server from its last seen id.
			return
		case e, open := <-ch:
			if !open {
				// Fell behind the journal's fan-out buffer; the client
				// re-subscribes from its last seen id.
				return
			}
			if !send(e) {
				return
			}
		}
	}
}

func (s *Server) pause(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	c.Pause()
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) resume(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	if err := c.Resume(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) fork(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	var opts ForkOptions
	if err := json.NewDecoder(r.Body).Decode(&opts); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding fork options: %w", err))
		return
	}
	fk, err := s.mgr.Fork(c.ID(), opts)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errRunning) {
			code = http.StatusConflict
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, fk.Status())
}
