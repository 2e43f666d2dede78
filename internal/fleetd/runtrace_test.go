package fleetd

// Execution-tracing pins (DESIGN.md §14). The load-bearing invariant is
// negative: recording wall-clock spans must be invisible in every
// determinism fingerprint — including under host-fault injection and
// crash/resume — while the positive checks require the trace itself to
// be well-formed and to reconcile with the /metrics phase histograms.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashwear/internal/runtrace"
)

// runTraced runs spec to completion on a fresh manager whose tracer is
// recording from before the submit, so every span of the run lands in
// the buffer.
func runTraced(t *testing.T, dataDir string, spec CampaignSpec) (*Manager, *Campaign) {
	t.Helper()
	m, err := NewManager(dataDir)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m.Trace().StartRecording()
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	m.Trace().StopRecording()
	return m, c
}

// TestTracingInvisibleInResults is the core §14 pin: a campaign run with
// span recording on produces series/ledger/aggregate bytes identical to
// an untraced run, and the trace is non-trivially populated.
func TestTracingInvisibleInResults(t *testing.T) {
	spec := tinySpec()
	spec.Shards = 2
	spec.CheckpointEvery = 2
	spec.Faults = "read=2e-4,cut-every=3000000"
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	m, c := runTraced(t, t.TempDir(), spec)
	if got := fingerprint(t, c); !bytes.Equal(ref, got) {
		t.Fatal("tracing-on fingerprint differs from tracing-off run")
	}
	if n := m.Trace().SpanCount(); n == 0 {
		t.Fatal("traced run recorded no spans")
	}
	tot := m.Trace().Totals()
	// 4 devices x 3 epochs (5 days at cadence 2) = 12 device-epochs.
	if got := tot[runtrace.PhaseSimulate].Count; got != 12 {
		t.Errorf("simulate span count = %d, want 12", got)
	}
	for _, p := range []runtrace.Phase{
		runtrace.PhaseCheckpointEncode, runtrace.PhaseCheckpointFsync,
		runtrace.PhaseJournal, runtrace.PhaseAggregate, runtrace.PhaseAlertEval,
	} {
		if tot[p].Count == 0 {
			t.Errorf("phase %s recorded no spans", p)
		}
	}
}

// TestTracingInvisibleUnderHostFaults repeats the pin over a fault-
// injecting filesystem: retries and degraded checkpointing add extra
// spans, and still nothing leaks into the results.
func TestTracingInvisibleUnderHostFaults(t *testing.T) {
	spec := tortureSpec()
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	m, _ := tortureManager(t, t.TempDir(), "seed=7,class=checkpoint,fault=enospc,on=write,p=0.3|class=journal,fault=torn,on=write,p=0.3")
	m.Trace().StartRecording()
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit under faults: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed under faults: %v", err)
	}
	if got := fingerprint(t, c); !bytes.Equal(ref, got) {
		t.Fatal("tracing-on fingerprint differs under host faults")
	}
	if m.Trace().SpanCount() == 0 {
		t.Fatal("traced faulted run recorded no spans")
	}
}

// TestTracingInvisibleAcrossCrashResume interrupts a recording run,
// adopts the directory with a fresh (also recording) manager, resumes,
// and requires byte-identical results to an untraced clean run.
func TestTracingInvisibleAcrossCrashResume(t *testing.T) {
	spec := tinySpec()
	spec.Shards = 2
	spec.CheckpointEvery = 2
	ref := fingerprint(t, runToEnd(t, t.TempDir(), spec))

	dir := t.TempDir()
	m1, err := NewManager(dir)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m1.Trace().StartRecording()
	c1, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	interrupt(c1)
	m2, err := NewManager(dir)
	if err != nil {
		t.Fatalf("NewManager (restart): %v", err)
	}
	m2.Trace().StartRecording()
	c2, ok := m2.Get(c1.ID())
	if !ok {
		t.Fatalf("restarted manager did not adopt campaign %s", c1.ID())
	}
	if err := c2.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := c2.Wait(); err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}
	if got := fingerprint(t, c2); !bytes.Equal(ref, got) {
		t.Fatal("tracing-on crash/resume fingerprint differs from clean untraced run")
	}
}

// chromePhases sums the 'X' spans of a Chrome trace by phase name.
func chromePhases(t *testing.T, raw []byte) (count map[string]int64, micros map[string]int64) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	count, micros = map[string]int64{}, map[string]int64{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			count[e.Name]++
			micros[e.Name] += e.Dur
		}
	}
	return count, micros
}

// TestPhaseTotalsReconcile is the acceptance-criteria cross-check: for a
// run recorded end to end, the Chrome trace's per-phase totals, the
// tracer's integer-nanosecond totals, and the fleetd_phase_seconds
// histograms must all tell the same story.
func TestPhaseTotalsReconcile(t *testing.T) {
	spec := tinySpec()
	spec.Shards = 2
	spec.CheckpointEvery = 2
	m, _ := runTraced(t, t.TempDir(), spec)

	totals := m.Trace().Totals()
	var buf bytes.Buffer
	if err := m.Trace().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	counts, micros := chromePhases(t, buf.Bytes())

	for p := runtrace.Phase(0); p < runtrace.NumPhases; p++ {
		name := p.String()
		// Tracer totals vs histogram: same observations, one summed as
		// int64 ns, one as float64 seconds — equal up to float rounding.
		h := m.metrics.phase[p]
		if got, want := int64(h.Count()), totals[p].Count; got != want {
			t.Errorf("phase %s: histogram count %d != tracer count %d", name, got, want)
		}
		if diff := math.Abs(h.Sum() - totals[p].Seconds()); diff > 1e-6*float64(totals[p].Count)+1e-9 {
			t.Errorf("phase %s: histogram sum %.9fs != tracer total %.9fs (diff %.9g)",
				name, h.Sum(), totals[p].Seconds(), diff)
		}
		// Chrome trace vs tracer totals: recording covered the whole
		// run, so counts match exactly; durations truncate to whole
		// microseconds per span.
		if got, want := counts[name], totals[p].Count; got != want {
			t.Errorf("phase %s: chrome span count %d != tracer count %d", name, got, want)
		}
		traceSec := float64(micros[name]) / 1e6
		slack := float64(totals[p].Count+1) / 1e6 // 1µs truncation per span
		if diff := math.Abs(traceSec - totals[p].Seconds()); diff > slack {
			t.Errorf("phase %s: chrome total %.9fs vs tracer total %.9fs (diff %.9g > slack %.9g)",
				name, traceSec, totals[p].Seconds(), diff, slack)
		}
	}
}

// TestTraceHTTPEndpoints drives the ops-plane trace window over HTTP:
// status → start → (campaign runs) → stop → fetch, plus the pprof mounts.
func TestTraceHTTPEndpoints(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	getStatus := func(path, method string) TraceStatus {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
		var st TraceStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
		return st
	}

	if st := getStatus("/v1/trace/status", http.MethodGet); st.Recording {
		t.Fatal("recording before start")
	}
	if st := getStatus("/v1/trace/start", http.MethodPost); !st.Recording {
		t.Fatal("start did not begin recording")
	}

	spec := tinySpec()
	spec.CheckpointEvery = 2
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}

	st := getStatus("/v1/trace/stop", http.MethodPost)
	if st.Recording {
		t.Fatal("stop did not end recording")
	}
	if st.Spans == 0 {
		t.Fatal("no spans captured over HTTP window")
	}
	if len(st.Phases) != int(runtrace.NumPhases) {
		t.Fatalf("status has %d phases, want %d", len(st.Phases), runtrace.NumPhases)
	}

	resp, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatalf("GET /v1/trace: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q, want application/json", ct)
	}
	counts, _ := chromePhases(t, raw)
	if counts["simulate"] == 0 {
		t.Fatalf("fetched trace has no simulate spans: %s", string(raw[:min(len(raw), 200)]))
	}

	// pprof is mounted on the same plane.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
	// The index page lists the runtime profiles.
	resp2, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	idx, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(idx), "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
}
