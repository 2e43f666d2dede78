package obs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashwear/internal/hostio"
)

func TestRegistryPrometheusRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops done.")
	c.Add(3)
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(2)
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	v.With("GET /x", "200").Add(2)
	v.With("GET /x", "500").Inc()
	hv := r.HistogramVec("test_route_seconds", "Route latency.", []float64{1}, "route")
	hv.With("GET /x").Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_ops_total counter\ntest_ops_total 3\n",
		"# TYPE test_depth gauge\ntest_depth 2\n",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_count 3",
		`test_requests_total{route="GET /x",code="200"} 2`,
		`test_requests_total{route="GET /x",code="500"} 1`,
		`test_route_seconds_bucket{route="GET /x",le="1"} 1`,
		`test_route_seconds_sum{route="GET /x"} 0.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name regardless of registration order.
	if strings.Index(out, "test_depth") > strings.Index(out, "test_latency_seconds") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestHistogramTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "t", DurationBuckets)
	stop := h.Time()
	stop()
	if h.Count() != 1 {
		t.Fatalf("timer observed %d samples, want 1", h.Count())
	}
}

func TestJournalPersistAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "events.jsonl")
	j, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Event{Type: "tick", Day: i + 1}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	j2, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	evs := j2.Events(0)
	if len(evs) != 3 || evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("replay = %+v", evs)
	}
	if got := j2.Events(2); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("Events(2) = %+v", got)
	}
	// Appends continue the sequence with no gap.
	e, err := j2.Append(Event{Type: "tick", Day: 4})
	if err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if e.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", e.Seq)
	}
	j2.Close()
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: "a"})
	j.Append(Event{Type: "b"})
	j.Close()

	// Simulate a crash mid-append: a torn, non-JSON tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"type":"tor`)
	f.Close()

	j2, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := j2.LastSeq(); got != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", got)
	}
	e, err := j2.Append(Event{Type: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("seq after torn-tail recovery = %d, want 3 (contiguous)", e.Seq)
	}
	j2.Close()

	// The recovered file must itself replay cleanly.
	j3, err := OpenJournalFS(hostio.OS{}, path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if got := len(j3.Events(0)); got != 3 {
		t.Fatalf("events after recovery = %d, want 3", got)
	}
	j3.Close()
}

func TestJournalRejectsSeqGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	os.WriteFile(path, []byte(`{"seq":1,"type":"a"}`+"\n"+`{"seq":3,"type":"b"}`+"\n"), 0o644)
	if _, err := OpenJournalFS(hostio.OS{}, path); err == nil {
		t.Fatal("journal with a sequence gap opened cleanly, want error")
	}
}

func TestJournalSubscribe(t *testing.T) {
	j, err := OpenJournalFS(hostio.OS{}, "")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: "old"})
	replay, ch, cancel := j.Subscribe(0)
	defer cancel()
	if len(replay) != 1 || replay[0].Type != "old" {
		t.Fatalf("replay = %+v", replay)
	}
	j.Append(Event{Type: "new"})
	e := <-ch
	if e.Type != "new" || e.Seq != 2 {
		t.Fatalf("live event = %+v", e)
	}
	cancel()
	j.Append(Event{Type: "after-cancel"}) // must not block or panic
}

func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Log("http", "route", "GET /v1/campaigns/{id}", "status", 200)
	line := buf.String()
	if !strings.Contains(line, "event=http") || !strings.Contains(line, `route="GET /v1/campaigns/{id}"`) ||
		!strings.Contains(line, "status=200") || !strings.HasPrefix(line, "ts=") {
		t.Fatalf("log line = %q", line)
	}
	var nilLogger *Logger
	nilLogger.Log("noop") // nil logger is silent, not a crash
}

func TestInstrumentPanicRecovery(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "test")
	var logBuf bytes.Buffer
	log := NewLogger(&logBuf)
	h := Instrument("GET /boom", m, log, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("panic response body = %q, want error JSON", rec.Body.String())
	}
	if m.Panics.Value() != 1 {
		t.Fatalf("panic counter = %d, want 1", m.Panics.Value())
	}
	if c := m.Requests.With("GET /boom", "GET", "500"); c.Value() != 1 {
		t.Fatalf("request counter = %d, want 1", c.Value())
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Fatalf("panic log missing message: %q", logBuf.String())
	}
}

func TestInstrumentCountsAndLogs(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "test")
	h := Instrument("GET /ok", m, nil, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if c := m.Requests.With("GET /ok", "GET", "418"); c.Value() != 1 {
		t.Fatalf("request counter = %d, want 1", c.Value())
	}
	if m.Latency.With("GET /ok").Count() != 1 {
		t.Fatal("latency histogram empty")
	}
}
