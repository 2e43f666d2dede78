package runtrace

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"flashwear/internal/obs"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(PhaseSimulate, 0, 0, 0)
	sp.End() // must not panic
}

func TestTotalsAndObserverAlwaysOn(t *testing.T) {
	var mu sync.Mutex
	seen := map[Phase]int{}
	tr := New(func(p Phase, s float64) {
		mu.Lock()
		seen[p]++
		mu.Unlock()
		if s < 0 {
			t.Errorf("negative observed duration %v", s)
		}
	})
	// Recording is OFF: totals and observer must still fire.
	for i := 0; i < 3; i++ {
		sp := tr.Begin(PhaseJournal, -1, 7, -1)
		sp.End()
	}
	tot := tr.Totals()
	if tot[PhaseJournal].Count != 3 {
		t.Fatalf("journal count = %d, want 3", tot[PhaseJournal].Count)
	}
	if seen[PhaseJournal] != 3 {
		t.Fatalf("observer fired %d times, want 3", seen[PhaseJournal])
	}
	if tr.SpanCount() != 0 {
		t.Fatalf("spans buffered while not recording: %d", tr.SpanCount())
	}
}

func TestRecordingWindowAndCap(t *testing.T) {
	tr := New(nil)
	tr.StartRecording()
	if !tr.Recording() {
		t.Fatal("Recording() = false after StartRecording")
	}
	for i := 0; i < maxSpans+2; i++ {
		tr.Begin(PhaseSimulate, 1, 2, i).End()
	}
	tr.StopRecording()
	if got := tr.SpanCount(); got != maxSpans {
		t.Fatalf("SpanCount = %d, want cap %d", got, maxSpans)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// A new window clears the buffer and the drop counter.
	tr.StartRecording()
	if tr.SpanCount() != 0 || tr.Dropped() != 0 {
		t.Fatalf("StartRecording did not reset: %d spans, %d dropped", tr.SpanCount(), tr.Dropped())
	}
	// Spans still count toward totals even when the buffer overflowed.
	if tot := tr.Totals(); tot[PhaseSimulate].Count != maxSpans+2 {
		t.Fatalf("simulate total count = %d, want %d", tot[PhaseSimulate].Count, maxSpans+2)
	}
}

// chromeDoc mirrors just enough of the trace-event format to validate.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Args struct {
			Name   string `json:"name"`
			Epoch  *int   `json:"epoch"`
			Device *int   `json:"device"`
		} `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(nil)
	tr.StartRecording()
	sp := tr.Begin(PhaseSimulate, 0, 3, 11)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tr.Begin(PhaseAggregate, -1, 3, -1).End()
	tr.StopRecording()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome produced invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, metas int
	var simDur int64
	procs := map[int]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name == "process_name" {
				procs[e.Pid] = e.Args.Name
			}
		case "X":
			spans++
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("negative ts/dur in span %+v", e)
			}
			if e.Name == "simulate" {
				simDur = e.Dur
				if e.Args.Device == nil || *e.Args.Device != 11 {
					t.Errorf("simulate span missing device arg: %+v", e)
				}
			}
			if e.Name == "aggregate" && e.Args.Device != nil {
				t.Errorf("campaign-level span should omit device arg: %+v", e)
			}
		}
	}
	if spans != 2 {
		t.Fatalf("got %d 'X' spans, want 2", spans)
	}
	if simDur < 1000 {
		t.Fatalf("simulate dur = %dµs, want >= 1000 (slept 2ms)", simDur)
	}
	if procs[pidCampaign] != "campaign" {
		t.Fatalf("pid %d named %q, want campaign", pidCampaign, procs[pidCampaign])
	}
	if procs[pidShard0] != "shard 0" {
		t.Fatalf("pid %d named %q, want 'shard 0'", pidShard0, procs[pidShard0])
	}
	if metas == 0 {
		t.Fatal("no metadata events")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(func(Phase, float64) {})
	tr.StartRecording()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Begin(Phase(i%int(NumPhases)), g, i, i).End()
			}
		}(g)
	}
	wg.Wait()
	tr.StopRecording()
	if got := tr.SpanCount(); got != 400 {
		t.Fatalf("SpanCount = %d, want 400", got)
	}
	var n int64
	for _, pt := range tr.Totals() {
		n += pt.Count
	}
	if n != 400 {
		t.Fatalf("total count = %d, want 400", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace not valid JSON")
	}
}

func TestDoAttachesPprofLabels(t *testing.T) {
	var shard, phase string
	Do(context.Background(), func(ctx context.Context) {
		pprof.ForLabels(ctx, func(k, v string) bool {
			switch k {
			case "shard":
				shard = v
			case "phase":
				phase = v
			}
			return true
		})
	}, "shard", "3", "phase", PhaseSimulate.String())
	if shard != "3" || phase != "simulate" {
		t.Fatalf("labels = shard %q phase %q", shard, phase)
	}
}

func TestRuntimeGaugesRender(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterRuntimeGauges(reg, "fleetd")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, fam := range []string{
		"fleetd_runtime_goroutines",
		"fleetd_runtime_heap_alloc_bytes",
		"fleetd_runtime_heap_sys_bytes",
		"fleetd_runtime_gc_pause_seconds_total",
		"fleetd_runtime_gc_cycles_total",
	} {
		if !strings.Contains(out, "# HELP "+fam+" ") ||
			!strings.Contains(out, "# TYPE "+fam+" gauge") ||
			!strings.Contains(out, "\n"+fam+" ") {
			t.Errorf("family %s missing or malformed in:\n%s", fam, out)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"simulate", "checkpoint_encode", "checkpoint_fsync", "journal", "aggregate", "alert_eval"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want[p])
		}
	}
	if Phase(200).String() != "unknown" {
		t.Errorf("out-of-range phase = %q", Phase(200).String())
	}
}

// TestWriteChromeGolden pins WriteChrome's bytes over fixed spans — two
// shards with two phases each, one campaign-level span and a dropped
// count — so the encoder can move without the trace format moving with it.
func TestWriteChromeGolden(t *testing.T) {
	tr := New(nil)
	us := time.Microsecond
	tr.spans = []Span{
		{Phase: PhaseSimulate, Shard: 0, Epoch: 1, Device: 7, Start: 10 * us, Dur: 200 * us},
		{Phase: PhaseCheckpointEncode, Shard: 0, Epoch: 1, Device: -1, Start: 210 * us, Dur: 30 * us},
		{Phase: PhaseSimulate, Shard: 1, Epoch: 1, Device: 9, Start: 12 * us, Dur: 180 * us},
		{Phase: PhaseCheckpointEncode, Shard: 1, Epoch: 1, Device: -1, Start: 192 * us, Dur: 25 * us},
		{Phase: PhaseAggregate, Shard: -1, Epoch: 1, Device: -1, Start: 240 * us, Dur: 5 * us},
	}
	tr.dropped = 2
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	threads := func(pid string) string {
		var b strings.Builder
		for p := Phase(0); p < NumPhases; p++ {
			b.WriteString(`{"name":"thread_name","ph":"M","pid":` + pid + `,"tid":` +
				string(rune('1'+p)) + `,"args":{"name":"` + p.String() + `"}},`)
		}
		return b.String()
	}
	golden := `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"campaign"}},` + threads("1") +
		`{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"shard 0"}},` + threads("2") +
		`{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"shard 1"}},` + threads("3") +
		`{"name":"simulate","ph":"X","pid":2,"tid":1,"ts":10,"dur":200,"args":{"epoch":1,"device":7}},` +
		`{"name":"checkpoint_encode","ph":"X","pid":2,"tid":2,"ts":210,"dur":30,"args":{"epoch":1}},` +
		`{"name":"simulate","ph":"X","pid":3,"tid":1,"ts":12,"dur":180,"args":{"epoch":1,"device":9}},` +
		`{"name":"checkpoint_encode","ph":"X","pid":3,"tid":2,"ts":192,"dur":25,"args":{"epoch":1}},` +
		`{"name":"aggregate","ph":"X","pid":1,"tid":5,"ts":240,"dur":5,"args":{"epoch":1}},` +
		`{"name":"spans dropped: 2","ph":"i","s":"g","pid":1,"tid":0,"ts":0,"args":{}}` +
		"]}\n"
	if got := buf.String(); got != golden {
		t.Errorf("WriteChrome =\n%s\nwant\n%s", got, golden)
	}
}
