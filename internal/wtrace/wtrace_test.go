package wtrace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"flashwear/internal/telemetry"
)

func TestOriginRegistration(t *testing.T) {
	l := New()
	if got := l.Origin("os"); got != OriginOS {
		t.Fatalf(`Origin("os") = %d, want 0`, got)
	}
	a := l.Origin("app.a")
	b := l.Origin("app.b")
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", a, b)
	}
	if again := l.Origin("app.a"); again != a {
		t.Fatalf("re-registering returned %d, want %d", again, a)
	}
	if got := l.Origins(); len(got) != 3 || got[0] != "os" || got[1] != "app.a" || got[2] != "app.b" {
		t.Fatalf("Origins() = %v", got)
	}
}

func TestOriginNameValidation(t *testing.T) {
	l := New()
	for _, bad := range []string{"", "a,b", `a"b`, "a\nb", "a\rb"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Origin(%q) did not panic", bad)
				}
			}()
			l.Origin(bad)
		}()
	}
}

// TestErasePlurality pins the erase attribution rule: plurality owner wins,
// ties break to the lowest origin id, an empty block bills "os", and every
// present origin receives its page-weighted erase share.
func TestErasePlurality(t *testing.T) {
	tr := New()
	a, b := tr.Origin("a"), tr.Origin("b")

	tr.EraseBlockAttrib(0, []Origin{a, a, b})               // a wins 2:1
	tr.EraseBlockAttrib(1, []Origin{a, b, a, b})            // tie -> lowest id (a)
	tr.EraseBlockAttrib(2, nil)                             // empty -> os
	tr.EraseBlockAttrib(3, []Origin{b, b, b, a, Origin(0)}) // b wins

	snap := tr.Snapshot()
	rows := map[string]Row{}
	for _, r := range snap.Rows {
		rows[r.Origin] = r
	}
	if got := rows["a"].Erases; got != 2 {
		t.Errorf("a erases = %d, want 2", got)
	}
	if got := rows["b"].Erases; got != 1 {
		t.Errorf("b erases = %d, want 1", got)
	}
	if got := rows["os"].Erases; got != 1 {
		t.Errorf("os erases = %d, want 1", got)
	}
	if tot := snap.Totals().Erases; tot != 4 {
		t.Errorf("total erases = %d, want exactly one per call", tot)
	}
	if got := rows["a"].ErasePages; got != 2+2+1 {
		t.Errorf("a erase_pages = %d, want 5", got)
	}
	if got := rows["b"].ErasePages; got != 1+2+3 {
		t.Errorf("b erase_pages = %d, want 6", got)
	}
	if got := rows["os"].ErasePages; got != 1 {
		t.Errorf("os erase_pages = %d, want 1", got)
	}
}

func TestSetOriginNests(t *testing.T) {
	tr := New()
	a, b := tr.Origin("a"), tr.Origin("b")
	if prev := tr.SetOrigin(a); prev != OriginOS {
		t.Fatalf("prev = %d, want os", prev)
	}
	if prev := tr.SetOrigin(b); prev != a {
		t.Fatalf("prev = %d, want %d", prev, a)
	}
	tr.SetOrigin(a)
	if tr.Current() != a {
		t.Fatal("nested restore broken")
	}
}

func TestSnapshotAlgebra(t *testing.T) {
	tr := New()
	tr.SetPageSize(4096)
	a := tr.Origin("a")
	tr.SetOrigin(a)
	for i := 0; i < 3; i++ {
		tr.NoteHostPage()
		tr.NoteProgram(a, CauseHost)
	}
	tr.NoteProgram(a, CauseGC)
	s1 := tr.Snapshot()
	if got := s1.Totals().PhysPages; got != 4 {
		t.Fatalf("phys pages = %d, want 4", got)
	}
	if got := s1.Totals().PhysBytes; got != 4*4096 {
		t.Fatalf("phys bytes = %d", got)
	}

	s1.Scale(3)
	if got := s1.Totals().PhysPages; got != 12 {
		t.Fatalf("scaled phys pages = %d, want 12", got)
	}

	// Merge a snapshot with one shared and one new origin.
	tr2 := New()
	tr2.SetPageSize(4096)
	x := tr2.Origin("a")
	y := tr2.Origin("zz")
	tr2.NoteProgram(x, CauseHost)
	tr2.NoteProgram(y, CauseWL)
	s2 := tr2.Snapshot()

	merged := Snapshot{}
	merged.Merge(s1)
	merged.Merge(s2)
	if merged.PageSize != 4096 {
		t.Fatalf("merged page size = %d", merged.PageSize)
	}
	rows := map[string]Row{}
	for _, r := range merged.Rows {
		rows[r.Origin] = r
	}
	if got := rows["a"].HostPrograms; got != 9+1 {
		t.Errorf("merged a host programs = %d, want 10", got)
	}
	if got := rows["zz"].WLPrograms; got != 1 {
		t.Errorf("merged zz wl programs = %d, want 1", got)
	}
	// Rows stay sorted by name.
	for i := 1; i < len(merged.Rows); i++ {
		if merged.Rows[i-1].Origin >= merged.Rows[i].Origin {
			t.Fatalf("rows unsorted: %q before %q", merged.Rows[i-1].Origin, merged.Rows[i].Origin)
		}
	}
	// Merging different page sizes poisons PageSize to 0.
	odd := Snapshot{PageSize: 512, Rows: []Row{{Origin: "a"}}}
	merged.Merge(odd)
	if merged.PageSize != 0 {
		t.Fatalf("mixed-geometry merge kept page size %d", merged.PageSize)
	}

	if top := s1.Top(); top != "a" {
		t.Fatalf("Top = %q", top)
	}
	var empty Snapshot
	if top := empty.Top(); top != "" {
		t.Fatalf("empty Top = %q", top)
	}
}

// TestWriteCSVTotals renders a ledger and re-sums the origin rows against
// the TOTAL row — the same check cmd/wtracecheck applies to CLI output.
func TestWriteCSVTotals(t *testing.T) {
	tr := New()
	tr.SetPageSize(4096)
	a, b := tr.Origin("a"), tr.Origin("b")
	tr.SetOrigin(a)
	tr.NoteHostPage()
	tr.NoteProgram(a, CauseHost)
	tr.NoteProgram(b, CauseGC)
	tr.EraseBlockAttrib(0, []Origin{a, b, b})

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3+1 { // header, os/a/b, TOTAL
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if lines[0] != strings.TrimSpace(csvHeader) {
		t.Fatalf("header = %q", lines[0])
	}
	nCols := len(strings.Split(lines[0], ","))
	sums := make([]int64, nCols-2) // integer columns between origin and write_amp
	var total []string
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != nCols {
			t.Fatalf("row %q has %d fields, want %d", line, len(fields), nCols)
		}
		if fields[0] == "TOTAL" {
			total = fields
			continue
		}
		for i := range sums {
			var v int64
			fmt.Sscan(fields[i+1], &v)
			sums[i] += v
		}
	}
	if total == nil {
		t.Fatal("no TOTAL row")
	}
	for i, want := range sums {
		var got int64
		fmt.Sscan(total[i+1], &got)
		if got != want {
			t.Fatalf("TOTAL column %d = %d, rows sum to %d", i+1, got, want)
		}
	}

	buf.Reset()
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PageSize int64 `json:"page_size"`
		Rows     []Row `json:"rows"`
		Total    Row   `json:"total"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output invalid: %v", err)
	}
	if doc.PageSize != 4096 || len(doc.Rows) != 3 || doc.Total.Origin != "TOTAL" {
		t.Fatalf("JSON doc = %+v", doc)
	}
}

func TestWriteLabeledCSV(t *testing.T) {
	tr := New()
	a := tr.Origin("a")
	tr.NoteProgram(a, CauseHost)
	snap := tr.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteLabeledCSV(&buf, "run1", true); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteLabeledCSV(&buf, "run2", false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3+3 { // header + (os,a,TOTAL) x 2
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "label,origin,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "run1,") || !strings.HasPrefix(lines[4], "run2,") {
		t.Fatalf("labels wrong:\n%s", buf.String())
	}
}

// TestChromeExport checks the trace file is standard JSON with the
// expected processes, thread metadata, and event phases.
func TestChromeExport(t *testing.T) {
	tr := New()
	tr.Now = func() time.Duration { return 42 * time.Microsecond }
	tr.EnableEvents(16)
	a := tr.Origin("camera")
	tr.SetOrigin(a)
	tr.EventHostWrite(4096, 8192, time.Millisecond, 10*time.Microsecond)
	tr.EventRelocate(CauseGC, 3, 12)
	tr.EventRelocate(CauseWL, 4, 7)
	tr.EraseBlockAttrib(5, []Origin{a})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Process("dev0")); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	var procNamed, hostThread bool
	for _, ev := range doc.TraceEvents {
		counts[ev.Name]++
		if ev.Name == "process_name" && ev.Ph == "M" {
			procNamed = true
			if ev.Args["name"] != "dev0" {
				t.Errorf("process_name = %v", ev.Args["name"])
			}
		}
		if ev.Name == "thread_name" && ev.Ph == "M" && ev.Args["name"] == "host:camera" {
			hostThread = true
		}
	}
	if !procNamed || !hostThread {
		t.Fatalf("metadata missing (process=%v hostThread=%v):\n%s", procNamed, hostThread, buf.String())
	}
	if counts["write"] != 1 || counts["gc.relocate"] != 1 || counts["wl.migrate"] != 1 || counts["erase"] != 1 {
		t.Fatalf("event counts = %v", counts)
	}
}

func TestEventCapDrops(t *testing.T) {
	tr := New()
	tr.EnableEvents(2)
	for i := 0; i < 5; i++ {
		tr.EventRelocate(CauseGC, i, 1)
	}
	if got := tr.dropped; got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Process("dev")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("dropped")) {
		t.Fatal("dropped events not surfaced in the trace")
	}
}

func TestAttachTelemetry(t *testing.T) {
	tr := New()
	reg := telemetry.NewRegistry()
	tr.Attach(reg)
	a := tr.Origin("a")
	tr.NoteProgram(a, CauseHost)
	tr.NoteProgram(a, CauseGC)
	tr.EraseBlockAttrib(0, []Origin{a})
	snap := reg.Snapshot(0)
	check := func(name string, want int64) {
		t.Helper()
		i := slices.IndexFunc(snap.Points, func(p telemetry.Point) bool { return p.Name == name })
		if i < 0 {
			t.Fatalf("%s not registered", name)
		}
		if got := snap.Points[i].Int; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check("wtrace.origins", 2)
	check("wtrace.phys_pages", 2)
	check("wtrace.erases", 1)
	check("wtrace.events", 0)
	check("wtrace.events_dropped", 0)
}

// TestWriteChromeGolden pins WriteChrome's bytes over one small fixed
// input — a host write, a gc relocation, an erase and a dropped count — so
// the encoder can move without the trace format moving with it.
func TestWriteChromeGolden(t *testing.T) {
	tr := New()
	tr.Now = func() time.Duration { return 42 * time.Microsecond }
	tr.EnableEvents(3)
	cam := tr.Origin("camera")
	tr.SetOrigin(cam)
	tr.EventHostWrite(4096, 8192, time.Millisecond, 10*time.Microsecond)
	tr.EventRelocate(CauseGC, 3, 12)
	tr.EraseBlockAttrib(5, []Origin{cam, cam})
	tr.EventRelocate(CauseWL, 4, 7) // past the cap: dropped
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Process("dev0")); err != nil {
		t.Fatal(err)
	}
	const golden = `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"dev0"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"ftl:gc"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"ftl:wl"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"nand:erase"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":100,"args":{"name":"host:os"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":101,"args":{"name":"host:camera"}},` +
		`{"name":"write","ph":"X","pid":1,"tid":101,"ts":1000,"dur":10,"args":{"origin":"camera","off":4096,"bytes":8192}},` +
		`{"name":"gc.relocate","ph":"i","pid":1,"tid":2,"ts":42,"s":"t","args":{"origin":"os","block":3,"pages":12}},` +
		`{"name":"erase","ph":"i","pid":1,"tid":5,"ts":42,"s":"t","args":{"origin":"camera","block":5,"pages":2}},` +
		`{"name":"events dropped: 1","ph":"i","s":"g","pid":1,"tid":0,"ts":0,"args":{}}` +
		"]}\n"
	if got := buf.String(); got != golden {
		t.Errorf("WriteChrome =\n%s\nwant\n%s", got, golden)
	}
}
