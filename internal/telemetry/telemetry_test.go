package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"

	"flashwear/internal/simclock"
)

func TestName(t *testing.T) {
	if got := Name("nand.programs"); got != "nand.programs" {
		t.Errorf("Name = %q", got)
	}
	// Labels are sorted into one canonical spelling.
	a := Name("nand.programs", "chip", "main", "die", "0")
	b := Name("nand.programs", "die", "0", "chip", "main")
	if a != b || a != "nand.programs{chip=main,die=0}" {
		t.Errorf("Name not canonical: %q vs %q", a, b)
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"ftl.host_pages_written":        true,
		"nand.programs{chip=main}":      true,
		"a.b{k=v,x=y}":                  true,
		"":                              false,
		"Upper.case":                    false,
		"spaces bad":                    false,
		"trailing.brace}":               false,
		"empty.labels{}":                false,
		"bad.label{k}":                  false,
		"unterminated{k=v":              false,
		"device.wear_level{pool=b}":     true,
		"nand.program_fails{chip=main}": true,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.CounterFunc("dup.name", func() int64 { return 0 })
	mustPanic("duplicate", func() { reg.GaugeFunc("dup.name", func() float64 { return 0 }) })
	mustPanic("invalid", func() { reg.GaugeFunc("NOT VALID", func() float64 { return 0 }) })
	mustPanic("odd labels", func() { Name("x", "k") })
}

func TestSnapshotOrderAndValues(t *testing.T) {
	reg := NewRegistry()
	var count int64
	level := 0.0
	reg.CounterFunc("a.count", func() int64 { return count })
	reg.CounterFunc("b.pulled", func() int64 { return 7 })
	reg.GaugeFunc("c.level", func() float64 { return level })
	reg.GaugeFunc("d.pulled", func() float64 { return 2.5 })

	// Instruments read their source at snapshot time, not at registration.
	count, level = 3, 1.25

	snap := reg.Snapshot(time.Hour)
	if snap.At != time.Hour {
		t.Errorf("At = %v", snap.At)
	}
	wantNames := []string{"a.count", "b.pulled", "c.level", "d.pulled"}
	if len(snap.Points) != len(wantNames) {
		t.Fatalf("got %d points, want %d", len(snap.Points), len(wantNames))
	}
	for i, name := range wantNames {
		if snap.Points[i].Name != name {
			t.Errorf("point %d = %q, want %q (registration order)", i, snap.Points[i].Name, name)
		}
	}
	if v := snap.Points[0].Int; v != 3 {
		t.Errorf("counter = %d, want 3", v)
	}
	if v := snap.Points[1].Int; v != 7 {
		t.Errorf("counterfunc = %d, want 7", v)
	}
	if v := snap.Points[2].Float; v != 1.25 {
		t.Errorf("gauge = %g, want 1.25", v)
	}
	if v := snap.Points[3].Value(); v != 2.5 {
		t.Errorf("gaugefunc = %g, want 2.5", v)
	}
}

func TestSamplerCadence(t *testing.T) {
	clock := simclock.New()
	reg := NewRegistry()
	var ticks int64
	reg.CounterFunc("clock.ticks", func() int64 { return ticks })
	reg.GaugeFunc("clock.hours", func() float64 { return clock.Now().Hours() })

	s := NewSampler(reg, clock, time.Hour)
	for i := 0; i < 4; i++ {
		ticks++
		clock.Advance(time.Hour) // sample fires exactly at each hour mark
	}
	got := s.Series()
	if len(got.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(got.Rows))
	}
	for i, row := range got.Rows {
		wantAt := time.Duration(i+1) * time.Hour
		if row.At != wantAt {
			t.Errorf("row %d At = %v, want %v", i, row.At, wantAt)
		}
		if row.Values[0] != float64(i+1) {
			t.Errorf("row %d ticks = %g, want %d", i, row.Values[0], i+1)
		}
	}

	// Final at an already-sampled instant is a no-op; after more progress
	// it appends exactly one row at the current time.
	s.Final()
	if len(s.Series().Rows) != 4 {
		t.Errorf("Final at sampled instant added a row")
	}
	clock.Advance(30 * time.Minute)
	s.Final()
	rows := s.Series().Rows
	if len(rows) != 5 || rows[4].At != 4*time.Hour+30*time.Minute {
		t.Errorf("Final did not append end-state row: %d rows", len(rows))
	}

	// Stop cancels future samples.
	s.Stop()
	clock.Advance(5 * time.Hour)
	if len(s.Series().Rows) != 5 {
		t.Errorf("sampler kept sampling after Stop")
	}
}

func TestSeriesCSVAndJSON(t *testing.T) {
	clock := simclock.New()
	reg := NewRegistry()
	var n int64
	reg.CounterFunc("w.pages", func() int64 { return n })
	reg.GaugeFunc("w.level", func() float64 { return float64(n) / 2 })
	s := NewSampler(reg, clock, time.Hour)
	n = 2
	clock.Advance(time.Hour)
	n = 4
	clock.Advance(time.Hour)

	var csv strings.Builder
	if err := s.Series().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wantCSV := "sim_hours,w.pages,w.level\n1,2,1\n2,4,2\n"
	if csv.String() != wantCSV {
		t.Errorf("CSV = %q, want %q", csv.String(), wantCSV)
	}

	var js strings.Builder
	if err := s.Series().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	wantJS := `{"columns":["w.pages","w.level"],"kinds":["counter","gauge"],` +
		`"rows":[{"sim_hours":1,"values":[2,1]},{"sim_hours":2,"values":[4,2]}]}` + "\n"
	if js.String() != wantJS {
		t.Errorf("JSON = %q, want %q", js.String(), wantJS)
	}
}

func TestSeriesJSONNonFinite(t *testing.T) {
	clock := simclock.New()
	reg := NewRegistry()
	reg.GaugeFunc("bad.gauge", func() float64 { return math.Inf(1) })
	s := NewSampler(reg, clock, time.Hour)
	clock.Advance(time.Hour)
	var js strings.Builder
	if err := s.Series().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"values":[null]`) {
		t.Errorf("non-finite gauge not nulled in JSON: %s", js.String())
	}
}
