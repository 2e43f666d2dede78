package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fakeClock drives a Recorder deterministically: every reading is set by
// the test.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) recorder() *Recorder {
	return &Recorder{now: func() time.Duration { return c.t }}
}

func TestSelfTime(t *testing.T) {
	const ms = time.Millisecond
	tests := []struct {
		name  string
		build func(c *fakeClock, r *Recorder)
		want  map[string]time.Duration // self time by span name
	}{
		{
			name: "nesting: a parent keeps what its child and grandchild do not cover",
			build: func(c *fakeClock, r *Recorder) {
				root := r.Root("root") // 0..100
				c.t = 10 * ms
				child := root.Start("child") // 10..70
				c.t = 20 * ms
				grand := child.Start("grand") // 20..50
				c.t = 50 * ms
				grand.End()
				c.t = 70 * ms
				child.End()
				c.t = 100 * ms
				root.End()
			},
			want: map[string]time.Duration{"root": 40 * ms, "child": 30 * ms, "grand": 30 * ms},
		},
		{
			name: "siblings: each is subtracted once, gaps stay with the parent",
			build: func(c *fakeClock, r *Recorder) {
				root := r.Root("root") // 0..100
				for _, iv := range [][2]time.Duration{{10, 30}, {30, 45}, {60, 90}} {
					c.t = iv[0] * ms
					s := root.Start("sib")
					c.t = iv[1] * ms
					s.End()
				}
				c.t = 100 * ms
				root.End()
			},
			want: map[string]time.Duration{"root": 35 * ms, "sib": 65 * ms},
		},
		{
			name: "overlapping siblings (concurrent lanes) are merged, not double-counted",
			build: func(c *fakeClock, r *Recorder) {
				root := r.Root("root") // 0..100
				c.t = 10 * ms
				a := root.StartLane("a", 1) // 10..60
				c.t = 40 * ms
				b := root.StartLane("b", 2) // 40..80
				c.t = 60 * ms
				a.End()
				c.t = 80 * ms
				b.End()
				c.t = 100 * ms
				root.End()
			},
			want: map[string]time.Duration{"root": 30 * ms, "a": 50 * ms, "b": 40 * ms},
		},
		{
			name: "zero-length spans: cost nothing, never go negative",
			build: func(c *fakeClock, r *Recorder) {
				root := r.Root("root") // 0..10
				c.t = 5 * ms
				root.Start("instant").End()
				root.Start("never-ended")
				c.t = 10 * ms
				root.End()
				r.Root("empty-root").End()
			},
			want: map[string]time.Duration{"root": 10 * ms, "instant": 0, "never-ended": 0, "empty-root": 0},
		},
		{
			name: "aggregate children are laid end to end and clipped to the parent",
			build: func(c *fakeClock, r *Recorder) {
				root := r.Root("root") // 0..100
				root.Charge("write", 1000, 30*ms)
				root.Charge("sync", 10, 20*ms)
				root.Charge("nothing", 0, 5*ms) // zero calls: not recorded
				c.t = 100 * ms
				root.End()
				short := r.Root("short") // 100..110, charged more than it lasted
				short.Charge("over", 3, 50*ms)
				c.t = 110 * ms
				short.End()
			},
			want: map[string]time.Duration{"root": 50 * ms, "write": 30 * ms, "sync": 20 * ms, "short": 0, "over": 50 * ms},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := &fakeClock{}
			r := c.recorder()
			tc.build(c, r)
			got := make(map[string]time.Duration)
			for s, d := range r.SelfTimes() {
				got[s.Name] += d
			}
			if len(got) != len(tc.want) {
				t.Errorf("spans %v, want names %v", got, tc.want)
			}
			for name, want := range tc.want {
				if got[name] != want {
					t.Errorf("self time of %q = %v, want %v", name, got[name], want)
				}
			}
		})
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	root := r.Root("root")
	child := root.Start("child")
	child.Charge("x", 1, time.Second)
	child.End()
	root.End()
	if root != nil || child != nil || len(r.Spans()) != 0 {
		t.Fatalf("nil recorder produced spans: %v %v %v", root, child, r.Spans())
	}
}

func TestWriteChrome(t *testing.T) {
	c := &fakeClock{}
	r := c.recorder()
	root := r.Root("pass")
	c.t = 2 * time.Millisecond
	file := root.StartLane("file", 3)
	file.Charge("write(2)", 7, time.Millisecond)
	c.t = 5 * time.Millisecond
	file.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete event X", e.Name, e.Ph)
		}
	}
	file2 := doc.TraceEvents[1]
	if file2.Name != "file" || file2.Ts != 2000 || file2.Dur != 3000 || file2.Tid != 3 || file2.Args["self_us"] != 2000.0 {
		t.Errorf("file event = %+v, want ts 2000us dur 3000us on lane 3 with 2000us self time", file2)
	}
	if w := doc.TraceEvents[2]; w.Name != "write(2)" || w.Args["calls"] != 7.0 || w.Tid != 3 {
		t.Errorf("aggregate event = %+v, want 7 calls on its parent's lane", w)
	}
}
