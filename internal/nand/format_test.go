package nand

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// faultEvery injects the fault matching the operation on every nth
// consult and cuts power once, on consult cut, until restored.
type faultEvery struct {
	n, cut, seen int
	down         bool
}

func (f *faultEvery) Inject(op Op) Fault {
	f.seen++
	switch {
	case f.down || f.seen == f.cut:
		f.down = true
		return FaultPowerCut
	case f.seen%f.n == 0:
		return [...]Fault{OpRead: FaultRead, OpProgram: FaultProgram, OpErase: FaultErase}[op]
	}
	return FaultNone
}

func (f *faultEvery) Down() bool { return f.down }

// chipScript drives a seeded mix of programs, reads and erases over c,
// retiring the blocks that fail while under a quarter are bad, and returns
// its transcript: every operation's latency, bit errors, error text and
// read payload byte.
func chipScript(c *Chip, seed int64, ops int) string {
	r := rand.New(rand.NewSource(seed))
	g := c.Geometry()
	var out strings.Builder
	for i := 0; i < ops; i++ {
		b := r.Intn(g.Blocks())
		switch k := r.Intn(10); {
		case k < 6:
			a := PageAddr{b, c.ProgrammedPages(b)}
			if a.Page == g.PagesPerBlock {
				a.Page--
			}
			var data []byte
			if r.Intn(4) != 0 {
				data = filled(byte(i))
			}
			res, err := c.ProgramPageOOB(a, data, OOB{LP: int32(i), Seq: int64(i + 1), Org: uint16(k)})
			fmt.Fprintf(&out, "p%v %v %v|", a, res, err)
			if errors.Is(err, ErrProgramFail) && c.Stats().BadBlocks < g.Blocks()/4 {
				c.MarkBad(b)
			}
		case k < 9:
			a := PageAddr{b, r.Intn(g.PagesPerBlock)}
			data, res, err := c.ReadPage(a)
			oob, ok := c.ReadOOB(a)
			fmt.Fprintf(&out, "r%v %v %v %d %v %v|", a, res, err, len(data), oob, ok)
			if len(data) > 0 {
				fmt.Fprintf(&out, "%d|", data[0])
			}
		default:
			res, err := c.EraseBlock(b)
			fmt.Fprintf(&out, "e%d %v %v|", b, res, err)
			if errors.Is(err, ErrEraseFail) && c.Stats().BadBlocks < g.Blocks()/4 {
				c.MarkBad(b)
			}
		}
	}
	return out.String()
}

// TestFormatEqualsNew is Format's oracle: a chip worn, faulted, cut,
// snapshotted and left with bad blocks, then formatted, cannot be told
// from one New builds with the format's seed — the same exported state
// and counters, the same next RNG draw, and the same transcript for one
// script after — and the snapshot it exported before keeps its pages.
func TestFormatEqualsNew(t *testing.T) {
	now := time.Duration(0)
	em := DefaultErrorModel()
	em.HealPerIdleHour = 0.01
	cfg := func(seed int64) Config {
		return Config{Geometry: testGeometry(), Cell: MLC, RatedPE: 60, Seed: seed,
			Errors: &em, Now: func() time.Duration { return now }}
	}
	fresh, err := New(cfg(99))
	if err != nil {
		t.Fatal(err)
	}
	dirtyCfg := cfg(5)
	inj := &faultEvery{n: 97, cut: 1500}
	dirtyCfg.Inject = inj
	dirty, err := New(dirtyCfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 8; round++ {
		chipScript(dirty, round, 600)
		now += time.Hour
		inj.down = false
	}
	snap := dirty.ExportState()
	kept := pageBytes(snap)
	chipScript(dirty, 100, 400)
	st := dirty.Stats()
	if st.ProgramFails == 0 || st.EraseFails == 0 || st.UncorrectableReads == 0 || st.BadBlocks == 0 || inj.seen < inj.cut {
		t.Fatalf("the dirtying script missed a fault kind: %+v, %d consults", st, inj.seen)
	}
	if len(kept) == 0 {
		t.Fatal("the snapshot shares no pages")
	}

	dirty.SetInjector(nil)
	dirty.Format(99)
	if a, b := fresh.ExportState(), dirty.ExportState(); !reflect.DeepEqual(a, b) {
		t.Fatal("a formatted chip exports another state than a new one")
	}
	if a, b := fresh.Stats(), dirty.Stats(); a != b {
		t.Fatalf("stats %+v new, %+v formatted", a, b)
	}
	if a, b := fresh.rng.Float64(), dirty.rng.Float64(); a != b {
		t.Fatalf("next draw %v new, %v formatted", a, b)
	}
	for round := int64(0); round < 4; round++ {
		a, b := chipScript(fresh, 200+round, 600), chipScript(dirty, 200+round, 600)
		if a != b {
			t.Fatalf("round %d: the script runs differently on a formatted chip", round)
		}
		now += time.Hour
	}
	if a, b := fresh.ExportState(), dirty.ExportState(); !reflect.DeepEqual(a, b) {
		t.Fatal("after the script, a formatted chip exports another state than a new one")
	}
	if a, b := fresh.Stats(), dirty.Stats(); a != b {
		t.Fatalf("after the script, stats %+v new, %+v formatted", a, b)
	}
	sameState(t, "the snapshot exported before Format", snap, kept)
}
