package nand

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// everyNth injects the fault matching the operation on every nth consult,
// so the script crosses the `injected == … ||` short-circuits that skip an
// rng draw.
type everyNth struct{ n, seen int }

func (e *everyNth) Inject(op Op) Fault {
	e.seen++
	if e.seen%e.n != 0 {
		return FaultNone
	}
	return [...]Fault{OpRead: FaultRead, OpProgram: FaultProgram, OpErase: FaultErase}[op]
}

func (e *everyNth) Down() bool { return false }

// TestWearScriptPinned drives a seeded script of programs, reads and erases
// over a chip whose blocks start between 40% and 145% of rated endurance,
// moves the state into a second chip half-way, and pins everything the
// error model decides: the counters, the erase counts and where the chip's
// rng stream stands afterwards. Any change to the value, number or order of
// the model's probability draws moves at least the last of these. Along the
// way every block's memo of the model is compared with the model itself.
func TestWearScriptPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		heal float64
		want string
	}{
		{"no healing", 0, "{Programs:2824 Reads:2209 Erases:967 ProgramFails:286 EraseFails:108 UncorrectableReads:906 BytesProgrammed:11567104 BadBlocks:0} bitErrors:91885 erases:[181 188 219 236 248 293 292 331 343 372 374 433 413 439 441 484] rng:0.41497906166816173 0.9303102399810829 0.9007344782884215"},
		{"healing", 0.5, "{Programs:2824 Reads:2209 Erases:967 ProgramFails:29 EraseFails:13 UncorrectableReads:93 BytesProgrammed:11567104 BadBlocks:0} bitErrors:3339 erases:[181 188 219 236 248 293 292 331 343 372 374 433 413 439 441 484] rng:0.9649054702536795 0.06226384257813684 0.68226491241545"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Duration(0)
			em := DefaultErrorModel()
			em.HealPerIdleHour = tc.heal
			newChip := func(seed int64) *Chip {
				c := newTestChip(t, func(cfg *Config) {
					cfg.RatedPE = 300
					cfg.Errors = &em
					cfg.Seed = seed
					cfg.Now = func() time.Duration { return now }
					cfg.Inject = &everyNth{n: 97}
				})
				for i := range c.blocks {
					c.ShouldRetire(i) // asks the model about a fresh block; ImportState must forget the answer
				}
				return c
			}
			c := newChip(42)
			st := c.ExportState()
			for i := range st.Blocks {
				st.Blocks[i].EraseCount = 120 + 20*i
			}
			if err := c.ImportState(st); err != nil {
				t.Fatal(err)
			}

			script := rand.New(rand.NewSource(99))
			nblocks, ppb := c.geo.Blocks(), c.geo.PagesPerBlock
			bitErrors := 0
			const steps = 6000
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					second := newChip(43)
					if err := second.ImportState(c.ExportState()); err != nil {
						t.Fatal(err)
					}
					second.Reseed(1234)
					c = second
				}
				now += time.Duration(script.Intn(3)) * 20 * time.Minute
				b := script.Intn(nblocks)
				next := c.ProgrammedPages(b)
				switch op := script.Intn(10); {
				case op < 5 && next < ppb:
					var data []byte
					if script.Intn(2) == 0 {
						data = filled(byte(step))
					}
					c.ProgramPage(PageAddr{b, next}, data) // failures are part of the script
				case op < 9 && next > 0:
					_, res, _ := c.ReadPage(PageAddr{b, script.Intn(next)})
					bitErrors += res.BitErrors
				default:
					c.EraseBlock(b)
				}
				// Every memo in force equals the reference methods at the
				// block's wear as it stands now.
				for i := range c.blocks {
					blk, w := &c.blocks[i], c.Wear(i)
					if !blk.memoOK {
						continue
					}
					hours := (now - blk.firstProg).Hours()
					if blk.failProb != em.FailProb(w) || blk.rber != em.RBER(w) ||
						em.withRetention(blk.rber, blk.retGrowth, hours) != em.RBERWithRetention(w, hours) {
						t.Fatalf("step %d: block %d memo {%v %v %v} is stale at wear %v", step, i, blk.failProb, blk.rber, blk.retGrowth, w)
					}
				}
			}

			erases := make([]int, nblocks)
			for i := range erases {
				erases[i] = c.EraseCount(i)
			}
			got := fmt.Sprintf("%+v bitErrors:%d erases:%v rng:%v %v %v", c.Stats(), bitErrors, erases,
				c.rng.Float64(), c.rng.Float64(), c.rng.Float64())
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestProgramEraseAllocatesNothing: programs and erases are the inner loop
// of every wear experiment and stay off the heap. An accounting-only
// program allocates nothing even as a block's first program on a fresh
// chip, and a payload program reuses a buffer an earlier erase freed.
func TestProgramEraseAllocatesNothing(t *testing.T) {
	c := newTestChip(t, nil)
	blocks := c.geo.Blocks()
	// AllocsPerRun's warm-up call takes block 0; the runs are the first
	// programs of blocks 1..15.
	if n := testing.AllocsPerRun(blocks-1, func() {
		for b := range blocks {
			if c.ProgrammedPages(b) == 0 {
				if _, err := c.ProgramPageOOB(PageAddr{b, 0}, nil, OOB{LP: 1, Seq: 1}); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}); n != 0 {
		t.Fatalf("ProgramPageOOB(nil payload) allocates %v times per call on a fresh chip, want 0", n)
	}

	page := filled(0x5A)
	cycle := func() {
		mustErase(t, c, 0)
		for pg := range c.geo.PagesPerBlock {
			if _, err := c.ProgramPage(PageAddr{0, pg}, page); err != nil {
				t.Fatal(err)
			}
		}
		mustErase(t, c, 0)
	}
	cycle() // fills the free list
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("erase, payload program-all, erase allocates %v times on a warmed chip, want 0", n)
	}
}

// TestReadPageAllocatesNothing: a read lends the page's own buffer instead
// of copying it, so reading a payload page stays off the heap.
func TestReadPageAllocatesNothing(t *testing.T) {
	c := newTestChip(t, nil)
	page := filled(0x5A)
	if _, err := c.ProgramPage(PageAddr{0, 0}, page); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if got, _, err = c.ReadPage(PageAddr{0, 0}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadPage of a payload page allocates %v times per call, want 0", n)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("ReadPage returned the wrong payload")
	}
}
