package hostio

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Injected fault sentinels. Callers distinguish "the disk is full" from
// "the disk is lying" the same way they would with real errno values:
// errors.Is. Both are transient by construction — the whole point of the
// torture suite is that retry/degrade machinery must eventually succeed
// once the plan stops firing.
var (
	// ErrInjectedNoSpace is the injected ENOSPC.
	ErrInjectedNoSpace = errors.New("hostio: injected fault: no space left on device")
	// ErrInjectedIO is the injected EIO (also used for torn writes and
	// failed renames).
	ErrInjectedIO = errors.New("hostio: injected fault: input/output error")
)

// Fault kinds.
const (
	FaultNoSpace = "enospc" // the op fails with ErrInjectedNoSpace, nothing written
	FaultIO      = "eio"    // the op fails with ErrInjectedIO, nothing written
	FaultTorn    = "torn"   // write only: half the buffer lands, then ErrInjectedIO
)

// Ops a clause can target.
const (
	OpWrite  = "write"
	OpSync   = "sync"
	OpCreate = "create"
	OpRename = "rename"
	OpRemove = "remove"
)

// Clause is one fault rule: inject Fault on Op for paths in Class when a
// trigger matches. Triggers combine with OR; the operation index they
// test is the 1-based count of ops of the clause's kind in the clause's
// class (or across all classes for ClassAll), so "at=3,on=write,
// class=checkpoint" means exactly the 3rd checkpoint write, no matter
// what creates, syncs, or journal traffic happen in between.
type Clause struct {
	Class string  // checkpoint, journal, spec, other, or all (default all)
	Fault string  // enospc, eio, torn
	On    string  // write, sync, create, rename, remove (default write)
	At    []int64 // fire at these exact op indexes
	Every int64   // fire every N ops (0 = off)
	From  int64   // fire for all ops with index >= From ...
	Until int64   // ... and < Until (0 = unbounded): the persistent-failure window
	Prob  float64 // fire with this probability (seeded, deterministic per op sequence)
}

// Plan is a declarative host-fault schedule: a seed plus fault clauses.
// The zero value injects nothing. Like faultinject.Plan it is pure
// specification — parseable from a CLI flag, embeddable in a test table.
type Plan struct {
	Seed    int64
	Clauses []Clause
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Clauses) == 0 }

// Validate reports the first invalid clause.
func (p Plan) Validate() error {
	for i, c := range p.Clauses {
		at := func(format string, args ...any) error {
			return fmt.Errorf("hostio: clause %d: %s", i+1, fmt.Sprintf(format, args...))
		}
		switch c.Class {
		case ClassCheckpoint, ClassJournal, ClassSpec, ClassOther, ClassAll:
		default:
			return at("class %q (want checkpoint, journal, spec, other, all)", c.Class)
		}
		switch c.Fault {
		case FaultNoSpace, FaultIO, FaultTorn:
		default:
			return at("fault %q (want enospc, eio, torn)", c.Fault)
		}
		switch c.On {
		case OpWrite, OpSync, OpCreate, OpRename, OpRemove:
		default:
			return at("on %q (want write, sync, create, rename, remove)", c.On)
		}
		if c.Fault == FaultTorn && c.On != OpWrite {
			return at("fault torn requires on=write (got on=%s)", c.On)
		}
		// Inverted so NaN (false against every bound) is rejected too.
		if !(c.Prob >= 0 && c.Prob <= 1) {
			return at("p = %g, want [0,1]", c.Prob)
		}
		for _, n := range c.At {
			if n <= 0 {
				return at("at entry %d, want > 0", n)
			}
		}
		if c.Every < 0 {
			return at("every = %d, want >= 0", c.Every)
		}
		if c.From < 0 || c.Until < 0 {
			return at("from/until must be >= 0")
		}
		if c.Until > 0 && c.Until <= c.From {
			return at("until = %d <= from = %d (empty window)", c.Until, c.From)
		}
		if len(c.At) == 0 && c.Every == 0 && c.From == 0 && c.Until == 0 && c.Prob == 0 {
			return at("no trigger (want at, every, from/until, or p)")
		}
	}
	return nil
}

// ParsePlan parses the CLI flag syntax, the faultinject.ParsePlan grammar
// one level up: '|'-separated clauses of comma-separated key=value pairs
// with ';'-separated lists, e.g.
//
//	class=checkpoint,fault=enospc,on=write,from=3,until=40
//	class=journal,fault=eio,on=sync,at=2;5|class=checkpoint,fault=torn,p=0.05,seed=9
//
// Per clause: class (default all), fault (required), on (default write),
// and at least one trigger — at=N;M, every=N, from=N[,until=M], or p=P.
// seed=N may appear in any clause but is plan-global. As in faultinject,
// a repeated scalar clause key is a typo'd plan and rejected; at may
// repeat (repeats append). An empty string parses to the zero plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	seenSeed := false
	for _, raw := range strings.Split(s, "|") {
		c := Clause{Class: ClassAll, On: OpWrite}
		seen := make(map[string]bool)
		for _, field := range strings.Split(raw, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return Plan{}, fmt.Errorf("hostio: %q: want key=value", field)
			}
			if seen[key] && key != "at" {
				return Plan{}, fmt.Errorf("hostio: duplicate %q clause", key)
			}
			seen[key] = true
			var err error
			switch key {
			case "seed":
				if seenSeed {
					return Plan{}, fmt.Errorf("hostio: duplicate %q clause", key)
				}
				seenSeed = true
				p.Seed, err = strconv.ParseInt(val, 10, 64)
			case "class":
				c.Class = val
			case "fault":
				c.Fault = val
			case "on":
				c.On = val
			case "at":
				for _, item := range strings.Split(val, ";") {
					var n int64
					if n, err = strconv.ParseInt(item, 10, 64); err != nil {
						break
					}
					c.At = append(c.At, n)
				}
			case "every":
				c.Every, err = strconv.ParseInt(val, 10, 64)
			case "from":
				c.From, err = strconv.ParseInt(val, 10, 64)
			case "until":
				c.Until, err = strconv.ParseInt(val, 10, 64)
			case "p":
				c.Prob, err = strconv.ParseFloat(val, 64)
			default:
				return Plan{}, fmt.Errorf("hostio: unknown key %q (want seed, class, fault, on, at, every, from, until, p)", key)
			}
			if err != nil {
				return Plan{}, fmt.Errorf("hostio: %s: %v", key, err)
			}
		}
		if c.Fault == "" {
			return Plan{}, fmt.Errorf("hostio: clause %q: missing fault=", strings.TrimSpace(raw))
		}
		p.Clauses = append(p.Clauses, c)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Stats counts what a FaultFS has done.
type Stats struct {
	Ops     int64 // faultable operations observed
	NoSpace int64 // injected ENOSPC
	IO      int64 // injected EIO (including failed renames/removes/creates/syncs)
	Torn    int64 // injected torn writes
}

// FaultFS wraps an FS with a deterministic fault plan. The same plan over
// the same operation sequence injects the same faults; probabilistic
// clauses draw from one seeded stream in operation order. Safe for
// concurrent use (one lock around the counters, like the real kernel's
// one disk).
type FaultFS struct {
	inner FS
	plan  Plan

	mu    sync.Mutex
	rng   *rand.Rand
	ops   map[string]int64 // per (class, op-kind) and per ("all", op-kind)
	stats Stats
}

var _ FS = (*FaultFS)(nil)

// NewFaultFS wraps inner with plan. The plan should be Validate-clean
// (ParsePlan guarantees it).
func NewFaultFS(inner FS, plan Plan) *FaultFS {
	return &FaultFS{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		ops:   make(map[string]int64),
	}
}

// Stats returns a snapshot of the injection counters.
func (f *FaultFS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// decide counts one faultable op on path and returns the fault kind to
// inject ("" for none). Exactly one fault fires per op: the first
// matching clause wins, so plans read top to bottom.
func (f *FaultFS) decide(path, op string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	class := Classify(path)
	f.ops[ClassAll+"/"+op]++
	f.ops[class+"/"+op]++
	f.stats.Ops++
	for _, c := range f.plan.Clauses {
		if c.On != op {
			continue
		}
		if c.Class != ClassAll && c.Class != class {
			continue
		}
		idx := f.ops[c.Class+"/"+op]
		fired := false
		for _, n := range c.At {
			if n == idx {
				fired = true
			}
		}
		if c.Every > 0 && idx%c.Every == 0 {
			fired = true
		}
		if (c.From > 0 || c.Until > 0) && idx >= c.From && (c.Until == 0 || idx < c.Until) {
			fired = true
		}
		if c.Prob > 0 && f.rng.Float64() < c.Prob {
			fired = true
		}
		if !fired {
			continue
		}
		switch c.Fault {
		case FaultNoSpace:
			f.stats.NoSpace++
		case FaultTorn:
			f.stats.Torn++
		default:
			f.stats.IO++
		}
		return c.Fault
	}
	return ""
}

// faultErr maps a fault kind to its sentinel, with path context.
func faultErr(kind, op, path string) error {
	base := ErrInjectedIO
	if kind == FaultNoSpace {
		base = ErrInjectedNoSpace
	}
	return fmt.Errorf("%s %s: %w", op, path, base)
}

func (f *FaultFS) Create(name string) (File, error) {
	if kind := f.decide(name, OpCreate); kind != "" {
		return nil, faultErr(kind, OpCreate, name)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, path: name}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, path: name}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if kind := f.decide(name, OpCreate); kind != "" {
			return nil, faultErr(kind, OpCreate, name)
		}
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, path: name}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	// Classified by the destination: renaming a .tmp into its .ckpt slot
	// is a checkpoint op.
	if kind := f.decide(newpath, OpRename); kind != "" {
		return faultErr(kind, OpRename, newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if kind := f.decide(name, OpRemove); kind != "" {
		return faultErr(kind, OpRemove, name)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *FaultFS) ReadFile(name string) ([]byte, error)       { return f.inner.ReadFile(name) }
func (f *FaultFS) Stat(name string) (fs.FileInfo, error)      { return f.inner.Stat(name) }

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if kind := f.decide(name, OpCreate); kind != "" {
		return faultErr(kind, OpCreate, name)
	}
	switch kind := f.decide(name, OpWrite); kind {
	case "":
		return f.inner.WriteFile(name, data, perm)
	case FaultTorn:
		// Half the file lands — the on-disk result of a torn whole-file
		// write — and the caller still gets the error.
		if err := f.inner.WriteFile(name, data[:len(data)/2], perm); err != nil {
			return err
		}
		return faultErr(kind, OpWrite, name)
	default:
		return faultErr(kind, OpWrite, name)
	}
}

// faultFile intercepts the handle ops a plan can target.
type faultFile struct {
	File
	fs   *FaultFS
	path string
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch kind := f.fs.decide(f.path, OpWrite); kind {
	case "":
		return f.File.Write(p)
	case FaultTorn:
		n, err := f.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, faultErr(kind, OpWrite, f.path)
	default:
		return 0, faultErr(kind, OpWrite, f.path)
	}
}

func (f *faultFile) Sync() error {
	if kind := f.fs.decide(f.path, OpSync); kind != "" {
		return faultErr(kind, OpSync, f.path)
	}
	return f.File.Sync()
}
