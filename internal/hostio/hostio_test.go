package hostio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	cases := []struct{ path, want string }{
		{"/data/c000001/shard-0000/epoch-000004.ckpt", ClassCheckpoint},
		{"/data/c000001/shard-0000/epoch-000004.ckpt.tmp", ClassCheckpoint},
		{"/data/c000001/events.jsonl", ClassJournal},
		{"/data/c000001/campaign.json", ClassSpec},
		{"/data/server.log", ClassOther},
		{"relative/epoch.ckpt", ClassCheckpoint},
	}
	for _, c := range cases {
		if got := Classify(c.path); got != c.want {
			t.Errorf("Classify(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("class=checkpoint,fault=enospc,on=write,from=3,until=40,seed=7")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 7 || len(p.Clauses) != 1 {
		t.Fatalf("plan = %+v", p)
	}
	c := p.Clauses[0]
	if c.Class != ClassCheckpoint || c.Fault != FaultNoSpace || c.On != OpWrite || c.From != 3 || c.Until != 40 {
		t.Fatalf("clause = %+v", c)
	}

	p, err = ParsePlan("class=journal,fault=eio,on=sync,at=2;5|fault=torn,p=0.25")
	if err != nil {
		t.Fatalf("ParsePlan two clauses: %v", err)
	}
	if len(p.Clauses) != 2 {
		t.Fatalf("want 2 clauses, got %d", len(p.Clauses))
	}
	if got := p.Clauses[0].At; len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Fatalf("at = %v", got)
	}
	if p.Clauses[1].Class != ClassAll || p.Clauses[1].On != OpWrite {
		t.Fatalf("defaults not applied: %+v", p.Clauses[1])
	}

	if p, err := ParsePlan(""); err != nil || len(p.Clauses) != 0 {
		t.Fatalf("empty plan: %+v, %v", p, err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"fault=eio", "no trigger"},
		{"at=3", "missing fault="},
		{"fault=bogus,at=1", `fault "bogus"`},
		{"fault=eio,on=chmod,at=1", `on "chmod"`},
		{"fault=torn,on=sync,at=1", "torn requires on=write"},
		{"class=nand,fault=eio,at=1", `class "nand"`},
		{"fault=eio,p=1.5", "p = 1.5"},
		{"fault=eio,at=0", "at entry 0"},
		{"fault=eio,from=5,until=3", "empty window"},
		{"fault=eio,at=1,fault=torn", `duplicate "fault"`},
		{"seed=1,fault=eio,at=1|seed=2,fault=eio,at=1", `duplicate "seed"`},
		{"fault=eio,at=1,bogus=2", `unknown key "bogus"`},
		{"fault", "want key=value"},
		{"fault=eio,at=x", "at:"},
	}
	for _, c := range cases {
		if _, err := ParsePlan(c.in); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParsePlan(%q) err = %v, want containing %q", c.in, err, c.wantSub)
		}
	}
}

// mustWrite does a create+write+close through fs and returns the write error.
func writeOnce(t *testing.T, fsys FS, path string, data []byte) error {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if err := f.Close(); err != nil && werr == nil {
		werr = err
	}
	return werr
}

func TestFaultFSAtTriggerAndClassScope(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParsePlan("class=checkpoint,fault=eio,on=write,at=2")
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, plan)

	ckpt := filepath.Join(dir, "a.ckpt")
	jrnl := filepath.Join(dir, "a.jsonl")
	if err := writeOnce(t, ffs, ckpt, []byte("one")); err != nil {
		t.Fatalf("checkpoint write 1: %v", err)
	}
	// Journal writes are a different class: they must not advance the
	// checkpoint op counter or fault.
	for i := 0; i < 3; i++ {
		if err := writeOnce(t, ffs, jrnl, []byte("j")); err != nil {
			t.Fatalf("journal write %d: %v", i, err)
		}
	}
	if err := writeOnce(t, ffs, ckpt, []byte("two")); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("checkpoint write 2: err = %v, want ErrInjectedIO", err)
	}
	if err := writeOnce(t, ffs, ckpt, []byte("three")); err != nil {
		t.Fatalf("checkpoint write 3: %v", err)
	}
	if st := ffs.Stats(); st.IO != 1 {
		t.Fatalf("stats = %+v, want IO=1", st)
	}
}

func TestFaultFSPersistentWindow(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParsePlan("class=journal,fault=enospc,on=write,from=2,until=5")
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, plan)
	path := filepath.Join(dir, "e.jsonl")
	var got []bool
	for i := 0; i < 6; i++ {
		err := writeOnce(t, ffs, path, []byte("x"))
		if err != nil && !errors.Is(err, ErrInjectedNoSpace) {
			t.Fatalf("write %d: unexpected err %v", i, err)
		}
		got = append(got, err != nil)
	}
	want := []bool{false, true, true, true, false, false} // ops 1..6, window [2,5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("write %d failed=%v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
}

func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParsePlan("fault=torn,on=write,at=1")
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, plan)
	path := filepath.Join(dir, "t.bin")
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if !errors.Is(werr, ErrInjectedIO) {
		t.Fatalf("torn write err = %v", werr)
	}
	if n != 5 {
		t.Fatalf("torn write n = %d, want 5", n)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "01234" {
		t.Fatalf("on disk %q, want the torn prefix", data)
	}
}

func TestFaultFSRenameAndSync(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParsePlan("class=checkpoint,fault=eio,on=rename,at=1|class=checkpoint,fault=eio,on=sync,at=2")
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, plan)

	tmp := filepath.Join(dir, "e.ckpt.tmp")
	dst := filepath.Join(dir, "e.ckpt")
	f, err := ffs.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 1 (op 1): %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("sync 2: err = %v, want injected EIO", err)
	}
	f.Close()
	if err := ffs.Rename(tmp, dst); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("rename 1: err = %v, want injected EIO", err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("failed rename must leave the source: %v", err)
	}
	if err := ffs.Rename(tmp, dst); err != nil {
		t.Fatalf("rename 2: %v", err)
	}
	if _, err := os.Stat(dst); err != nil {
		t.Fatalf("second rename did not land: %v", err)
	}
}

func TestFaultFSProbDeterminism(t *testing.T) {
	run := func() []bool {
		dir := t.TempDir()
		plan, err := ParsePlan("seed=99,fault=eio,on=write,p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		ffs := NewFaultFS(OS{}, plan)
		path := filepath.Join(dir, "p.bin")
		var fired []bool
		for i := 0; i < 32; i++ {
			fired = append(fired, writeOnce(t, ffs, path, []byte("x")) != nil)
		}
		return fired
	}
	a, b := run(), run()
	some := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: run A fired=%v, run B fired=%v", i, a[i], b[i])
		}
		some = some || a[i]
	}
	if !some {
		t.Fatal("p=0.5 over 32 ops never fired")
	}
}

func TestFaultFSWriteFile(t *testing.T) {
	dir := t.TempDir()
	plan, err := ParsePlan("class=spec,fault=torn,on=write,at=1")
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS{}, plan)
	path := filepath.Join(dir, "campaign.json")
	if err := ffs.WriteFile(path, []byte("abcdefgh"), 0o644); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("WriteFile err = %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abcd" {
		t.Fatalf("torn WriteFile left %q", data)
	}
	if err := ffs.WriteFile(path, []byte("abcdefgh"), 0o644); err != nil {
		t.Fatalf("retry WriteFile: %v", err)
	}
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	sub := filepath.Join(dir, "a", "b")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "f.txt")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(sub, "g.txt")
	if err := fsys.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(moved)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	ents, err := fsys.ReadDir(sub)
	if err != nil || len(ents) != 1 || ents[0].Name() != "g.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if _, err := fsys.Stat(moved); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(moved); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("after remove: %v", err)
	}
}
