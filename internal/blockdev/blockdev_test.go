package blockdev

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewMemValidation(t *testing.T) {
	if _, err := NewMem(0, 512); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewMem(4096, 0); err == nil {
		t.Error("zero sector accepted")
	}
	if _, err := NewMem(1000, 512); err == nil {
		t.Error("non-multiple size accepted")
	}
}

func TestMemReadWriteRoundTrip(t *testing.T) {
	m, err := NewMem(1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xCD}, 4096)
	if err := m.WriteAt(want, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := m.ReadAt(got, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestMemUnwrittenReadsZero(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	got := make([]byte, 1024)
	got[0] = 0xFF
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
}

func TestMemAlignmentAndBounds(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	if err := m.WriteAt(make([]byte, 512), 100); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned offset err = %v", err)
	}
	if err := m.WriteAt(make([]byte, 100), 0); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned length err = %v", err)
	}
	if err := m.WriteAt(make([]byte, 512), 1<<20); !errors.Is(err, ErrBounds) {
		t.Errorf("out of bounds err = %v", err)
	}
	if err := m.ReadAt(make([]byte, 1024), 1<<20-512); !errors.Is(err, ErrBounds) {
		t.Errorf("straddling read err = %v", err)
	}
}

// TestCheckRange pins the bounds arithmetic: an off+length that overflows
// int64 must not wrap into an accepted range.
func TestCheckRange(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	for _, tc := range []struct {
		off, length int64
		want        error
	}{
		{0, 0, nil},
		{0, 1 << 20, nil},
		{1<<20 - 512, 512, nil},
		{1 << 20, 0, nil},
		{1 << 20, 512, ErrBounds},
		{1<<20 - 512, 1024, ErrBounds},
		{2 << 20, 0, ErrBounds},
		{-512, 512, ErrBounds},
		{0, -512, ErrBounds},
		{512, math.MaxInt64 - 511, ErrBounds},
		{math.MaxInt64 - 511, 512, ErrBounds},
		{100, 512, ErrAlignment},
		{0, 100, ErrAlignment},
	} {
		if err := CheckRange(m, tc.off, tc.length); !errors.Is(err, tc.want) {
			t.Errorf("CheckRange(off=%d, len=%d) = %v, want %v", tc.off, tc.length, err, tc.want)
		}
	}
}

func TestMemDiscardZeroes(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	if err := m.WriteAt(bytes.Repeat([]byte{1}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Discard(0, 512); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := m.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[512] != 1 {
		t.Fatal("discard range wrong")
	}
}

func TestMemWriteAccountedDropsData(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	if err := m.WriteAt(bytes.Repeat([]byte{9}, 512), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAccounted(0, 512); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	_ = m.ReadAt(got, 0)
	if got[0] != 0 {
		t.Fatal("accounted write did not clear payload")
	}
}

func TestCountingCounts(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	c := NewCounting(m)
	_ = c.WriteAt(make([]byte, 1024), 0)
	_ = c.WriteAccounted(2048, 512)
	_ = c.ReadAt(make([]byte, 512), 0)
	_ = c.Discard(0, 512)
	_ = c.Flush()
	if c.WriteOps != 2 || c.BytesWritten != 1536 {
		t.Fatalf("write stats: ops=%d bytes=%d", c.WriteOps, c.BytesWritten)
	}
	if c.ReadOps != 1 || c.BytesRead != 512 {
		t.Fatalf("read stats: ops=%d bytes=%d", c.ReadOps, c.BytesRead)
	}
	if c.DiscardOps != 1 || c.FlushOps != 1 {
		t.Fatal("discard/flush not counted")
	}
	if c.Size() != 1<<20 || c.SectorSize() != 512 {
		t.Fatal("size passthrough wrong")
	}
	if m.Flushes() != 1 {
		t.Fatal("flush not passed through")
	}
}

func TestFaultyFailsAfterN(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	f := NewFaulty(m, 2)
	if err := f.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(make([]byte, 512), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd op err = %v, want ErrInjected", err)
	}
	if err := f.WriteAccounted(0, 512); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Flush and Discard are not gated.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Property: non-overlapping sector writes are independent.
func TestQuickMemSectorIndependence(t *testing.T) {
	m, _ := NewMem(1<<20, 512)
	f := func(a, b uint16, va, vb byte) bool {
		offA := int64(a%2000) * 512
		offB := int64(b%2000) * 512
		if offA == offB {
			return true
		}
		_ = m.WriteAt(bytes.Repeat([]byte{va}, 512), offA)
		_ = m.WriteAt(bytes.Repeat([]byte{vb}, 512), offB)
		ga := make([]byte, 512)
		gb := make([]byte, 512)
		_ = m.ReadAt(ga, offA)
		_ = m.ReadAt(gb, offB)
		return ga[0] == va && gb[511] == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
