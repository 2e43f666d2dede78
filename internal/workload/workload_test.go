package workload

import (
	"testing"

	"flashwear/internal/device"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/simclock"
)

func testDev(t *testing.T) *device.Device {
	t.Helper()
	p := device.ProfileEMMC8().Scaled(512)
	d, err := device.New(p, simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeviceWriterSequentialWraps(t *testing.T) {
	d := testDev(t)
	w := NewDeviceWriter(d, 1<<20, true, 1)
	// Write 2x the device size: must wrap, not error.
	total := d.Size() * 2
	var written int64
	for written < total {
		n, err := w.Step(4 << 20)
		if err != nil {
			t.Fatalf("after %d bytes: %v", written, err)
		}
		written += n
	}
	if d.BytesWritten() < total {
		t.Fatalf("device saw %d bytes, want >= %d", d.BytesWritten(), total)
	}
}

func TestDeviceWriterRandomStaysInRegion(t *testing.T) {
	d := testDev(t)
	w := NewDeviceWriter(d, 4096, false, 2)
	w.RegionOff = 1 << 20
	w.RegionLen = 2 << 20
	if _, err := w.Step(8 << 20); err != nil {
		t.Fatal(err)
	}
	// Region restriction is structural; validate via no error and volume.
	if d.BytesWritten() < 8<<20 {
		t.Fatalf("wrote %d", d.BytesWritten())
	}
}

func TestDeviceWriterValidation(t *testing.T) {
	d := testDev(t)
	w := NewDeviceWriter(d, 0, true, 1)
	if _, err := w.Step(4096); err == nil {
		t.Fatal("zero request size accepted")
	}
	w2 := NewDeviceWriter(d, 4096, true, 1)
	w2.RegionOff = d.Size()
	if _, err := w2.Step(4096); err == nil {
		t.Fatal("region past device accepted")
	}
}

func TestFigure1Sizes(t *testing.T) {
	sizes := Figure1Sizes()
	if sizes[0] != 512 || sizes[len(sizes)-1] != 16<<20 {
		t.Fatalf("sizes = %v", sizes)
	}
	if len(sizes) != 16 {
		t.Fatalf("len = %d, want 16 (0.5KiB..16MiB)", len(sizes))
	}
}

func TestMicrobenchShape(t *testing.T) {
	// Larger requests must be at least as fast as smaller ones on eMMC.
	clock := simclock.New()
	d, err := device.New(device.ProfileEMMC8().Scaled(512), clock)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Microbench(d, clock, 4096, true, 2<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Microbench(d, clock, 1<<20, true, 8<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.MiBps() <= small.MiBps() {
		t.Fatalf("bandwidth did not scale: 4K=%.1f 1M=%.1f", small.MiBps(), big.MiBps())
	}
	if small.Bytes != 2<<20 {
		t.Fatalf("bytes = %d", small.Bytes)
	}
}

func TestFillDevice(t *testing.T) {
	d := testDev(t)
	n, err := FillDevice(d, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Size() / 2
	if n < want-(1<<20) || n > want {
		t.Fatalf("filled %d, want ~%d", n, want)
	}
	util := d.FTL().Utilisation()
	if util < 0.4 || util > 0.6 {
		t.Fatalf("utilisation %v, want ~0.5", util)
	}
	if _, err := FillDevice(d, 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestFileSetRewrites(t *testing.T) {
	d := testDev(t)
	if err := extfs.Mkfs(d); err != nil {
		t.Fatal(err)
	}
	v, err := extfs.Mount(d, fs.Options{DataAccounting: true})
	if err != nil {
		t.Fatal(err)
	}
	set := NewFileSet(v, "/attack", 256<<10, 4)
	if err := set.Setup(); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if set.TotalBytes() != 4*256<<10 {
		t.Fatalf("TotalBytes = %d", set.TotalBytes())
	}
	written, err := set.Step(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if written < 1<<20-4096 {
		t.Fatalf("Step wrote %d", written)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Step(4096); err == nil {
		t.Fatal("Step after Close succeeded")
	}
}

func TestFileSetValidation(t *testing.T) {
	d := testDev(t)
	if err := extfs.Mkfs(d); err != nil {
		t.Fatal(err)
	}
	v, _ := extfs.Mount(d, fs.Options{})
	s := NewFileSet(v, "/x", 1024, 1) // smaller than ReqBytes
	if err := s.Setup(); err == nil {
		t.Fatal("file smaller than request size accepted")
	}
}
