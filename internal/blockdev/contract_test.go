package blockdev_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/nand"
	"flashwear/internal/simclock"
	"flashwear/internal/trace"
)

// TestWriteAtDoesNotRetain: every Device copies p before WriteAt returns, so
// a caller may build its next block in the same buffer. Writers that stage
// in one scratch block (the extfs journal, the f2fs checkpoint) rely on it.
func TestWriteAtDoesNotRetain(t *testing.T) {
	newMem := func(t *testing.T) blockdev.Device {
		m, err := blockdev.NewMem(1<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		dev  func(t *testing.T) blockdev.Device
	}{
		{"MemDevice", newMem},
		{"device.Device", func(t *testing.T) blockdev.Device {
			d, err := device.New(device.ProfileEMMC8().Scaled(512), simclock.New())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"Counting", func(t *testing.T) blockdev.Device { return blockdev.NewCounting(newMem(t)) }},
		{"Faulty", func(t *testing.T) blockdev.Device { return blockdev.NewFaulty(newMem(t), 0) }},
		{"trace.Recorder", func(t *testing.T) blockdev.Device { return trace.NewRecorder(newMem(t), simclock.New()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.dev(t)
			// Three 4 KiB blocks from 4 KiB in: whole pages on a 4 KiB-page
			// device, read-modify-write on a larger one.
			p := make([]byte, 3*4096)
			for i := range p {
				p[i] = byte(i*7 + 1)
			}
			want := bytes.Clone(p)
			if err := d.WriteAt(p, 4096); err != nil {
				t.Fatal(err)
			}
			for i := range p {
				p[i] = 0xEE
			}
			got := make([]byte, len(want))
			if err := d.ReadAt(got, 4096); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("a write to p after WriteAt returned changed the device's content")
			}
		})
	}
}

// TestWritePrefixMatchesWriteAt: WritePrefix(p, n, off) with a true bound
// n (p[n:] zero) stores exactly what WriteAt(p, off) stores. Two devices of
// one profile take the same random writes — all-zero, dense and
// short-prefix payloads, on whole and partial pages, with n anywhere from
// the payload's last non-zero byte to its end — one through each method:
// every write reads back the same from both, and in the end both devices'
// chips hold the same state, stored payload prefixes included.
func TestWritePrefixMatchesWriteAt(t *testing.T) {
	bigPage := device.ProfileEMMC8()
	bigPage.Name += " 16 KiB pages"
	bigPage.PageSize = 16384
	for _, prof := range []device.Profile{device.ProfileMotoE8(), device.ProfileEMMC16(), bigPage} {
		t.Run(prof.Name, func(t *testing.T) {
			newDev := func() *device.Device {
				d, err := device.New(prof.Scaled(2048), simclock.New())
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			viaAt, viaPrefix := newDev(), newDev()
			page := viaAt.FTL().PageSize()
			const span = 1 << 20 // a hot region, so GC and cache drains run
			rng := rand.New(rand.NewSource(int64(page)))
			got, want := make([]byte, 3*page), make([]byte, 3*page)
			for i := 0; i < 1500; i++ {
				var off int64
				var length int
				if rng.Intn(2) == 0 { // whole pages
					length = page * (1 + rng.Intn(3))
					off = int64(rng.Intn(span/page-3)) * int64(page)
				} else { // sectors, mostly inside or across partial pages
					length = 512 * (1 + rng.Intn(3*page/512))
					off = int64(rng.Intn((span-length)/512)) * 512
				}
				p := make([]byte, length)
				switch rng.Intn(3) {
				case 1:
					rng.Read(p)
				case 2:
					rng.Read(p[:rng.Intn(length/8+1)])
				}
				used := len(bytes.TrimRight(p, "\x00"))
				n := used + rng.Intn(length-used+1)
				if err := viaAt.WriteAt(p, off); err != nil {
					t.Fatal(err)
				}
				if err := viaPrefix.WritePrefix(p, n, off); err != nil {
					t.Fatal(err)
				}
				if err := viaAt.ReadAt(want[:length], off); err != nil {
					t.Fatal(err)
				}
				if err := viaPrefix.ReadAt(got[:length], off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[:length], want[:length]) || !bytes.Equal(want[:length], p) {
					t.Fatalf("write %d (%d bytes at %d, %d used, n %d): WritePrefix and WriteAt read back differently", i, length, off, used, n)
				}
			}
			chips := func(d *device.Device) []*nand.Chip {
				cs := []*nand.Chip{d.FTL().MainChip()}
				if cc := d.FTL().CacheChip(); cc != nil {
					cs = append(cs, cc)
				}
				return cs
			}
			a, b := chips(viaAt), chips(viaPrefix)
			if len(a) != len(b) || (prof.Hybrid != nil) != (len(a) == 2) {
				t.Fatalf("%d and %d chips", len(a), len(b))
			}
			for k := range a {
				var sa, sb nand.ChipState
				a[k].View(&sa)
				b[k].View(&sb)
				if sa.Stats.Programs == 0 {
					t.Fatalf("chip %d programmed nothing", k)
				}
				if !reflect.DeepEqual(sa, sb) {
					t.Errorf("chip %d: WritePrefix left a different chip state than WriteAt", k)
				}
			}
		})
	}
}

// TestWritePrefixRefusals: a length outside the payload fails on every
// device that takes one, and MemDevice also refuses a broken promise, a
// non-zero byte at or past n — which makes every file-system test on a
// MemDevice check each length its writer states.
func TestWritePrefixRefusals(t *testing.T) {
	m, err := blockdev.NewMem(1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(device.ProfileEMMC8().Scaled(512), simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4096)
	for _, pw := range []blockdev.PrefixWriter{m, d} {
		for _, n := range []int{-1, len(p) + 1} {
			if err := pw.WritePrefix(p, n, 0); err == nil {
				t.Errorf("%T: WritePrefix with n=%d of %d accepted", pw, n, len(p))
			}
		}
	}
	p[100] = 1
	if err := m.WritePrefix(p, 101, 0); err != nil {
		t.Errorf("MemDevice: a true bound refused: %v", err)
	}
	if err := m.WritePrefix(p, 100, 4096); err == nil {
		t.Error("MemDevice: WritePrefix accepted a non-zero byte at n")
	}
	// On a device without the method, the helper writes the whole payload
	// through WriteAt.
	if err := blockdev.WritePrefix(struct{ blockdev.Device }{m}, p, 101, 8192); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if err := m.ReadAt(got, 8192); err != nil || !bytes.Equal(got, p) {
		t.Errorf("fallback WritePrefix stored something else (err %v)", err)
	}
}
