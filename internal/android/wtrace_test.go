package android

import (
	"testing"

	"flashwear/internal/device"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// TestPerAppWearAttribution boots phones (both filesystems) with wear
// tracing on, runs a heavy and a light writer side by side, and checks the
// full causal chain: each app's sandboxed writes — through the FS, its
// journal/metadata, the FTL, and GC — land in that app's ledger row, the
// decomposition identity holds against the device's own chip counters, and
// the heavy writer owns the wear.
func TestPerAppWearAttribution(t *testing.T) {
	for _, kind := range []FSKind{FSExt4, FSF2FS} {
		t.Run(string(kind), func(t *testing.T) {
			tr := wtrace.New()
			p, err := NewPhone(Config{
				Profile:   device.ProfileMotoE8().Scaled(512),
				FS:        kind,
				WearTrace: tr,
			}, simclock.New())
			if err != nil {
				t.Fatalf("NewPhone: %v", err)
			}
			heavy, err := p.InstallApp("com.example.heavy")
			if err != nil {
				t.Fatal(err)
			}
			light, err := p.InstallApp("com.example.light")
			if err != nil {
				t.Fatal(err)
			}

			buf := make([]byte, 64<<10)
			hf, err := heavy.Storage().Create("/big")
			if err != nil {
				t.Fatal(err)
			}
			// Heavy: rewrite a 1 MiB region many times, syncing, to push
			// real churn (and GC) through the stack.
			for i := 0; i < 128; i++ {
				if _, err := hf.WriteAt(buf, int64(i%16)*int64(len(buf))); err != nil {
					t.Fatalf("heavy write %d: %v", i, err)
				}
				if i%8 == 7 {
					if err := hf.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			lf, err := light.Storage().Create("/small")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lf.WriteAt(buf[:4096], 0); err != nil {
				t.Fatal(err)
			}
			if err := lf.Sync(); err != nil {
				t.Fatal(err)
			}

			// Identity against ground truth: the ledger must account for
			// exactly the operations the device's chips counted.
			f := p.Device().FTL()
			snap := tr.Snapshot()
			tot := snap.Totals()
			if got, want := tot.HostPages, f.Stats().HostPagesWritten; got != want {
				t.Errorf("ledger host pages = %d, FTL counted %d", got, want)
			}
			programs := f.MainChip().Stats().Programs
			erases := f.MainChip().Stats().Erases
			if c := f.CacheChip(); c != nil {
				programs += c.Stats().Programs
				erases += c.Stats().Erases
			}
			if tot.PhysPages != programs {
				t.Errorf("ledger phys pages = %d, chips counted %d", tot.PhysPages, programs)
			}
			if tot.Erases != erases {
				t.Errorf("ledger erases = %d, chips counted %d", tot.Erases, erases)
			}
			for _, r := range snap.Rows {
				if causes := r.HostPrograms + r.GCPrograms + r.WLPrograms + r.CachePrograms; r.PhysPages != causes {
					t.Errorf("origin %q: phys_pages %d != cause sum %d", r.Origin, r.PhysPages, causes)
				}
			}

			rows := map[string]wtrace.Row{}
			for _, r := range snap.Rows {
				rows[r.Origin] = r
			}
			h, l := rows["com.example.heavy"], rows["com.example.light"]
			if h.HostBytes == 0 || l.HostBytes == 0 {
				t.Fatalf("app rows missing wear: heavy=%+v light=%+v", h, l)
			}
			if h.PhysPages <= l.PhysPages {
				t.Errorf("heavy writer billed %d phys pages, light %d; attribution inverted",
					h.PhysPages, l.PhysPages)
			}
			if top := snap.Top(); top != "com.example.heavy" {
				t.Errorf("Top() = %q, want the heavy writer", top)
			}
			// mkfs and mount ran untagged, so "os" owns some wear too.
			if rows["os"].PhysPages == 0 {
				t.Error("os origin has no wear; mkfs/mount attribution lost")
			}
			if err := p.Shutdown(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPhoneWearTraceOffIsUntagged pins the default: with no tracer in the
// config, installs and writes work and nothing panics (origin plumbing
// must be inert, not half-wired).
func TestPhoneWearTraceOffIsUntagged(t *testing.T) {
	p := testPhone(t, FSExt4)
	a, err := p.InstallApp("com.example.plain")
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Storage().Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := f.WriteAt(make([]byte, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := p.Device().WearTracer(); got != nil {
		t.Fatalf("device has a tracer (%v) without Config.WearTrace", got)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
