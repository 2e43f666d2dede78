package main

import (
	"testing"

	"flashwear/internal/android"
	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/fs"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

// tinySizes keep a pass of every workload to a few hundredths of a second.
var tinySizes = sizes{
	ChipScale: 1024, ChipLevel: 3,
	PhoneScale: 1024, PhoneDays: 0.25,
	FleetDevices: 6, FleetDays: 2, FleetScale: 4096,
	CampaignDevices: 6, CampaignDays: 3, CampaignScale: 4096,
}

// fsStack runs the sync-rewrite workload on a hand-mounted file system,
// optionally with both interposers in, and returns the device's end state.
func fsStack(t *testing.T, kind android.FSKind, interposed bool) (devicePrint, *meterDev, *meterSimFS) {
	t.Helper()
	dev, err := device.New(device.ProfileMotoE8().Scaled(1024), simclock.New())
	if err != nil {
		t.Fatal(err)
	}
	var under blockdev.Device = dev
	var md *meterDev
	if interposed {
		md = &meterDev{Inner: dev}
		under = md
	}
	fsys, err := mountOn(under, kind)
	if err != nil {
		t.Fatal(err)
	}
	var mf *meterSimFS
	var top fs.FileSystem = fsys
	if interposed {
		mf = &meterSimFS{FileSystem: fsys}
		top = mf
	}
	set := workload.NewFileSet(top, "/wear", dev.Size()/160, 77)
	if err := set.Setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Step(500 * 4096); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Unmount(); err != nil {
		t.Fatal(err)
	}
	return printDevice(dev, nil), md, mf
}

// The interposers must be invisible to the simulation: the wrapped stack
// ends in exactly the state of the bare one.
func TestInterposersKeepFingerprint(t *testing.T) {
	for _, kind := range []android.FSKind{android.FSExt4, android.FSF2FS} {
		bare, _, _ := fsStack(t, kind, false)
		wrapped, md, mf := fsStack(t, kind, true)
		want, err := fingerprintOf(bare)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fingerprintOf(wrapped)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: interposed stack ended in %+v, bare stack in %+v", kind, wrapped, bare)
		}
		if mf.Writes.Calls < 500 || mf.Syncs.Calls < 500 || md.Writes.Calls < mf.Writes.Calls {
			t.Errorf("%s: interposers saw %d FS writes, %d syncs, %d device writes; want at least 500, 500 and one device write per FS write",
				kind, mf.Writes.Calls, mf.Syncs.Calls, md.Writes.Calls)
		}
		if md.BytesWritten != wrapped.FTL.HostBytesWritten {
			t.Errorf("%s: device interposer counted %d bytes, the FTL %d", kind, md.BytesWritten, wrapped.FTL.HostBytesWritten)
		}
	}

	// chip_table1 is the workload whose passes carry the blockdev
	// interposer: traced and plain passes must agree.
	plain, err := runChipTable1(passEnv{seed: defaultSeed, size: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	traced, err := runChipTable1(passEnv{seed: defaultSeed, size: tinySizes, span: rec.Root("pass")})
	if err != nil {
		t.Fatal(err)
	}
	if traced.fingerprint != plain.fingerprint {
		t.Errorf("chip_table1: traced pass fingerprint %s, plain %s", traced.fingerprint, plain.fingerprint)
	}
	var deviceCalls int64
	for _, s := range rec.Spans() {
		if s.Count > 1 {
			deviceCalls += s.Count
		}
	}
	if deviceCalls == 0 {
		t.Errorf("chip_table1: traced pass charged no device calls to its %d spans", len(rec.Spans()))
	}
}
