package f2fs

import (
	"testing"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/faultinject"
	"flashwear/internal/fs"
	"flashwear/internal/fs/fstest"
	"flashwear/internal/simclock"
)

// TestConformance runs the shared fs.FileSystem contract suite on f2fs.
func TestConformance(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fs.FileSystem {
		dev, err := blockdev.NewMem(24<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		v, err := Mount(dev, fs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	})
}

// TestCrashConformance runs the shared crash-consistency suite on f2fs,
// with the offline checker after every recovery.
func TestCrashConformance(t *testing.T) {
	var dev *blockdev.MemDevice
	fstest.RunCrash(t, func(t *testing.T) (fstest.CrashFS, func(t *testing.T) fstest.CrashFS) {
		d, err := blockdev.NewMem(24<<20, 512)
		if err != nil {
			t.Fatal(err)
		}
		dev = d
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		mount := func(t *testing.T) fstest.CrashFS {
			v, err := Mount(dev, fs.Options{})
			if err != nil {
				t.Fatalf("remount: %v", err)
			}
			return v
		}
		return mount(t), mount
	}, func(t *testing.T) {
		rep, err := Check(dev)
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("check after recovery: %v", rep.Corruptions)
		}
	})
}

// faultyCrashFS couples the file system's crash with the device's power
// rail: SimulateCrash drops FS volatile state AND cuts device power, so
// recovery exercises the FTL's OOB-scan rebuild underneath roll-forward.
type faultyCrashFS struct {
	fstest.CrashFS
	dev *device.Device
}

func (f faultyCrashFS) SimulateCrash() {
	f.CrashFS.SimulateCrash()
	f.dev.CutPower()
}

// TestCrashConformanceOnFaultyFlash runs the crash suite on a simulated
// flash device under an injected fault plan, with every crash also cutting
// device power — the log-on-log recovery stack (f2fs roll-forward over FTL
// OOB-scan rebuild) with transient faults firing underneath.
//
// FaultsFired proves the read and program faults fired. Erase faults
// cannot: the scripts never fill a volume far enough to garbage-collect,
// so no block is erased (none was even at EraseFaultProb 1).
func TestCrashConformanceOnFaultyFlash(t *testing.T) {
	var dev *device.Device
	var injs []*faultinject.Injector // every volume's, for the fault tally
	fstest.RunCrash(t, func(t *testing.T) (fstest.CrashFS, func(t *testing.T) fstest.CrashFS) {
		prof := device.ProfileMotoE8().Scaled(256)
		prof.Faults = &faultinject.Plan{
			Seed:             23,
			ReadFaultProb:    2e-2,
			ProgramFaultProb: 1e-2,
			EraseFaultProb:   1e-4,
		}
		d, err := device.New(prof, simclock.New())
		if err != nil {
			t.Fatal(err)
		}
		dev = d
		injs = append(injs, d.Injector())
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		mount := func(t *testing.T) fstest.CrashFS {
			if dev.FTL().PowerLost() {
				if err := dev.PowerCycle(); err != nil {
					t.Fatalf("power cycle: %v", err)
				}
			}
			v, err := Mount(dev, fs.Options{})
			if err != nil {
				t.Fatalf("remount: %v", err)
			}
			return faultyCrashFS{v, dev}
		}
		return mount(t), mount
	}, func(t *testing.T) {
		rep, err := Check(dev)
		if err != nil {
			t.Fatalf("check: %v", err)
		}
		if !rep.Clean() {
			t.Fatalf("check after faulty-flash recovery: %v", rep.Corruptions)
		}
	})
	fstest.FaultsFired(t, injs)
}

// TestConformanceOnFlash runs the contract suite with f2fs mounted on a
// real simulated flash device — the log-on-log stack a phone actually runs.
func TestConformanceOnFlash(t *testing.T) {
	fstest.Run(t, func(t *testing.T) fs.FileSystem {
		dev, err := device.New(device.ProfileMotoE8().Scaled(256), simclock.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := Mkfs(dev); err != nil {
			t.Fatal(err)
		}
		v, err := Mount(dev, fs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return v
	})
}
