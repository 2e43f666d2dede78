package core

import (
	"testing"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

func TestEnvelopeMath(t *testing.T) {
	e := NewEnvelope(8 << 30)
	if e.AssumedPE != 3000 {
		t.Fatalf("AssumedPE = %d", e.AssumedPE)
	}
	if e.TotalHostBytes() != 8<<30*3000 {
		t.Fatalf("TotalHostBytes = %d", e.TotalHostBytes())
	}
	if e.BytesPerIncrement() != e.TotalHostBytes()/10 {
		t.Fatal("BytesPerIncrement wrong")
	}
}

// fastProfile is a tiny device that wears out quickly.
func fastProfile(rated int) device.Profile {
	p := device.ProfileEMMC8().Scaled(512) // 16 MiB
	p.RatedPE = rated
	p.FirmwareRatedPE = 0
	return p
}

func TestRunnerRecordsMonotonicIncrements(t *testing.T) {
	clock := simclock.New()
	dev, err := device.New(fastProfile(80), clock)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(dev, clock, 512)
	r.Pattern = "4 KiB rand"
	w := workload.NewDeviceWriter(dev, 4096, false, 9)
	w.RegionLen = dev.Size() / 16 // small hot region, like the 4x100MB files
	if err := r.RunPhase(w.Step, 0, r.UntilLevel(ftl.PoolB, 11)); err != nil {
		t.Fatalf("RunPhase: %v", err)
	}
	rep := r.Report()
	incs := rep.IncrementsFor(ftl.PoolB)
	if len(incs) < 9 {
		t.Fatalf("only %d increments recorded", len(incs))
	}
	for i, inc := range incs {
		if inc.ToLevel <= inc.FromLevel {
			t.Fatalf("increment %d not monotonic: %+v", i, inc)
		}
		if inc.HostGiB <= 0 || inc.Hours <= 0 {
			t.Fatalf("increment %d has empty measurements: %+v", i, inc)
		}
		if inc.Pattern != "4 KiB rand" {
			t.Fatalf("increment %d lost its label", i)
		}
	}
	// Figure 2's shape: the volume per increment is roughly constant.
	mean := rep.MeanHostGiBPerIncrement(ftl.PoolB)
	for _, inc := range incs[1:] { // first increment includes break-in
		if inc.HostGiB < mean*0.4 || inc.HostGiB > mean*2.5 {
			t.Fatalf("increment %v deviates wildly from mean %.2f GiB", inc, mean)
		}
	}
	if rep.FinalWA < 1 {
		t.Fatalf("FinalWA = %v", rep.FinalWA)
	}
	if rep.TotalHostGiB <= 0 || rep.TotalHours <= 0 {
		t.Fatalf("totals empty: %+v", rep)
	}
}

func TestRunnerScalesResults(t *testing.T) {
	// The same physical run reported at scale 512 must show 512x the
	// volume of a scale-1 report.
	run := func(scale int64) float64 {
		clock := simclock.New()
		dev, err := device.New(fastProfile(60), clock)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(dev, clock, scale)
		w := workload.NewDeviceWriter(dev, 4096, false, 9)
		w.RegionLen = dev.Size() / 16
		if err := r.RunPhase(w.Step, 0, r.UntilLevel(ftl.PoolB, 3)); err != nil {
			t.Fatal(err)
		}
		return r.Report().TotalHostGiB
	}
	small, big := run(1), run(512)
	ratio := big / small
	if ratio < 511 || ratio > 513 {
		t.Fatalf("scale ratio = %v, want 512", ratio)
	}
}

func TestRunnerPhaseBudget(t *testing.T) {
	clock := simclock.New()
	dev, err := device.New(fastProfile(100_000), clock)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(dev, clock, 1)
	w := workload.NewDeviceWriter(dev, 4096, true, 1)
	if err := r.RunPhase(w.Step, 8<<20, nil); err != nil {
		t.Fatal(err)
	}
	got := r.Report().TotalHostGiB * 1024 // MiB
	if got < 8 || got > 13 {
		t.Fatalf("phase wrote %.1f MiB, want ~8-12", got)
	}
}

func newAttackPhone(t *testing.T, prof device.Profile, fsKind android.FSKind) (*android.Phone, *android.App) {
	t.Helper()
	clock := simclock.New()
	phone, err := android.NewPhone(android.Config{Profile: prof, FS: fsKind}, clock)
	if err != nil {
		t.Fatal(err)
	}
	app, err := phone.InstallApp("com.innocuous.notes")
	if err != nil {
		t.Fatal(err)
	}
	return phone, app
}

func TestContinuousAttackBricksPhone(t *testing.T) {
	phone, app := newAttackPhone(t, fastProfile(60), android.FSExt4)
	// Start at noon: on battery with the screen on, so a continuous
	// attack is exposed to both monitors.
	phone.Clock().AdvanceTo(12 * time.Hour)
	atk := NewAttack(app, Continuous, 1024)
	rep, err := atk.Run(phone, 365*24*time.Hour)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	if !rep.Bricked {
		t.Fatalf("phone survived: %+v", rep)
	}
	if rep.FootprintPct > 3.5 {
		t.Fatalf("attack used %.1f%% of capacity, paper promises <3%%", rep.FootprintPct)
	}
	if len(rep.Increments) == 0 {
		t.Fatal("no wear increments observed before brick")
	}
	// Continuous attacks are visible: midday I/O is on battery with the
	// screen on.
	if rep.PowerJoulesAttributed == 0 {
		t.Error("continuous attack invisible to power monitor")
	}
	if rep.ProcessObservedCount == 0 {
		t.Error("continuous attack invisible to process monitor")
	}
}

func TestStealthAttackEvadesMonitorsAndStillBricks(t *testing.T) {
	phone, app := newAttackPhone(t, fastProfile(60), android.FSExt4)
	// Start at noon: screen on, on battery — stealth must wait.
	phone.Clock().AdvanceTo(12 * time.Hour)
	atk := NewAttack(app, Stealth, 1024)
	rep, err := atk.Run(phone, 365*24*time.Hour)
	if err != nil {
		t.Fatalf("attack: %v", err)
	}
	if !rep.Bricked {
		t.Fatalf("stealth attack failed to brick: %+v", rep)
	}
	if rep.PowerJoulesAttributed != 0 {
		t.Errorf("stealth attack attributed %v J on battery", rep.PowerJoulesAttributed)
	}
	if rep.ProcessObservedCount != 0 {
		t.Errorf("stealth attack observed %d times", rep.ProcessObservedCount)
	}
}

func TestStealthSlowerThanContinuous(t *testing.T) {
	run := func(mode AttackMode) float64 {
		phone, app := newAttackPhone(t, fastProfile(60), android.FSExt4)
		phone.Clock().AdvanceTo(8 * time.Hour) // screen just came on
		atk := NewAttack(app, mode, 1024)
		rep, err := atk.Run(phone, 365*24*time.Hour)
		if err != nil || !rep.Bricked {
			t.Fatalf("mode %v: err=%v bricked=%v", mode, err, rep.Bricked)
		}
		return rep.Hours
	}
	cont, stealth := run(Continuous), run(Stealth)
	if stealth <= cont {
		t.Fatalf("stealth (%.1fh) should take longer than continuous (%.1fh)", stealth, cont)
	}
}

func TestAttackOnF2FSWritesMoreToDevice(t *testing.T) {
	// Figure 4: the same host volume produces ~2x device I/O on F2FS.
	deviceWA := func(kind android.FSKind) float64 {
		phone, app := newAttackPhone(t, fastProfile(100_000), kind)
		atk := NewAttack(app, Continuous, 1024)
		atk.SyncEvery = 1
		set := workloadSetup(t, atk, phone)
		before := phone.Device().BytesWritten()
		hostBefore := phone.AppIOStats(app.Name()).BytesWritten
		if _, err := set.Step(4 << 20); err != nil {
			t.Fatal(err)
		}
		host := phone.AppIOStats(app.Name()).BytesWritten - hostBefore
		dev := phone.Device().BytesWritten() - before
		return float64(dev) / float64(host)
	}
	ext4, f2 := deviceWA(android.FSExt4), deviceWA(android.FSF2FS)
	if f2 < ext4*1.5 {
		t.Fatalf("F2FS device I/O per host byte (%.2f) not ~2x ext4 (%.2f)", f2, ext4)
	}
	if ext4 > 1.6 {
		t.Fatalf("ext4 overhead %.2f too high (lazytime should keep it near 1)", ext4)
	}
}

// workloadSetup builds the attack's file set without running the full loop.
func workloadSetup(t *testing.T, a *Attack, phone *android.Phone) *workload.FileSet {
	t.Helper()
	set := workload.NewFileSet(a.App.Storage(), "/wear", a.FileSize, 7)
	set.NumFiles = a.NumFiles
	set.ReqBytes = a.ReqBytes
	set.SyncEvery = a.SyncEvery
	if err := set.Setup(); err != nil {
		t.Fatal(err)
	}
	return set
}

func TestAttackModeString(t *testing.T) {
	if Continuous.String() != "continuous" || Stealth.String() != "stealth" {
		t.Fatal("mode strings")
	}
}
