package mitigation

import (
	"testing"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/device"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// TestClassifierAgreesWithWearGroundTruth scores the §4.5 classifier
// against causal ground truth. The classifier only sees the OS-level write
// stream (app, bytes, time); the wear tracer measures what actually wore
// the flash — every program and erase, attributed through FS metadata,
// journaling, and GC. On a mixed workload (a bursty camera, a chatty
// small writer, a sustained attacker) the app the classifier blames must
// be the app that tops the physical-wear ledger, and nobody else may be
// flagged.
func TestClassifierAgreesWithWearGroundTruth(t *testing.T) {
	tr := wtrace.New()
	clock := simclock.New()
	prof := device.ProfileMotoE8().Scaled(512)
	// The budget reflects a real device's endurance; the study device gets
	// effectively unlimited endurance so the attacker cannot brick it
	// mid-test (same trick as experiments.ClassifierEval).
	prof.RatedPE = 1_000_000
	prof.FirmwareRatedPE = 1_000_000
	cls := NewClassifier(testBudget())

	phone, err := android.NewPhone(android.Config{
		Profile:   prof,
		FS:        android.FSExt4,
		Charging:  android.AlwaysOn(),
		Screen:    android.Never(),
		WearTrace: tr,
		// Observe-only hook: classify, never throttle.
		Throttle: func(app string, bytes int64, now time.Duration) time.Duration {
			cls.ObserveWrite(app, bytes, false, now)
			return 0
		},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	install := func(name string) *android.App {
		app, err := phone.InstallApp(name)
		if err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
		return app
	}
	camera := install("camera")
	chat := install("chat")
	attacker := install("wear-attack")

	camFile, err := camera.Storage().Create("/photo")
	if err != nil {
		t.Fatal(err)
	}
	chatFile, err := chat.Storage().Create("/db")
	if err != nil {
		t.Fatal(err)
	}
	atkFile, err := attacker.Storage().Create("/junk")
	if err != nil {
		t.Fatal(err)
	}

	// One simulated hour in 30 s slices. Camera: occasional 2 MiB burst
	// (large writes, low duty). Chat: one 4 KiB write per slice (small and
	// persistent, but a trickle). Attacker: 120 x 64 KiB overwrites per
	// slice, ~256 KiB/s sustained — far over the lifespan budget.
	big := make([]byte, 2<<20)
	blk := make([]byte, 64<<10)
	for slice := 0; slice < 120; slice++ {
		if slice%20 == 0 {
			if _, err := camFile.WriteAt(big, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := chatFile.WriteAt(blk[:4096], 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			if _, err := atkFile.WriteAt(blk, int64(i%16)*int64(len(blk))); err != nil {
				t.Fatal(err)
			}
		}
		if err := atkFile.Sync(); err != nil {
			t.Fatal(err)
		}
		clock.Advance(30 * time.Second)
	}

	now := clock.Now()
	apps := []string{"camera", "chat", "wear-attack"}

	// The classifier's blame: highest score among the population.
	blamed, best := "", -1.0
	for _, name := range apps {
		if s := cls.Score(name, now); s > best {
			blamed, best = name, s
		}
	}
	// The ground truth: who actually wore the flash the most.
	snap := tr.Snapshot()
	truth := snap.Top()

	if truth != "wear-attack" {
		rows := ""
		for _, r := range snap.Rows {
			rows += r.Origin + " "
		}
		t.Fatalf("ledger ground truth Top() = %q (origins: %s); the attacker did not dominate wear — workload miscalibrated", truth, rows)
	}
	if blamed != truth {
		t.Errorf("classifier blames %q (score %.2f), but the wear ledger says %q caused the most physical wear",
			blamed, best, truth)
	}
	if !cls.Malicious(truth, now) {
		t.Errorf("true top wearer %q not flagged (score %.2f)", truth, cls.Score(truth, now))
	}
	for _, name := range []string{"camera", "chat"} {
		if cls.Malicious(name, now) {
			t.Errorf("benign app %q flagged (score %.2f); ledger billed it %v",
				name, cls.Score(name, now), snap)
		}
	}

	// The ledger itself must still satisfy the decomposition identity at
	// this level of the stack — attribution through sandbox, FS and FTL
	// loses nothing.
	f := phone.Device().FTL()
	tot := snap.Totals()
	if got, want := tot.HostPages, f.Stats().HostPagesWritten; got != want {
		t.Errorf("ledger host pages = %d, FTL counted %d", got, want)
	}
	programs := f.MainChip().Stats().Programs
	if c := f.CacheChip(); c != nil {
		programs += c.Stats().Programs
	}
	if tot.PhysPages != programs {
		t.Errorf("ledger phys pages = %d, chips counted %d", tot.PhysPages, programs)
	}
}
