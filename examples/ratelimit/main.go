// Ratelimit: install the §4.5 mitigations on a phone and watch them blunt
// the wear attack. A lifespan budget is derived from the device's capacity
// and endurance, a selective throttler is wired into the OS write path, and
// a S.M.A.R.T.-style wear watch raises alerts as the flash ages.
package main

import (
	"fmt"
	"log"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/mitigation"
	"flashwear/internal/simclock"
)

func main() {
	const scale = 1024
	prof := device.ProfileMotoE8()
	prof.RatedPE = 200 // a short-lived variant keeps the demo quick
	prof.FirmwareRatedPE = 200
	eff := prof.EffectiveScale(scale)
	scaled := prof.Scaled(scale)

	// The defensive inverse of §2.3's estimate: for this device to last 3
	// (scaled) years, apps may collectively write only so much per day.
	budget := mitigation.LifespanBudget{
		CapacityBytes: scaled.CapacityBytes,
		RatedPE:       scaled.RatedPE,
		TargetYears:   3.0 / float64(eff),
		ExpectedWA:    2,
	}
	// BytesPerDay is scale-invariant: the scaled capacity and the scaled
	// target lifetime cancel out.
	fmt.Printf("Lifespan budget: %.1f MiB/day sustains a 3-year life\n",
		budget.BytesPerDay()/(1<<20))

	throttler, err := mitigation.NewSelectiveThrottler(budget)
	if err != nil {
		log.Fatal(err)
	}
	clock := simclock.New()
	phone, err := android.NewPhone(android.Config{
		Profile:  scaled,
		FS:       android.FSExt4,
		Charging: android.AlwaysOn(), // isolate the throttling effect
		Screen:   android.Never(),
		Throttle: throttler.Throttle,
	}, clock)
	if err != nil {
		log.Fatal(err)
	}

	attacker, _ := phone.InstallApp("com.evil.wear")
	benign, _ := phone.InstallApp("com.good.camera")
	watch := mitigation.NewWearWatch(phone.Device())

	// The attack: sustained 4 KiB synchronous rewrites, for half a
	// (scaled) simulated day. Unthrottled it would consume most of this
	// short-lived device's endurance; under the throttle it is pinned to
	// the lifespan budget.
	atk := core.NewAttack(attacker, core.Continuous, eff)
	atk.FileSize = phone.Device().Size() / 40
	rep, err := atk.Run(phone, 12*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	sample := watch.Sample(clock.Now())
	fmt.Printf("\nAfter %.0f (full-scale) days of attack under the selective throttle:\n", rep.Hours/24)
	fmt.Printf("  phone bricked:   %v\n", rep.Bricked)
	fmt.Printf("  life consumed:   indicator %d/11 (alert: %v)\n", sample.LevelB, sample.Alert)
	fmt.Printf("  attacker wrote:  %.1f GiB (throttled to the budget)\n", rep.HostGiB)

	// The benign app's burst is untouched: the classifier never flags it.
	f, err := benign.Storage().Create("/holiday-photos.bin")
	if err != nil {
		log.Fatal(err)
	}
	start := clock.Now()
	chunk := make([]byte, 256<<10)
	burst := phone.Device().Size() / 4
	for off := int64(0); off < burst; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk, off); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nBenign %.1f MiB import finished in %.2f s — no throttling.\n",
		float64(burst)/(1<<20), (clock.Now() - start).Seconds())
	fmt.Printf("Attacker's classifier score: malicious=%v; camera flagged: %v\n",
		throttler.Classifier.Malicious(attacker.Name(), clock.Now()),
		throttler.Classifier.Malicious(benign.Name(), clock.Now()))
}
