// Wearattack: the paper's §4.4 experiment end to end. An unprivileged app
// is installed on a simulated Moto E, continuously rewrites four files in
// its private storage, and destroys the phone's flash — then the same
// attack runs in stealth mode, invisible to both OS monitors.
package main

import (
	"fmt"
	"log"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/simclock"
)

func runAttack(mode core.AttackMode) core.AttackReport {
	const scale = 512
	clock := simclock.New()
	phone, err := android.NewPhone(android.Config{
		Profile: device.ProfileMotoE8().Scaled(scale),
		FS:      android.FSExt4,
	}, clock)
	if err != nil {
		log.Fatal(err)
	}
	// "our application required no special permissions"
	app, err := phone.InstallApp("com.innocuous.wallpaper")
	if err != nil {
		log.Fatal(err)
	}
	clock.AdvanceTo(10 * time.Hour) // installed mid-morning

	atk := core.NewAttack(app, mode, device.ProfileMotoE8().EffectiveScale(scale))
	rep, err := atk.Run(phone, 10*365*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	for _, mode := range []core.AttackMode{core.Continuous, core.Stealth} {
		rep := runAttack(mode)
		fmt.Printf("=== %v attack on Moto E 8GB ===\n", mode)
		fmt.Printf("  phone bricked:        %v\n", rep.Bricked)
		fmt.Printf("  storage footprint:    %.1f%% of capacity\n", rep.FootprintPct)
		fmt.Printf("  host writes issued:   %.0f GiB\n", rep.HostGiB)
		fmt.Printf("  wall-clock time:      %.1f days (duty cycle %.0f%%)\n",
			rep.Hours/24, rep.DutyCycle*100)
		fmt.Printf("  battery stats saw:    %.2f J\n", rep.PowerJoulesAttributed)
		fmt.Printf("  running-apps view:    %d sightings\n", rep.ProcessObservedCount)
		fmt.Println()
	}
	fmt.Println("The stealth run bricks the phone within a small factor of the")
	fmt.Println("continuous one while both monitors report nothing at all (§4.4).")
}
