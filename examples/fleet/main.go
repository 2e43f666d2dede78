// Fleet: the paper's §4.4 conclusion at population scale. A small-town
// carrier ships one budget phone model; a popular app picks up a cache
// bug like Spotify's [26] and a handful of users install something
// actively hostile. How many warranty returns arrive, and how fast?
//
// This is the programmatic counterpart of cmd/fleetsim: it builds a
// custom fleet.Spec (one device model, a harsher class mix than the
// default) and reads the merged statistics directly.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"flashwear/internal/device"
	"flashwear/internal/fleet"
	"flashwear/internal/report"
)

func main() {
	spec := fleet.Spec{
		Devices: 500,
		Seed:    1,
		Days:    90, // one quarter
		Scale:   8192,
		Profiles: []fleet.ProfileWeight{
			{Profile: device.ProfileBLU4(), Weight: 1},
		},
		Classes: []fleet.ClassWeight{
			{Class: fleet.ClassBenign, Weight: 0.92},
			{Class: fleet.ClassBuggy, Weight: 0.06},
			{Class: fleet.ClassAttack, Weight: 0.02},
		},
		Progress: func(done, total int, _ fleet.DeviceResult) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "simulated %d/%d phones\n", done, total)
			}
		},
	}
	res, err := fleet.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}

	t := res.Total
	fmt.Printf("One quarter, %d phones (%s):\n", t.Devices, spec.Profiles[0].Profile.Name)
	fmt.Printf("  returned bricked:   %d (%.1f%%)\n", t.Bricked, t.BrickFraction()*100)
	fmt.Printf("  mean time-to-brick: %.0f days\n", t.MeanDaysToBrick())
	for _, class := range []string{"benign", "buggy", "attack"} {
		if g := res.ByClass[class]; g != nil {
			fmt.Printf("  %-7s phones: %3d, bricked %d\n", class, g.Devices, g.Bricked)
		}
	}
	if t.Bricked > 0 {
		p := report.Percentiles(res.TimeToBrick, 0.5, 0.9)
		fmt.Printf("  half the dead phones died within %.0f days, 90%% within %.0f\n", p[0], p[1])
	}
	fmt.Println("\nEvery one of those phones passed its app store review: the bug")
	fmt.Println("and the attack are unprivileged writes to private app storage.")
}
