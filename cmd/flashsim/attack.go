package main

import (
	"fmt"
	"os"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/report"
	"flashwear/internal/simclock"
)

// attack runs §4.4's attack end to end: an unprivileged app on a simulated
// phone rewrites four 100 MB files in its private storage until the flash
// is destroyed, optionally in stealth mode (I/O only while charging with
// the screen off, evading the power and process monitors).
func attack(args []string) {
	var o options
	fs := newFlagSet("attack", &o, 256, "device capacity divisor")
	phoneName := fs.String("phone", "Moto E 8GB", "device profile to attack")
	fsKind := fs.String("fs", "ext4", "file system: ext4 or f2fs")
	stealth := fs.Bool("stealth", false, "run only while charging with the screen off")
	parse(fs, args)

	prof, err := device.ProfileByName(*phoneName)
	if err != nil {
		fail(exitUsage, err)
	}
	eff := prof.EffectiveScale(o.scale)
	clock := simclock.New()
	phone, err := android.NewPhone(android.Config{
		Profile: prof.Scaled(o.scale),
		FS:      android.FSKind(*fsKind),
	}, clock)
	if err != nil {
		fail(exitError, err)
	}
	app, err := phone.InstallApp("com.innocuous.wallpaper")
	if err != nil {
		fail(exitError, err)
	}
	clock.AdvanceTo(10 * time.Hour) // mid-morning install

	mode := core.Continuous
	if *stealth {
		mode = core.Stealth
	}
	fmt.Fprintf(os.Stderr, "attacking %s (%s, %v mode, scale %d)...\n", prof.Name, *fsKind, mode, eff)
	rep, err := core.NewAttack(app, mode, eff).Run(phone, 10*365*24*time.Hour)
	if err != nil {
		fail(exitError, err)
	}

	fmt.Printf("Attack report for %s (%s, %v):\n", prof.Name, *fsKind, rep.Mode)
	fmt.Printf("  bricked:              %v\n", rep.Bricked)
	fmt.Printf("  host I/O issued:      %.0f GiB (footprint %.1f%% of capacity)\n",
		rep.HostGiB, rep.FootprintPct)
	fmt.Printf("  active I/O time:      %.1f h\n", rep.ActiveHours)
	fmt.Printf("  wall-clock time:      %.1f h (%.1f days, duty cycle %.0f%%)\n",
		rep.Hours, rep.Hours/24, rep.DutyCycle*100)
	fmt.Printf("  PRE_EOL at end:       %d\n", rep.FinalPreEOL)
	fmt.Printf("  power monitor saw:    %.2f J attributed\n", rep.PowerJoulesAttributed)
	fmt.Printf("  process monitor saw:  %d sightings\n", rep.ProcessObservedCount)
	fmt.Println()

	tbl := report.NewTable("Wear indicator progression", "Pool", "Level", "Host GiB", "Hours")
	for _, inc := range rep.Increments {
		tbl.AddRow(inc.Pool.String(), fmt.Sprintf("%d-%d", inc.FromLevel, inc.ToLevel),
			inc.HostGiB, inc.Hours)
	}
	tbl.Render(os.Stdout)
}
