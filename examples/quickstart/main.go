// Quickstart: build a simulated eMMC device, push some writes through it,
// and watch the JEDEC wear-out indicator move — the five-minute tour of the
// flashwear API.
package main

import (
	"fmt"
	"log"

	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

func main() {
	// A clock everything shares: the device advances it by each request's
	// service time, so elapsed simulated time is meaningful.
	clock := simclock.New()

	// The paper's Toshiba 8GB eMMC, scaled down 512x (16 MiB) so this
	// example runs in milliseconds. Scaling preserves bandwidths and
	// wear-per-scaled-byte; see DESIGN.md.
	profile := device.ProfileEMMC8()
	dev, err := device.New(profile.Scaled(512), clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Device: %s, %d MiB exported, rated %d P/E cycles\n",
		profile.Name, dev.Size()>>20, profile.RatedPE)

	// §2.3's back-of-the-envelope expectation for the full-size device.
	env := core.NewEnvelope(profile.CapacityBytes)
	fmt.Printf("Envelope says: %d GiB of writes (%d full rewrites) before wear-out\n",
		env.TotalHostBytes()>>30, env.AssumedPE)

	// Hammer a small region with 4 KiB random writes — the paper's attack
	// pattern — and watch the health registers.
	w := workload.NewDeviceWriter(dev, 4096, false, 42)
	w.RegionLen = dev.Size() / 16 // a small hot region, like 4 x 100MB files

	var written int64
	lastLevel := dev.WearIndicator(ftl.PoolB)
	fmt.Printf("\n%-12s %-10s %-10s %-6s\n", "host MiB", "indicator", "PRE_EOL", "WA")
	for level := lastLevel; level < 4; {
		n, err := w.Step(4 << 20)
		written += n
		if err != nil {
			fmt.Println("device failed:", err)
			break
		}
		if level = dev.WearIndicator(ftl.PoolB); level > lastLevel {
			fmt.Printf("%-12d %-10d %-10d %-6.2f\n",
				written>>20, level, dev.PreEOLInfo(), dev.FTL().WriteAmplification())
			lastLevel = level
		}
	}
	fmt.Printf("\nSimulated time elapsed: %.1f s at ~%.1f MiB/s\n",
		clock.Now().Seconds(), float64(written)/clock.Now().Seconds()/(1<<20))
	fmt.Println("Each indicator step is 10% of the device's life — gone.")
}
