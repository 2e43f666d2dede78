package experiments

import (
	"flashwear/internal/device"
	"flashwear/internal/workload"
)

// Figure1Point is one (device, request size) measurement.
type Figure1Point struct {
	Device    string
	ReqBytes  int64
	SeqMiBps  float64
	RandMiBps float64
}

// Figure1 reproduces Figure 1: synchronous write bandwidth versus request
// size (0.5 KiB – 16 MiB), sequential and random, for the five devices of
// §4.1. Each (device, pattern) pair runs on a fresh device so garbage
// collection state does not leak between curves.
func Figure1(cfg Config) ([]Figure1Point, error) {
	cfg = cfg.Defaults()
	maxReq := workload.Figure1Sizes()[len(workload.Figure1Sizes())-1]
	var out []Figure1Point
	for _, prof := range device.Figure1Profiles() {
		cfg.Progress("figure 1: %s", prof.Name)
		// Bandwidth curves need the device to hold several of the largest
		// requests; cap the scale per profile accordingly.
		scale := cfg.Scale
		if maxScale := prof.CapacityBytes / (4 * maxReq); scale > maxScale {
			scale = maxScale
		}
		if scale < 1 {
			scale = 1
		}
		for _, size := range workload.Figure1Sizes() {
			p := Figure1Point{Device: prof.Name, ReqBytes: size}
			for _, sequential := range []bool{true, false} {
				dev, clock, _, err := newDevice(prof, scale)
				if err != nil {
					return nil, err
				}
				perPoint := int64(2 << 20)
				if perPoint < 3*size {
					perPoint = 3 * size
				}
				if perPoint > dev.Size()/2 {
					perPoint = dev.Size() / 2
				}
				res, err := workload.Microbench(dev, clock, size, sequential, perPoint, 42)
				if err != nil {
					return nil, err
				}
				if sequential {
					p.SeqMiBps = res.MiBps()
				} else {
					p.RandMiBps = res.MiBps()
				}
			}
			out = append(out, p)
		}
	}
	return out, nil
}
