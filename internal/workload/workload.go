// Package workload provides the I/O generators the experiments run: raw
// device write patterns (the fio-style microbenchmarks of Figure 1 and the
// pattern phases of Table 1) and the file-rewriting workload the paper's
// attack app issues (§4.3–4.4: "repeatedly rewrote small, randomly-selected
// regions of four 100MB files").
package workload

import (
	"fmt"
	"math/rand"

	"flashwear/internal/blockdev"
)

// DeviceWriter issues a raw write pattern against a block device in
// caller-controlled steps, so experiments can interleave I/O with wear
// sampling.
type DeviceWriter struct {
	Dev blockdev.Device
	// ReqBytes is the request size (0.5 KiB – 16 MiB in Figure 1).
	ReqBytes int64
	// Sequential selects sequential (wrap-around) addressing; otherwise
	// offsets are uniformly random within the region.
	Sequential bool
	// RegionOff/RegionLen restrict the pattern to a slice of the device;
	// a zero RegionLen means the whole device.
	RegionOff, RegionLen int64

	rng    *rand.Rand
	cursor int64
	inited bool
}

// NewDeviceWriter builds a writer with a deterministic seed.
func NewDeviceWriter(dev blockdev.Device, reqBytes int64, sequential bool, seed int64) *DeviceWriter {
	return &DeviceWriter{Dev: dev, ReqBytes: reqBytes, Sequential: sequential, rng: rand.New(rand.NewSource(seed))}
}

func (w *DeviceWriter) init() error {
	if w.inited {
		return nil
	}
	if w.rng == nil {
		// No silent fallback seed: a writer whose draws are not tied to an
		// explicit seed would make the run unreproducible without anyone
		// noticing (flashvet globalrand would flag a literal here too).
		return fmt.Errorf("workload: DeviceWriter has no RNG: construct it with NewDeviceWriter so the seed is explicit")
	}
	if w.ReqBytes <= 0 {
		return fmt.Errorf("workload: ReqBytes = %d", w.ReqBytes)
	}
	// Align the region to the request unit so generated offsets are valid.
	if unit := w.alignUnit(); w.RegionOff%unit != 0 {
		delta := unit - w.RegionOff%unit
		w.RegionOff += delta
		if w.RegionLen > delta {
			w.RegionLen -= delta
		}
	}
	if w.RegionLen == 0 {
		w.RegionLen = w.Dev.Size() - w.RegionOff
	}
	if w.RegionOff < 0 || w.RegionLen < w.ReqBytes || w.RegionOff+w.RegionLen > w.Dev.Size() {
		return fmt.Errorf("workload: region [%d,+%d) invalid for device of %d bytes and %d-byte requests",
			w.RegionOff, w.RegionLen, w.Dev.Size(), w.ReqBytes)
	}
	w.cursor = w.RegionOff
	w.inited = true
	return nil
}

// alignUnit is the request alignment unit (like fio's bs-aligned random
// offsets), falling back to sector alignment for odd request sizes.
func (w *DeviceWriter) alignUnit() int64 {
	unit := w.ReqBytes
	if unit <= 0 || unit%int64(w.Dev.SectorSize()) != 0 {
		unit = int64(w.Dev.SectorSize())
	}
	return unit
}

// alignOff rounds an offset down to the alignment unit.
func (w *DeviceWriter) alignOff(off int64) int64 {
	unit := w.alignUnit()
	return off - off%unit
}

// Step writes approximately budget bytes (a whole number of requests, at
// least one) and returns the bytes actually written.
func (w *DeviceWriter) Step(budget int64) (int64, error) {
	if err := w.init(); err != nil {
		return 0, err
	}
	var written int64
	for written == 0 || written+w.ReqBytes <= budget {
		var off int64
		if w.Sequential {
			off = w.cursor
			w.cursor += w.ReqBytes
			if w.cursor+w.ReqBytes > w.RegionOff+w.RegionLen {
				w.cursor = w.RegionOff
			}
		} else {
			span := w.RegionLen - w.ReqBytes
			off = w.RegionOff
			if span > 0 {
				off += w.alignOff(w.rng.Int63n(span + 1))
			}
		}
		if err := w.Dev.WriteAccounted(off, w.ReqBytes); err != nil {
			return written, err
		}
		written += w.ReqBytes
	}
	return written, nil
}

// FillDevice writes static data sequentially over frac of the device's
// capacity starting at offset 0 — the "space utilisation" dial of Table 1.
func FillDevice(dev blockdev.Device, frac float64) (int64, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("workload: fill fraction %g out of range", frac)
	}
	total := int64(float64(dev.Size()) * frac)
	const chunk = 1 << 20
	var written int64
	for written < total {
		n := int64(chunk)
		if written+n > total {
			n = total - written
		}
		if n < int64(dev.SectorSize()) {
			break
		}
		n -= n % int64(dev.SectorSize())
		if err := dev.WriteAccounted(written, n); err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}
