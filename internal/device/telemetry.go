package device

import (
	"flashwear/internal/ftl"
	"flashwear/internal/telemetry"
)

// Instrument registers the device's host-side counters and JEDEC health
// gauges with reg, and recursively attaches the FTL and its chips. Call it
// at device birth, before any host I/O, so the sampled series accounts
// for every host byte from the first.
//
// The wear-level gauges deliberately read the FTL's ground-truth estimate,
// NOT Device.WearIndicator: on UnreliableIndicator profiles the register
// read draws from the device RNG (garbage values, like the real BLU
// parts), and telemetry must never perturb the simulation it observes
// (DESIGN.md §7). The register's lies stay visible through
// Device.WearIndicator, which models an actual host read.
func (d *Device) Instrument(reg *telemetry.Registry) {
	d.f.Attach(reg)
	d.f.MainChip().Instrument(reg, "main")
	if c := d.f.CacheChip(); c != nil {
		c.Instrument(reg, "cache")
	}
	reg.CounterFunc("device.bytes_written", func() int64 { return d.bytesWritten })
	reg.CounterFunc("device.bytes_read", func() int64 { return d.bytesRead })
	reg.GaugeFunc("device.busy_hours", func() float64 { return d.busy.Hours() })
	reg.GaugeFunc("device.bricked", func() float64 {
		if d.f.Bricked() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("device.read_only", func() float64 {
		if d.f.ReadOnly() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("device.failed", func() float64 {
		if d.f.Failed() {
			return 1
		}
		return 0
	})
	if d.inj != nil {
		d.inj.Instrument(reg)
	}
	if d.tr != nil {
		d.tr.Attach(reg)
	}
	reg.GaugeFunc(telemetry.Name("device.wear_level", "pool", "a"), func() float64 {
		return float64(d.f.WearIndicator(ftl.PoolA))
	})
	reg.GaugeFunc(telemetry.Name("device.wear_level", "pool", "b"), func() float64 {
		return float64(d.f.WearIndicator(ftl.PoolB))
	})
	reg.GaugeFunc("device.pre_eol", func() float64 { return float64(d.f.PreEOLInfo()) })
	reg.GaugeFunc("device.life_consumed", func() float64 { return d.f.LifeConsumed(ftl.PoolB) })
}
