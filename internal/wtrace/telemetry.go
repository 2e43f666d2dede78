package wtrace

import "flashwear/internal/telemetry"

// Attach registers the tracer's headline figures as pull metrics so the
// wear ledger shows up in the same sampled series as everything else:
//
//	wtrace.origins          registered origin count
//	wtrace.events           recorded event count
//	wtrace.events_dropped   events lost at the buffer cap
//	wtrace.phys_pages       total attributed physical programs
//	wtrace.erases           total attributed erases
//
// The callbacks only read, as the registry's pull contract requires; like
// every device instrument they are sampled on the stack's own goroutine.
func (t *Tracer) Attach(reg *telemetry.Registry) {
	reg.CounterFunc("wtrace.origins", func() int64 {
		return int64(len(t.rows))
	})
	reg.CounterFunc("wtrace.events", func() int64 {
		return int64(len(t.events))
	})
	reg.CounterFunc("wtrace.events_dropped", func() int64 {
		return t.dropped
	})
	reg.CounterFunc("wtrace.phys_pages", func() int64 {
		var n int64
		for i := range t.rows {
			for _, c := range t.rows[i].programs {
				n += c
			}
		}
		return n
	})
	reg.CounterFunc("wtrace.erases", func() int64 {
		var n int64
		for i := range t.rows {
			n += t.rows[i].erases
		}
		return n
	})
}
