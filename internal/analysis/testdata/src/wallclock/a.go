// Package a exercises the wallclock analyzer: wall-clock reads, timers and
// host-state reads are banned in simulation code; duration arithmetic and
// the simulated file systems are not.
package a

import (
	iofs "io/fs"
	"os"
	"time"

	"flashwear/internal/fs"
	"flashwear/internal/hostio"
	"flashwear/internal/obs"
	"flashwear/internal/runtrace"
)

func sim() time.Duration {
	start := time.Now()          // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
	_ = time.Since(start)        // want `wall-clock time\.Since`
	_ = time.Until(start)        // want `wall-clock time\.Until`
	t := time.NewTimer(0)        // want `wall-clock time\.NewTimer`
	t.Stop()
	return 3 * time.Second // ok: duration arithmetic reads no clock
}

func asValue() func() time.Time {
	return time.Now // want `wall-clock time\.Now`
}

func constructed() time.Time {
	// ok: computes a value from explicit arguments.
	return time.Date(2017, time.May, 8, 0, 0, 0, 0, time.UTC)
}

func waived() time.Time {
	//flashvet:ignore wallclock operator-facing log timestamp, outside the simulation
	return time.Now()
}

func laundered() time.Time {
	// obs.WallNow is the ops plane's clock source; calling it from a
	// package without a //flashvet:ops-domain declaration is the same
	// offence as time.Now.
	return obs.WallNow() // want `ops-plane clock source obs\.WallNow`
}

func spans(tr *runtrace.Tracer) {
	// ok: emitting spans is legal in sim code — Begin/End measure where
	// time went without letting the caller read the clock back.
	sp := tr.Begin(runtrace.PhaseSimulate, 0, 1, 2)
	sp.End()
	// Reading the measured wall time back is laundering, same as WallNow.
	_ = tr.Totals() // want `ops-plane clock source runtrace\.Tracer\.Totals`
}

func readbacks(e obs.Event, h *obs.Histogram) int64 {
	// ok: observing into a histogram records host time without reading
	// it back.
	h.Observe(0.5)
	// A journal event's stamp and a histogram's sum are host time read
	// back out of the ops plane.
	_ = h.Sum()     // want `ops-plane clock source obs\.Histogram\.Sum`
	return e.WallMs // want `ops-plane clock source obs\.Event\.WallMs`
}

func hostState(h hostio.FS, info iofs.FileInfo) {
	_ = os.Getenv("FLASHWEAR_DEVICES") // want `host state os\.Getenv`
	_, _ = os.Stat("/data")            // want `host state os\.Stat`
	_, _ = h.ReadDir("/data")          // want `host state hostio\.ReadDir`
	_ = info.ModTime()                 // want `host state fs\.FileInfo\.ModTime`
}

func simulated(v fs.FileSystem) {
	// ok: the simulated file system's listings and metadata are simulation
	// state (the android sandbox's ReadDir shape).
	_, _ = v.ReadDir("/data")
	_, _ = v.Stat("/data")
}
