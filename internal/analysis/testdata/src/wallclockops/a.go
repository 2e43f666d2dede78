// Package a exercises the //flashvet:ops-domain opt-out: a package with a
// well-formed declaration may read the host clock (directly or via
// obs.WallNow) and host state with no findings at all.
package a

import (
	"os"
	"time"

	"flashwear/internal/hostio"
	"flashwear/internal/obs"
	"flashwear/internal/runtrace"
)

//flashvet:ops-domain this fixture package measures the real process, nothing flows back into simulation results

func measure() time.Duration {
	start := time.Now() // ok: ops-domain package
	time.Sleep(0)       // ok
	_ = obs.WallNow()   // ok: ops-domain packages may use the ops clock source
	tr := runtrace.New(nil)
	_ = tr.Totals() // ok: ops-domain packages may read measured wall time back
	return time.Since(start)
}

func listing(h hostio.FS) {
	_ = os.Getenv("FLASHWEAR_DEVICES") // ok: ops-domain packages may read host state
	_, _ = h.ReadDir("/data")          // ok
}
