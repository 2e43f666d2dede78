// Package a exercises the //flashvet:ops-domain opt-out for globalrand:
// a declared ops-plane package may draw retry-backoff jitter from the
// process-global math/rand source (and seed helper streams from
// literals) with no findings at all.
package a

import (
	"math/rand"

	"flashwear/internal/simrand"
)

//flashvet:ops-domain this fixture package paces retries against the real host, nothing flows back into simulation results

func jitter(d int64) int64 {
	return d/2 + rand.Int63n(d/2+1) // ok: ops-domain package
}

func helperSource() *rand.Rand {
	return rand.New(rand.NewSource(1)) // ok: ops-domain package
}

func helperStream() *simrand.Rand {
	return simrand.New(1) // ok: ops-domain package
}
