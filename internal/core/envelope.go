// Package core implements the paper's contribution: the "back-of-the-
// envelope" lifetime estimate of §2.3, the wear-out measurement methodology
// of §4.3 (I/O volume and time per wear-indicator increment), and the
// unprivileged attack app of §4.4 with its detection-evasion policies.
package core

import "flashwear/internal/device"

// Envelope is §2.3's back-of-the-envelope lifetime estimate: "take the
// expected number of writes for the advertised LBA space ... divide by the
// expected P/E cycles per cell". It is the estimate the paper shows to be
// optimistic by roughly 3x for mobile flash.
type Envelope struct {
	CapacityBytes int64
	AssumedPE     int
}

// NewEnvelope builds the estimate consumers would make for a device,
// assuming consumer-SSD endurance (3K full rewrites).
func NewEnvelope(capacityBytes int64) Envelope {
	return Envelope{CapacityBytes: capacityBytes, AssumedPE: device.EnvelopeAssumedPE}
}

// TotalHostBytes returns the total write volume the estimate promises.
func (e Envelope) TotalHostBytes() int64 {
	return e.CapacityBytes * int64(e.AssumedPE)
}

// BytesPerIncrement returns the expected host bytes per 10% of lifetime.
func (e Envelope) BytesPerIncrement() int64 { return e.TotalHostBytes() / 10 }
