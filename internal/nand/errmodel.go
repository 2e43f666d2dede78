package nand

import (
	"fmt"
	"math"
)

// ErrorModel captures how a block's raw bit-error rate (RBER) and operation
// failure probabilities evolve with accumulated program/erase stress.
//
// The shape follows the endurance literature the paper cites (Boboila &
// Desnoyers FAST'10; Grupp et al. FAST'12): RBER grows roughly exponentially
// in the number of P/E cycles, with vendors rating a part at the cycle count
// where RBER still sits comfortably inside ECC correction capability.
//
// The model is expressed relative to the block's rated endurance so the same
// parameters work for SLC, MLC and TLC parts: wear w = eraseCount/ratedPE.
//
//	RBER(w)  = BaseRBER  * exp(RBERGrowth * w)
//	PFail(w) = BaseFail  * exp(FailGrowth * w)
type ErrorModel struct {
	// BaseRBER is the raw bit-error rate of a fresh block (w = 0).
	BaseRBER float64
	// RBERGrowth is the exponential growth constant of RBER in w.
	RBERGrowth float64
	// BaseFail is the probability that a program or erase operation fails
	// on a fresh block.
	BaseFail float64
	// FailGrowth is the exponential growth constant of operation failure
	// probability in w.
	FailGrowth float64
	// RetentionRBERPerHour adds RBER for every simulated hour the page has
	// been sitting programmed (charge leakage / retention loss).
	RetentionRBERPerHour float64
	// ReadDisturbRBER adds RBER per read issued to the block since its
	// last erase — reading neighbours weakly programs cells. Firmware
	// counters this with read-scrub; here it surfaces as error growth on
	// read-heavy blocks.
	ReadDisturbRBER float64
	// HealPerIdleHour, if positive, reduces a block's *effective* wear by
	// this many cycles per simulated hour the block spends erased and
	// idle, modelling charge detrapping ("flash can heal", §2.2). Zero
	// disables healing; production firmware does not rely on it.
	HealPerIdleHour float64
}

// DefaultErrorModel returns parameters calibrated so that, read through a
// t=8-bit/1KiB BCH (the eMMC-class default in package ecc):
//
//   - at rated endurance (w=1) the expected error count per codeword is
//     ~25% of capability — the part is healthy but ageing,
//   - by w≈1.4 uncorrectable reads and program failures become routine and
//     the block population collapses — "bricking".
func DefaultErrorModel() ErrorModel {
	return ErrorModel{
		BaseRBER:             1e-8,
		RBERGrowth:           10.0,
		BaseFail:             1e-9,
		FailGrowth:           14.0,
		RetentionRBERPerHour: 2e-9,
		ReadDisturbRBER:      5e-12,
		HealPerIdleHour:      0,
	}
}

// Validate reports an error describing the first invalid field, if any.
func (m ErrorModel) Validate() error {
	switch {
	case m.BaseRBER < 0 || m.BaseRBER > 1:
		return fmt.Errorf("nand: error model: BaseRBER = %g, want [0,1]", m.BaseRBER)
	case m.RBERGrowth < 0:
		return fmt.Errorf("nand: error model: RBERGrowth = %g, want >= 0", m.RBERGrowth)
	case m.BaseFail < 0 || m.BaseFail > 1:
		return fmt.Errorf("nand: error model: BaseFail = %g, want [0,1]", m.BaseFail)
	case m.FailGrowth < 0:
		return fmt.Errorf("nand: error model: FailGrowth = %g, want >= 0", m.FailGrowth)
	case m.RetentionRBERPerHour < 0:
		return fmt.Errorf("nand: error model: RetentionRBERPerHour = %g, want >= 0", m.RetentionRBERPerHour)
	case m.ReadDisturbRBER < 0:
		return fmt.Errorf("nand: error model: ReadDisturbRBER = %g, want >= 0", m.ReadDisturbRBER)
	case m.HealPerIdleHour < 0:
		return fmt.Errorf("nand: error model: HealPerIdleHour = %g, want >= 0", m.HealPerIdleHour)
	}
	return nil
}

// RBER returns the raw bit-error rate at relative wear w (eraseCount/rated),
// clamped to [0, 0.5].
func (m ErrorModel) RBER(w float64) float64 {
	return clampProb(m.BaseRBER * math.Exp(m.RBERGrowth*w))
}

// retentionGrowth is how much faster charge leaks at wear w than from a
// fresh block.
func (m ErrorModel) retentionGrowth(w float64) float64 {
	return math.Exp(m.RBERGrowth * w * 0.5)
}

// withRetention returns the RBER of data stored for storedHours of
// simulated time, given the block's RBER and retentionGrowth at its wear —
// the two wear-dependent terms Chip keeps per block between erases.
func (m ErrorModel) withRetention(rber, growth, storedHours float64) float64 {
	return clampProb(rber + m.RetentionRBERPerHour*storedHours*growth)
}

// FailProb returns the probability a program or erase operation fails at
// relative wear w, clamped to [0, 1].
func (m ErrorModel) FailProb(w float64) float64 {
	p := m.BaseFail * math.Exp(m.FailGrowth*w)
	if p > 1 {
		return 1
	}
	return p
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 0.5 {
		return 0.5
	}
	return p
}
