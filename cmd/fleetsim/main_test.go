package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flashwear/internal/device"
	"flashwear/internal/fleet"
)

// renderRun runs a tiny fleet at the given worker count and returns what
// fleetsim prints for it. The profile's endurance is derated (600 P/E
// cycles on the real device) so the attack phones brick within days.
func renderRun(t *testing.T, workers int) string {
	t.Helper()
	blu := device.ProfileBLU4()
	blu.RatedPE = 100
	res, err := fleet.Run(context.Background(), fleet.Spec{
		Devices:  6,
		Workers:  workers,
		Seed:     3,
		Days:     3,
		Scale:    65536,
		Profiles: []fleet.ProfileWeight{{Profile: blu, Weight: 1}},
		Classes: []fleet.ClassWeight{
			{Class: fleet.ClassBenign, Weight: 0.5},
			{Class: fleet.ClassAttack, Weight: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	render(&buf, res)
	return buf.String()
}

// TestRenderIndependentOfWorkers pins fleetsim's stdout contract: the
// report is a pure function of the spec, byte-identical across worker
// counts, and carries every section.
func TestRenderIndependentOfWorkers(t *testing.T) {
	serial, parallel := renderRun(t, 1), renderRun(t, 3)
	if serial != parallel {
		t.Fatalf("stdout differs across workers:\n--- workers 1\n%s\n--- workers 3\n%s", serial, parallel)
	}
	for _, want := range []string{
		"bricked: 3 of 6",
		"Bricked devices",
		"By workload class",
		"By device model",
		"write amplification: p50 ",
	} {
		if !strings.Contains(serial, want) {
			t.Errorf("output lacks %q:\n%s", want, serial)
		}
	}
}
