package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"flashwear/internal/device"
	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
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

// TestFaultsLineReportsLostPages runs a small fleet under a plan that
// fails most reads, as fleetsim -fault-plan "seed=7,read=0.6" would: the
// FTL loses acknowledged pages when GC or the cache drain cannot read
// them, and the run must say so, in Result.Faults and in the faults line
// fleetsim prints only for a run with a plan.
func TestFaultsLineReportsLostPages(t *testing.T) {
	spec, err := fleetd.CampaignSpec{
		Devices: 12, Days: 10, Seed: 9, Scale: 4096, ReqBytes: 64 << 10,
		Buggy: 0.07, Attack: 0.03, Faults: "seed=7,read=0.6", Workers: 1,
	}.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ReadFaults == 0 || res.Faults.LostPages == 0 {
		t.Fatalf("Faults = %+v, want read faults and lost pages", res.Faults)
	}
	var buf bytes.Buffer
	render(&buf, res)
	if !strings.Contains(buf.String(), "lost pages\n") {
		t.Errorf("output lacks the faults line:\n%s", buf.String())
	}
	if strings.Contains(renderRun(t, 1), "faults:") {
		t.Error("a run without a fault plan prints a faults line")
	}
}
