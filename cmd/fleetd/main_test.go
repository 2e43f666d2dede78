package main

import (
	"os"
	"path/filepath"
	"testing"

	"flashwear/internal/fleetd"
)

// TestSpecFlagsOverrideFile: every spec flag given on the command line
// replaces the -spec file's value, zero values included; flags left unset
// keep the file's.
func TestSpecFlagsOverrideFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	const file = `{"name":"from-file","devices":50,"days":30,"seed":9,"scale":4096,
		"buggy":0.2,"attack":0.1,"faults":"read=1e-4","wear_trace":true,
		"shards":4,"workers":2,"checkpoint_every":5}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := newFlagSet("submit")
	build := specFlags(fs)
	fs.parse([]string{"-spec", path,
		"-days", "60", "-buggy", "0", "-attack", "0", "-faults", "",
		"-wear-trace=false", "-checkpoint-every", "0"})
	got, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want := fleetd.CampaignSpec{
		Name: "from-file", Devices: 50, Days: 60, Seed: 9, Scale: 4096,
		Shards: 4, Workers: 2,
	}
	if got != want {
		t.Fatalf("spec =\n%+v\nwant\n%+v", got, want)
	}
}
