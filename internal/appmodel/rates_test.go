package appmodel

import (
	"testing"

	"flashwear/internal/simrand"
)

func TestNominalDailyBytes(t *testing.T) {
	rates := NominalDailyBytes()
	// Sanity-check magnitudes against the model defaults: camera dominates
	// the benign population, chat is tiny, the bug dwarfs everything.
	if rates["camera"] != 96<<20 {
		t.Errorf("camera = %d, want %d", rates["camera"], 96<<20)
	}
	if rates["chat"] <= 0 || rates["chat"] > 4<<20 {
		t.Errorf("chat = %d, want a few MiB", rates["chat"])
	}
	if rates["updater"] <= 0 || rates["updater"] > 8<<20 {
		t.Errorf("updater = %d, want a few MiB", rates["updater"])
	}
	if rates["spotify-bug"] < 100*rates["camera"] {
		t.Errorf("spotify-bug = %d, want orders of magnitude above camera's %d",
			rates["spotify-bug"], rates["camera"])
	}
	if got := BenignDailyBytes(); got != rates["camera"]+rates["chat"]+rates["updater"] {
		t.Errorf("BenignDailyBytes = %d, want sum of benign models", got)
	}
}

func TestSampleDailyBytesDeterministic(t *testing.T) {
	a, b := simrand.New(9), simrand.New(9)
	for i := 0; i < 32; i++ {
		if x, y := SampleBenignDailyBytes(a), SampleBenignDailyBytes(b); x != y {
			t.Fatalf("benign draw %d: %d != %d with equal seeds", i, x, y)
		}
	}
	a, b = simrand.New(10), simrand.New(10)
	for i := 0; i < 32; i++ {
		if x, y := SampleBuggyDailyBytes(a), SampleBuggyDailyBytes(b); x != y {
			t.Fatalf("buggy draw %d: %d != %d with equal seeds", i, x, y)
		}
	}
}

func TestSampleDailyBytesRanges(t *testing.T) {
	rng := simrand.New(11)
	for i := 0; i < 1000; i++ {
		if v := SampleBenignDailyBytes(rng); v < BenignDailyBytes()/32 || v > 20*BenignDailyBytes() {
			t.Fatalf("benign sample %d out of clamped range", v)
		}
		if v := SampleBuggyDailyBytes(rng); v < 1<<30 || v > 512<<30 {
			t.Fatalf("buggy sample %d out of clamped range", v)
		}
	}
}
