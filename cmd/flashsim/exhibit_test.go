package main

import (
	"errors"
	"testing"
	"time"

	"flashwear/internal/experiments"
)

var errDiskFull = errors.New("disk full")

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// A -metrics-csv or -wear-ledger write that fails must fail the exhibit
// (and with it the command), not be printed and forgotten.
func TestSinkWriteErrorFailsExhibit(t *testing.T) {
	ex, _ := experiments.Lookup("fig2")
	for name, attach := range map[string]func(*experiments.Config){
		"metrics-csv": func(cfg *experiments.Config) {
			s := &sinks{metrics: failingWriter{}}
			cfg.MetricsEvery, cfg.MetricsSink = 24*time.Hour, s.series
		},
		"wear-ledger": func(cfg *experiments.Config) {
			s := &sinks{ledger: failingWriter{}}
			cfg.WearSink = s.wear
		},
	} {
		cfg := experiments.Config{Scale: 2048, MaxLevel: 2}
		attach(&cfg)
		if _, err := ex.Run(cfg); !errors.Is(err, errDiskFull) {
			t.Errorf("-%s on a failing writer: exhibit returned %v, want the write error", name, err)
		}
	}
}
