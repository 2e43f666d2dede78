package main

import (
	"fmt"
	"io"
	"os"

	"flashwear/internal/fleet"
	"flashwear/internal/fleetd"
	"flashwear/internal/report"
)

// serviceRun is fleetsim's checkpointed mode (-checkpoint / -resume): the
// same population question answered through the fleetd engine instead of
// one batch fleet.Run call, so the run survives kill -9 and resumes from
// its last complete epoch. The results follow fleetd's daily-reboot
// determinism contract — byte-identical across -workers, -shards,
// -checkpoint-every, and any number of interruptions, but not
// digit-comparable with batch-mode output (see DESIGN.md §11).
func serviceRun(checkpointDir, resumeDir string, spec fleetd.CampaignSpec, metricsCSV, wearTrace, tracePath string) error {
	dir := checkpointDir
	if resumeDir != "" {
		dir = resumeDir
	}
	mgr, err := fleetd.NewManager(dir)
	if err != nil {
		return err
	}
	if tracePath != "" {
		mgr.Trace().StartRecording()
	}
	var c *fleetd.Campaign
	switch campaigns := mgr.List(); {
	case resumeDir != "" && len(campaigns) == 0:
		return fmt.Errorf("-resume: no campaign found in %s", resumeDir)
	case resumeDir != "":
		c = campaigns[0]
		fmt.Fprintf(os.Stderr, "fleetsim: resuming campaign %s from %s (%d/%d days done)\n",
			c.ID(), resumeDir, c.Status().DaysDone, c.Spec().Days)
		err = c.Resume()
	case len(campaigns) > 0:
		return fmt.Errorf("-checkpoint: %s already holds a campaign; use -resume to continue it", checkpointDir)
	default:
		c, err = mgr.Submit(spec)
	}
	if err != nil {
		return err
	}
	if err := c.Wait(); err != nil {
		return err
	}
	if tracePath != "" {
		mgr.Trace().StopRecording()
		if err := report.WriteTo(tracePath, mgr.Trace().WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleetsim: wrote execution trace to %s (%d spans); the campaign results above are unaffected by tracing\n",
			tracePath, mgr.Trace().SpanCount())
	}
	renderCampaign(os.Stdout, c)
	if metricsCSV != "" {
		if err := report.WriteTo(metricsCSV, c.Series().WriteCSV); err != nil {
			return err
		}
	}
	if wearTrace != "" {
		return writeLedger(wearTrace, c.Ledger())
	}
	return nil
}

// batchGroup drops a campaign group's read-only count, leaving the batch
// engine's group and its derived-column methods.
func batchGroup(g fleetd.Group) fleet.Group {
	return fleet.Group{Devices: g.Devices, Bricked: g.Bricked, HostMiB: g.HostMiB, BrickDayMilli: g.BrickDayMilli}
}

// campaignRows adapts a campaign's name-sorted breakdown to groupTable.
func campaignRows(groups []fleetd.NamedGroup) []groupRow {
	rows := make([]groupRow, len(groups))
	for i, g := range groups {
		rows[i] = groupRow{g.Name, batchGroup(g.Group)}
	}
	return rows
}

// renderCampaign prints the fleetd-mode summary — the same shape as the
// batch render, built from the campaign's terminal aggregate.
func renderCampaign(w io.Writer, c *fleetd.Campaign) {
	spec := c.Spec()
	agg, _ := c.Aggregate()
	fmt.Fprintf(w, "Campaign %s: %d devices over %d days (seed %d, scale %d, checkpointed)\n\n",
		c.ID(), spec.Devices, spec.Days, spec.Seed, spec.Scale)
	t := batchGroup(agg.Total)
	fmt.Fprintf(w, "bricked: %d of %d (%.2f%%), read-only: %d\n",
		t.Bricked, t.Devices, t.BrickFraction()*100, agg.Total.ReadOnly)
	if t.Bricked > 0 {
		fmt.Fprintf(w, "mean time-to-brick: %.1f days\n", t.MeanDaysToBrick())
	}
	fmt.Fprintf(w, "host data absorbed: %s\n\n", report.HumanBytes(t.HostMiB<<20))
	groupTable(w, "By workload class", campaignRows(agg.ByClass))
	groupTable(w, "By device model", campaignRows(agg.ByProfile))
	wa := report.Percentiles(agg.WriteAmp, 0.50, 0.90, 0.99)
	fmt.Fprintf(w, "write amplification: p50 %.2f  p90 %.2f  p99 %.2f\n", wa[0], wa[1], wa[2])
}
