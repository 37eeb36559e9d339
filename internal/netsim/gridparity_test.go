package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mac"
	"repro/internal/radio"
)

// TestGridParityWithFullScan runs the same scenario with the medium's
// spatial index and with the reference full scan: every measured
// quantity — deliveries, per-node protocol and MAC counters, outcomes —
// must be identical. This is the end-to-end version of the mac
// package's frame-level differential tests. The shadowed case adds
// probabilistic reception, whose per-receiver fade draws come from the
// medium's shared RNG: the grid's candidate set must not change which
// receiver consumes which draw.
func TestGridParityWithFullScan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mob    MobilitySpec
		shadow bool
	}{
		{"rwp", MobilitySpec{
			Kind:     RandomWaypoint,
			Area:     geo.NewRect(2000, 2000),
			MinSpeed: 1,
			MaxSpeed: 40,
			Pause:    time.Second,
		}, false},
		{"city", MobilitySpec{
			Kind:      CitySection,
			StopProb:  0.3,
			StopMin:   2 * time.Second,
			StopMax:   10 * time.Second,
			DestPause: 5 * time.Second,
		}, false},
		{"static", MobilitySpec{
			Kind: StaticNodes,
			Area: geo.NewRect(1200, 1200),
		}, false},
		{"rwp-shadowed", MobilitySpec{
			Kind:     RandomWaypoint,
			Area:     geo.NewRect(1500, 1500),
			MinSpeed: 1,
			MaxSpeed: 25,
			Pause:    time.Second,
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fullScan bool) *Result {
				sc := Scenario{
					Nodes:              25,
					Seed:               3,
					Mobility:           tc.mob,
					MAC:                mac.DefaultConfig(339),
					Protocol:           FrugalSpec(CoreTuning{HBUpperBound: time.Second, UseSpeed: true}),
					SubscriberFraction: 0.8,
					Warmup:             10 * time.Second,
					Publications: []Publication{
						{Publisher: -1, Validity: 30 * time.Second},
						{Offset: 500 * time.Millisecond, Publisher: -1, Validity: 30 * time.Second},
					},
					Measure:     35 * time.Second,
					DeliveryLog: true, // parity diffs full delivery records
				}
				if tc.shadow {
					params := radio.Default80211b()
					sh := radio.Shadowing{
						Params:         params,
						SensitivityDBm: params.ReceivedPowerDBm(339),
						SigmaDB:        6,
						LimitDBm:       -111,
					}
					sc.MAC.Range = sh.MaxRange(1e-3)
					sc.MAC.ReceiveProb = sh.ReceiveProb
				}
				sc.MAC.FullScan = fullScan
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			grid, scan := run(false), run(true)
			if !reflect.DeepEqual(grid.Nodes, scan.Nodes) {
				t.Errorf("per-node counters differ between grid and full scan")
			}
			if !reflect.DeepEqual(grid.Deliveries, scan.Deliveries) {
				t.Errorf("delivery records differ between grid and full scan")
			}
			if !reflect.DeepEqual(grid.Outcomes, scan.Outcomes) {
				t.Errorf("event outcomes differ between grid and full scan")
			}
			if grid.DeliveredTotal() == 0 {
				t.Fatal("scenario delivered nothing; parity check is vacuous")
			}
			var faded uint64
			for _, n := range grid.Nodes {
				faded += n.MAC.FramesFaded
			}
			if tc.shadow && faded == 0 {
				t.Fatal("shadowed scenario faded no frames; check is vacuous")
			}
		})
	}
}
