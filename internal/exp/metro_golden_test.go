package exp

import (
	"testing"
	"time"

	"repro/internal/mobility"
	"repro/internal/netsim"
)

// TestMetroFingerprint pins a full metro-5k city run end to end: one
// sha-256 over every publication, outcome, per-node counter and the
// streaming latency histogram (netsim.Result.Fingerprint). The table
// goldens above exercise the same engine layers but only at village
// scale and only through rounded aggregates; this case is the one
// place a megacity-path regression — route cache, dense grids,
// streaming aggregation — must reproduce a city-scale run bit for bit.
// It costs a couple of minutes, so it hides behind -short like the
// Heavy scenarios it guards.
func TestMetroFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full metro-5k run (~2 min); rerun without -short")
	}
	def, ok := netsim.LookupScenario("metro-5k")
	if !ok {
		t.Fatal("metro-5k not registered")
	}
	// Sampling rides along: the golden was recorded unsampled, so the
	// comparison doubles as the city-scale sample-invariance check
	// (Scenario.Sample is observation-only; see netsim/series.go).
	sc := def.Instantiate(1)
	sc.Sample = 10 * time.Second
	res, err := netsim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metro-5k-fingerprint", res.Fingerprint()+"\n")
	if res.Series == nil || len(res.Series.Points) == 0 {
		t.Fatal("sampled metro-5k run has no series")
	}
}

// TestMetroSliceFingerprint pins the metro-slice district run bit for
// bit against the on-disk golden, in tier-1 time (a few seconds per
// run). All three runs share one freshly built street graph, whose
// route cache persists across runs exactly as the registered template's
// does: seed 1 runs on a cold cache, seed 2 then warms it with other
// routes, and seed 1 runs again, sampled, on the warm cache. Both
// seed-1 runs must hit the golden, so results depend neither on the
// cache's history nor on sampling (Scenario.Sample is
// observation-only; see netsim/series.go).
func TestMetroSliceFingerprint(t *testing.T) {
	def, ok := netsim.LookupScenario("metro-slice")
	if !ok {
		t.Fatal("metro-slice not registered")
	}
	graph := mobility.NewManhattanStyleGraph(netsim.MetroGraphDims(def.Template.Nodes))
	run := func(seed int64, sample time.Duration) *netsim.Result {
		t.Helper()
		sc := def.Instantiate(seed)
		sc.Mobility.Graph = graph
		sc.Sample = sample
		res, err := netsim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checkGolden(t, "metro-slice-fingerprint", run(1, 0).Fingerprint()+"\n")
	run(2, 0)
	warm := run(1, 5*time.Second)
	checkGolden(t, "metro-slice-fingerprint", warm.Fingerprint()+"\n")
	if warm.Series == nil || len(warm.Series.Points) == 0 {
		t.Fatal("sampled metro-slice run has no series")
	}
}
