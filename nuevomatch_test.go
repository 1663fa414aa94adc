package nuevomatch_test

import (
	"testing"

	"nuevomatch"
)

// TestPaperFigure2 runs the paper's worked example end-to-end through the
// public API: the classifier of Figure 2 with two fields, an incoming
// packet 10.10.3.100:19, and the expected action a4 (rule R3).
func TestPaperFigure2(t *testing.T) {
	ip := func(s string) uint32 {
		v, err := nuevomatch.ParseIPv4(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	rs := nuevomatch.NewRuleSet(2)
	rs.AddAuto(nuevomatch.PrefixRange(ip("10.10.0.0"), 16), nuevomatch.Range{Lo: 10, Hi: 18}) // R0
	rs.AddAuto(nuevomatch.PrefixRange(ip("10.10.1.0"), 24), nuevomatch.Range{Lo: 15, Hi: 25}) // R1
	rs.AddAuto(nuevomatch.PrefixRange(ip("10.0.0.0"), 8), nuevomatch.Range{Lo: 5, Hi: 8})     // R2
	rs.AddAuto(nuevomatch.PrefixRange(ip("10.10.3.0"), 24), nuevomatch.Range{Lo: 7, Hi: 20})  // R3
	rs.AddAuto(nuevomatch.ExactRange(ip("10.10.3.100")), nuevomatch.ExactRange(19))           // R4

	table, err := nuevomatch.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	pkt := nuevomatch.Packet{ip("10.10.3.100"), 19}
	if got := table.Lookup(pkt); got != 3 {
		t.Fatalf("Lookup = rule %d, want 3 (action a4 in Figure 2)", got)
	}
	if got := table.Lookup(nuevomatch.Packet{ip("192.168.0.1"), 19}); got != nuevomatch.NoMatch {
		t.Fatalf("Lookup = %d, want NoMatch", got)
	}
}

func TestRemainderBuilders(t *testing.T) {
	rs := nuevomatch.NewRuleSet(2)
	for i := uint32(0); i < 50; i++ {
		rs.AddAuto(nuevomatch.ExactRange(i), nuevomatch.FullRange())
	}
	for _, b := range []struct {
		name string
		b    nuevomatch.Builder
	}{
		{"tuplemerge", nuevomatch.TupleMerge},
		{"cutsplit", nuevomatch.CutSplit},
		{"neurocuts", nuevomatch.NeuroCuts},
		{"rvh", nuevomatch.RVH},
	} {
		table, err := nuevomatch.Open(rs, nuevomatch.WithRemainder(b.b))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got := table.Lookup(nuevomatch.Packet{7, 99}); got != 7 {
			t.Errorf("%s: Lookup = %d, want 7", b.name, got)
		}
		table.Close()
	}
}

// TestAutopilotPublicSurface exercises the drift supervisor end-to-end
// through the public API: churn a table past the policy threshold, let
// Check retrain it in place, and verify the table's engine pointer kept
// serving correct results.
func TestAutopilotPublicSurface(t *testing.T) {
	rs := nuevomatch.NewRuleSet(2)
	for i := uint32(0); i < 200; i++ {
		rs.AddAuto(nuevomatch.ExactRange(i), nuevomatch.Range{Lo: i, Hi: i + 1000})
	}
	// A negative Interval disables the background watcher, so Check alone
	// decides when the retrain happens.
	table, err := nuevomatch.Open(rs, nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
		MaxUpdates:   50,
		MinLiveRules: 1,
		Interval:     -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	engine, ap := table.Engine(), table.Autopilot()
	if ap.Engine() != engine {
		t.Fatal("Engine() must return the supervised engine")
	}
	nextID := 10_000
	for i := uint32(0); i < 60; i++ {
		if err := engine.Delete(int(i)); err != nil {
			t.Fatal(err)
		}
		r := nuevomatch.Rule{
			ID:       nextID,
			Priority: int32(nextID),
			Fields:   []nuevomatch.Range{nuevomatch.ExactRange(i), nuevomatch.Range{Lo: i, Hi: i + 500}},
		}
		nextID++
		if err := engine.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	retrained, err := ap.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !retrained {
		t.Fatal("policy must trip after 120 updates")
	}
	st := ap.Stats()
	if st.Retrains != 1 || st.Failures != 0 {
		t.Fatalf("unexpected autopilot stats: %+v", st)
	}
	// The same engine pointer serves the retrained state: replaced rules
	// match under their new IDs, untouched rules under their old ones.
	if got := engine.Lookup(nuevomatch.Packet{10, 400}); got != 10_010 {
		t.Errorf("replaced rule: Lookup = %d, want %d", got, 10_010)
	}
	if got := engine.Lookup(nuevomatch.Packet{150, 600}); got != 150 {
		t.Errorf("untouched rule: Lookup = %d, want %d", got, 150)
	}
	if _, err := engine.Retrain(); err != nil {
		t.Fatalf("manual public Retrain: %v", err)
	}
}

func TestFormatIPv4RoundTrip(t *testing.T) {
	v, err := nuevomatch.ParseIPv4("172.16.254.1")
	if err != nil {
		t.Fatal(err)
	}
	if s := nuevomatch.FormatIPv4(v); s != "172.16.254.1" {
		t.Errorf("round trip = %q", s)
	}
}
