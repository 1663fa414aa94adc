package nuevomatch_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/core"
	"nuevomatch/internal/faultinject"
)

// testRuleSet generates a deterministic ClassBench ACL with unique
// priorities.
func testRuleSet(t *testing.T, size int) *nuevomatch.RuleSet {
	t.Helper()
	prof, err := classbench.ProfileByName("acl1")
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, size)
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(2 * (i + 1))
	}
	return rs
}

func probe(rng *rand.Rand, rs *nuevomatch.RuleSet) nuevomatch.Packet {
	p := make(nuevomatch.Packet, rs.NumFields)
	if rng.Intn(4) != 0 {
		classbench.FillMatchingPacket(rng, &rs.Rules[rng.Intn(rs.Len())], p)
	} else {
		for d := range p {
			p[d] = rng.Uint32()
		}
	}
	return p
}

// TestOpenMatchesCoreBuild proves Open without options builds the engine
// the zero core.Options describe: both agree with the linear reference on
// every probe and train the same number of iSets.
func TestOpenMatchesCoreBuild(t *testing.T) {
	rs := testRuleSet(t, 300)
	table, err := nuevomatch.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	engine, err := core.Build(rs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := probe(rng, rs)
		want := rs.MatchID(p)
		if got := table.Lookup(p); got != want {
			t.Fatalf("table.Lookup(%v) = %d, want %d", p, got, want)
		}
		if got := engine.Lookup(p); got != want {
			t.Fatalf("engine.Lookup(%v) = %d, want %d", p, got, want)
		}
	}
	if table.NumISets() != engine.NumISets() {
		t.Errorf("iSet count differs: table %d, engine %d", table.NumISets(), engine.NumISets())
	}
}

// TestTableOptions exercises the functional options end to end.
func TestTableOptions(t *testing.T) {
	rs := testRuleSet(t, 300)

	noISets, err := nuevomatch.Open(rs, nuevomatch.WithMaxISets(0))
	if err != nil {
		t.Fatal(err)
	}
	defer noISets.Close()
	if n := noISets.NumISets(); n != 0 {
		t.Errorf("WithMaxISets(0) trained %d iSets, want 0", n)
	}

	cs, err := nuevomatch.Open(rs,
		nuevomatch.WithRemainder(nuevomatch.CutSplit),
		nuevomatch.WithMinCoverage(0.25),
		nuevomatch.WithRQRMI(nuevomatch.RQRMIConfig{TargetError: 32}))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		p := probe(rng, rs)
		if got, want := cs.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("cutsplit-remainder table: Lookup(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestTableSaveLoadFile is the public-surface persistence round trip,
// including drift applied through the Table update methods before Save.
func TestTableSaveLoadFile(t *testing.T) {
	rs := testRuleSet(t, 400)
	table, err := nuevomatch.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()

	rng := rand.New(rand.NewSource(3))
	mirror := rs.Clone()
	for i := 0; i < 120; i++ {
		if i%3 == 0 && mirror.Len() > 32 {
			j := rng.Intn(mirror.Len())
			if err := table.Delete(mirror.Rules[j].ID); err != nil {
				t.Fatal(err)
			}
			mirror.Rules[j] = mirror.Rules[mirror.Len()-1]
			mirror.Rules = mirror.Rules[:mirror.Len()-1]
		} else {
			r := mirror.Rules[rng.Intn(mirror.Len())]
			r.ID = 50_000 + i
			r.Priority = int32(2*i + 1)
			r.Fields = append([]nuevomatch.Range(nil), r.Fields...)
			r.Fields[nuevomatch.FieldDstPort] = nuevomatch.ExactRange(uint32(rng.Intn(65536)))
			if err := table.Insert(r); err != nil {
				t.Fatal(err)
			}
			mirror.Add(r)
		}
	}

	path := filepath.Join(t.TempDir(), "table.nm")
	if err := table.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := nuevomatch.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()

	pkts := make([]nuevomatch.Packet, 400)
	want := make([]int, len(pkts))
	for i := range pkts {
		pkts[i] = probe(rng, mirror)
		want[i] = mirror.MatchID(pkts[i])
	}
	out := make([]int, len(pkts))
	loaded.LookupBatch(pkts, out)
	for i := range pkts {
		if got := loaded.Lookup(pkts[i]); got != want[i] {
			t.Fatalf("loaded.Lookup(%v) = %d, want %d", pkts[i], got, want[i])
		}
		if out[i] != want[i] {
			t.Fatalf("loaded.LookupBatch[%d] = %d, want %d", i, out[i], want[i])
		}
		if got := table.Lookup(pkts[i]); got != want[i] {
			t.Fatalf("original.Lookup(%v) = %d, want %d", pkts[i], got, want[i])
		}
	}

	// The loaded table stays live: it takes updates and saves again.
	r := mirror.Rules[0]
	r.ID = 99_999
	r.Priority = 1
	r.Fields = append([]nuevomatch.Range(nil), r.Fields...)
	if err := loaded.Insert(r); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := loaded.Save(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("re-save: n=%d err=%v (buffered %d)", n, err, buf.Len())
	}

	// Load rejects garbage with an error, not a panic.
	if _, err := nuevomatch.Load(bytes.NewReader([]byte("not a table"))); err == nil {
		t.Fatal("Load of garbage succeeded")
	}
}

// TestTableCloseSemantics is the lifecycle regression test: double-Close,
// lookups after Close on every path, ErrClosed on updates, and no goroutine
// outliving the table: every lookup runs on its caller's goroutine.
func TestTableCloseSemantics(t *testing.T) {
	rs := testRuleSet(t, 200)
	goroutines := runtime.NumGoroutine()
	table, err := nuevomatch.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	pkts := make([]nuevomatch.Packet, 64)
	for i := range pkts {
		pkts[i] = probe(rng, rs)
	}
	out := make([]int, len(pkts))
	lookupEveryPath := func(when string) {
		t.Helper()
		table.LookupBatch(pkts, out)
		for i, p := range pkts {
			want := rs.MatchID(p)
			if got := table.Lookup(p); got != want {
				t.Fatalf("%s Lookup(%v) = %d, want %d", when, p, got, want)
			}
			if got := table.LookupWithBound(p, math.MaxInt32); got != want {
				t.Fatalf("%s LookupWithBound(%v) = %d, want %d", when, p, got, want)
			}
			if got := table.Engine().LookupNoEarlyTermination(p); got != want {
				t.Fatalf("%s LookupNoEarlyTermination(%v) = %d, want %d", when, p, got, want)
			}
			if out[i] != want {
				t.Fatalf("%s LookupBatch[%d] = %d, want %d", when, i, out[i], want)
			}
		}
		table.LookupBatchParallel(pkts, out)
		for i, p := range pkts {
			if want := rs.MatchID(p); out[i] != want {
				t.Fatalf("%s LookupBatchParallel[%d] = %d, want %d", when, i, out[i], want)
			}
		}
	}
	lookupEveryPath("pre-Close")

	if err := table.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := table.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Nothing the table started outlives Close.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after Open, lookups and Close, had %d before Open", n, goroutines)
	}

	// Lookups after Close never panic and stay correct.
	lookupEveryPath("post-Close")

	// Updates and persistence are refused.
	if err := table.Insert(rs.Rules[0]); !errors.Is(err, nuevomatch.ErrClosed) {
		t.Errorf("Insert after Close: err = %v, want ErrClosed", err)
	}
	if err := table.Delete(rs.Rules[0].ID); !errors.Is(err, nuevomatch.ErrClosed) {
		t.Errorf("Delete after Close: err = %v, want ErrClosed", err)
	}
	if _, err := table.Retrain(); !errors.Is(err, nuevomatch.ErrClosed) {
		t.Errorf("Retrain after Close: err = %v, want ErrClosed", err)
	}
	if _, err := table.Save(&bytes.Buffer{}); !errors.Is(err, nuevomatch.ErrClosed) {
		t.Errorf("Save after Close: err = %v, want ErrClosed", err)
	}
}

// TestAutopilotPersist proves the WithAutopilot + WithAutopilotPersist
// wiring: drift trips a retrain and the artifact on disk is refreshed to
// the retrained state, which warm-starts an equivalent table.
func TestAutopilotPersist(t *testing.T) {
	rs := testRuleSet(t, 240)
	path := filepath.Join(t.TempDir(), "autosave.nm")
	table, err := nuevomatch.Open(rs,
		nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   60,
			MinLiveRules: 1,
			Interval:     -1, // Check-driven: deterministic test
		}),
		nuevomatch.WithAutopilotPersist(path))
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	ap := table.Autopilot()
	if ap == nil {
		t.Fatal("Autopilot() = nil with WithAutopilot")
	}

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("artifact exists before any retrain (stat err %v)", err)
	}

	mirror := rs.Clone()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		r := mirror.Rules[rng.Intn(mirror.Len())]
		r.ID = 70_000 + i
		r.Priority = int32(2*i + 1)
		r.Fields = append([]nuevomatch.Range(nil), r.Fields...)
		if err := table.Insert(r); err != nil {
			t.Fatal(err)
		}
		mirror.Add(r)
	}
	ran, err := ap.Check()
	if err != nil {
		t.Fatalf("autopilot check: %v", err)
	}
	if !ran {
		t.Fatalf("policy did not trip after 80 updates: %+v", table.Updates())
	}
	st := ap.Stats()
	if st.Retrains != 1 || st.PersistFailures != 0 {
		t.Fatalf("stats after retrain: %+v", st)
	}

	loaded, err := nuevomatch.LoadFile(path)
	if err != nil {
		t.Fatalf("loading autopersisted artifact: %v", err)
	}
	defer loaded.Close()
	for i := 0; i < 400; i++ {
		p := probe(rng, mirror)
		if got, want := loaded.Lookup(p), mirror.MatchID(p); got != want {
			t.Fatalf("warm-started Lookup(%v) = %d, want %d", p, got, want)
		}
	}

	// WithAutopilotPersist without WithAutopilot is a configuration error.
	if _, err := nuevomatch.Open(rs, nuevomatch.WithAutopilotPersist(path)); err == nil {
		t.Error("WithAutopilotPersist without WithAutopilot must error")
	}
}

// TestClosePersistsInFlightRetrain: a Close issued while a background
// retrain is training must still persist that retrain's result — Close
// waits the retrain out, and the persistence hook must not be defeated by
// the closed flag it sets.
func TestClosePersistsInFlightRetrain(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{})
	gate := make(chan struct{})
	gated := func(rs *nuevomatch.RuleSet) (nuevomatch.Classifier, error) {
		if armed.Load() {
			entered <- struct{}{}
			<-gate
		}
		return nuevomatch.TupleMerge(rs)
	}

	rs := testRuleSet(t, 200)
	path := filepath.Join(t.TempDir(), "inflight.nm")
	table, err := nuevomatch.Open(rs,
		nuevomatch.WithRemainder(gated),
		nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   30,
			MinLiveRules: 1,
			Interval:     time.Millisecond,
		}),
		nuevomatch.WithAutopilotPersist(path))
	if err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		r := rs.Rules[rng.Intn(rs.Len())]
		r.ID = 80_000 + i
		r.Priority = int32(2*i + 1)
		r.Fields = append([]nuevomatch.Range(nil), r.Fields...)
		if err := table.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // the watcher's retrain is now mid-training
	armed.Store(false)
	closed := make(chan error, 1)
	go func() { closed <- table.Close() }()
	time.Sleep(5 * time.Millisecond) // let Close reach the autopilot Stop
	close(gate)                      // release the trainer
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	st := table.Autopilot().Stats()
	if st.Retrains != 1 {
		t.Fatalf("retrains = %d, want 1 (the in-flight one Close waited out)", st.Retrains)
	}
	if st.PersistFailures != 0 {
		t.Fatalf("persist hook failed during Close: %+v", st)
	}
	loaded, err := nuevomatch.LoadFile(path, nuevomatch.WithRemainder(nuevomatch.TupleMerge))
	if err != nil {
		t.Fatalf("artifact persisted during Close is unloadable: %v", err)
	}
	loaded.Close()
}

// TestTableHealthPersistRetry proves the health surface and the persist
// retry policy: a transient save failure is retried away invisibly, a
// persistent one degrades the table with a persist-failing reason (the
// in-memory swap is never undone), and recovery plus Close move the state
// back to Healthy and finally Failed.
func TestTableHealthPersistRetry(t *testing.T) {
	defer faultinject.Reset()
	rs := testRuleSet(t, 200)
	path := filepath.Join(t.TempDir(), "health.nm")
	table, err := nuevomatch.Open(rs,
		nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:   20,
			MinLiveRules: 1,
			Interval:     -1, // Check-driven
		}),
		nuevomatch.WithAutopilotPersist(path))
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	if h := table.Health(); h.State != nuevomatch.Healthy {
		t.Fatalf("fresh table health = %v", h)
	}
	ap := table.Autopilot()

	churn := func(base int) {
		t.Helper()
		for i := 0; i < 30; i++ {
			r := rs.Rules[i]
			r.ID = base + i
			r.Priority = int32(2*(base+i) + 1)
			r.Fields = append([]nuevomatch.Range(nil), r.Fields...)
			if err := table.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One injected save failure: the retry (default 2) absorbs it.
	churn(100_000)
	faultinject.Enable(faultinject.PointTableSave, faultinject.Rule{FailCount: 1})
	if ran, err := ap.Check(); err != nil || !ran {
		t.Fatalf("check under transient fault: ran=%v err=%v", ran, err)
	}
	faultinject.Reset()
	if st := ap.Stats(); st.PersistFailures != 0 || st.PersistRetries == 0 {
		t.Fatalf("transient fault not retried away: %+v", st)
	}
	if h := table.Health(); h.State != nuevomatch.Healthy {
		t.Fatalf("health after retried persist = %v", h)
	}

	// A persistent failure exhausts the retries and degrades the table.
	churn(200_000)
	faultinject.Enable(faultinject.PointTableSave, faultinject.Rule{})
	if ran, err := ap.Check(); err != nil || !ran {
		t.Fatalf("check under persistent fault: ran=%v err=%v", ran, err)
	}
	faultinject.Reset()
	if st := ap.Stats(); st.PersistFailures == 0 || st.ConsecPersistFailures == 0 {
		t.Fatalf("persistent fault unrecorded: %+v", st)
	}
	h := table.Health()
	if h.State != nuevomatch.Degraded || len(h.Reasons) != 1 || h.Reasons[0].Code != "persist-failing" {
		t.Fatalf("health under persist failure = %v", h)
	}
	// Fail-static: the degraded table still answers (swap was not undone).
	if table.Lookup(make(nuevomatch.Packet, rs.NumFields)) < -1 {
		t.Fatal("degraded table unservable")
	}

	// Recovery: the next successful persist clears the streak.
	churn(300_000)
	if ran, err := ap.Check(); err != nil || !ran {
		t.Fatalf("recovery check: ran=%v err=%v", ran, err)
	}
	if h := table.Health(); h.State != nuevomatch.Healthy {
		t.Fatalf("health after recovery = %v", h)
	}
	if _, err := nuevomatch.LoadFile(path); err != nil {
		t.Fatalf("persisted artifact unreadable after recovery: %v", err)
	}

	table.Close()
	if h := table.Health(); h.State != nuevomatch.Failed {
		t.Fatalf("closed table health = %v", h)
	}
}

// TestTableRemainderByName exercises the string forms of WithRemainder
// end to end through the public API: a named backend, the auto selector,
// the unknown-name error, and the Load-time override semantics.
func TestTableRemainderByName(t *testing.T) {
	rs := testRuleSet(t, 250)

	rvh, err := nuevomatch.Open(rs, nuevomatch.WithRemainder("rvh"))
	if err != nil {
		t.Fatal(err)
	}
	defer rvh.Close()
	if got := rvh.Stats().RemainderBackend; got != "rvh" {
		t.Fatalf("Stats().RemainderBackend = %q, want rvh", got)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		p := probe(rng, rs)
		if got, want := rvh.Lookup(p), rs.MatchID(p); got != want {
			t.Fatalf("rvh table Lookup(%v) = %d, want %d", p, got, want)
		}
	}

	// Save the rvh table; load it two ways: plain (recorded name) and with
	// an explicit name override.
	var buf bytes.Buffer
	if _, err := rvh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		opts  []nuevomatch.Option
	}{
		{"plain", nil},
		{"name-override", []nuevomatch.Option{nuevomatch.WithRemainder("tuplemerge")}},
	} {
		loaded, err := nuevomatch.Load(bytes.NewReader(buf.Bytes()), tc.opts...)
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.label, err)
		}
		want := "rvh"
		if tc.label == "name-override" {
			want = "tuplemerge"
		}
		if got := loaded.Stats().RemainderBackend; got != want {
			t.Fatalf("%s: loaded backend %q, want %q", tc.label, got, want)
		}
		for i := 0; i < 200; i++ {
			p := probe(rng, rs)
			if got, w := loaded.Lookup(p), rs.MatchID(p); got != w {
				t.Fatalf("%s: Lookup(%v) = %d, want %d", tc.label, p, got, w)
			}
		}
		loaded.Close()
	}

	if _, err := nuevomatch.Open(rs, nuevomatch.WithRemainder("no-such-backend")); err == nil {
		t.Fatal("Open with an unknown remainder name must error")
	}
	if _, err := nuevomatch.Open(rs, nuevomatch.WithRemainder(42)); err == nil {
		t.Fatal("Open with a non-Builder, non-string remainder must error")
	}
	if _, err := nuevomatch.Load(bytes.NewReader(buf.Bytes()), nuevomatch.WithRemainder("no-such-backend")); err == nil {
		t.Fatal("Load with an unknown remainder name must error")
	}
}

// TestRemainderMustBeFreezable checks that a remainder without a frozen
// form is refused by Open and Load, with an error naming it.
func TestRemainderMustBeFreezable(t *testing.T) {
	rs := testRuleSet(t, 300)
	wantNamed := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"linear"`) {
			t.Fatalf("%s with the linear remainder: error %v, want one naming \"linear\"", what, err)
		}
	}
	_, err := nuevomatch.Open(rs, nuevomatch.WithRemainder(linear.Build))
	wantNamed("Open", err)

	table, err := nuevomatch.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close()
	var buf bytes.Buffer
	if _, err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = nuevomatch.Load(&buf, nuevomatch.WithRemainder(linear.Build))
	wantNamed("Load", err)
}
