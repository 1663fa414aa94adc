package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
)

// genRules builds a ClassBench rule-set with unique priorities so the
// linear reference and the engine agree exactly, not just by priority.
func genRules(t *testing.T, profile string, n int) *rules.RuleSet {
	t.Helper()
	prof, err := classbench.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	rs := classbench.Generate(prof, n)
	for i := range rs.Rules {
		rs.Rules[i].Priority = int32(i + 1)
	}
	return rs
}

// streamClient pipelines match-biased probe packets through one connection
// with the given window, verifying every response against the linear
// reference mirror. Returns the mismatch count.
func streamClient(addr string, mirror *rules.RuleSet, seed int64, count, window int) (int, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]rules.Packet, count)
	for i := range pkts {
		p := make(rules.Packet, mirror.NumFields)
		if rng.Intn(4) != 0 {
			classbench.FillMatchingPacket(rng, &mirror.Rules[rng.Intn(mirror.Len())], p)
		} else {
			for d := range p {
				p[d] = rng.Uint32()
			}
		}
		pkts[i] = p
	}
	mismatches := 0
	next, inflight := 0, 0
	for next < len(pkts) || inflight > 0 {
		for next < len(pkts) && inflight < window {
			if err := c.Send(uint32(next), pkts[next]); err != nil {
				return mismatches, err
			}
			next++
			inflight++
		}
		if err := c.Flush(); err != nil {
			return mismatches, err
		}
		for inflight > 0 {
			seq, got, err := c.Recv()
			if err != nil {
				return mismatches, err
			}
			if want := mirror.MatchID(pkts[seq]); got != want {
				mismatches++
			}
			inflight--
			if next < len(pkts) && inflight < window/2 {
				break
			}
		}
	}
	return mismatches, nil
}

// TestServeE2EConformance is the acceptance gate: 64 concurrent clients
// stream 20k+ ClassBench packets through a served 2-shard cluster; every
// response must match the linear reference, batches must actually coalesce
// (average fill > 8), and readiness must hold throughout.
func TestServeE2EConformance(t *testing.T) {
	const (
		clients   = 64
		perClient = 320 // 64×320 = 20480 total requests
		window    = 32
	)
	size := 600
	if testing.Short() {
		size = 200
	}
	rs := genRules(t, "acl1", size)
	cluster, err := nuevomatch.OpenCluster(rs.Clone(),
		nuevomatch.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	s := startServer(t, cluster, serve.Config{BatchSize: 128})

	if code, body := adminGet(t, s, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz before load = %d %q", code, body)
	}

	var wg sync.WaitGroup
	type result struct {
		mismatches int
		err        error
	}
	results := make([]result, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			m, err := streamClient(s.Addr().String(), rs, int64(1000+ci), perClient, window)
			results[ci] = result{m, err}
		}(ci)
	}
	wg.Wait()

	total := 0
	for ci, r := range results {
		if r.err != nil {
			t.Fatalf("client %d: %v", ci, r.err)
		}
		total += r.mismatches
	}
	if total != 0 {
		t.Fatalf("%d mismatches over %d streamed packets", total, clients*perClient)
	}

	snap := settledSnapshot(s, clients*perClient)
	if snap.ResponsesTotal != clients*perClient {
		t.Fatalf("responses %d, want %d", snap.ResponsesTotal, clients*perClient)
	}
	if fill := snap.AvgBatchFill(); fill <= 8 {
		t.Fatalf("avg batch fill %.1f — coalescing is not happening (batches %d)", fill, snap.BatchesTotal)
	}
	t.Logf("served %d requests in %d batches (avg fill %.1f, p50 %.0fµs p99 %.0fµs)",
		snap.ResponsesTotal, snap.BatchesTotal, snap.AvgBatchFill(), snap.LatencyP50US, snap.LatencyP99US)

	if code, body := adminGet(t, s, "/readyz"); code != 200 || strings.Contains(body, "degraded") {
		t.Fatalf("/readyz after load = %d %q, want plain ready", code, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServeDegradedUnderFaults walks readiness through the full health
// lifecycle while traffic flows and is verified at every phase: healthy →
// retrain-failing (injected build fault) → persist-failing (injected save
// fault) → recovered → closed. Inserted rules are strictly-worse-priority
// duplicates, so the linear reference never shifts and every response is
// checkable throughout.
func TestServeDegradedUnderFaults(t *testing.T) {
	defer faultinject.Reset()
	rs := genRules(t, "acl1", 300)
	maxPrio := int32(rs.Len() + 1)
	persistPath := filepath.Join(t.TempDir(), "table.nm")

	table, err := nuevomatch.Open(rs.Clone(),
		nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:     1,
			Interval:       -1, // no watcher: Check() drives retrains deterministically
			PersistRetries: -1,
		}),
		nuevomatch.WithAutopilotPersist(persistPath))
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, table, serve.Config{BatchSize: 64})

	burst := func(stage string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for ci := 0; ci < 8; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				m, err := streamClient(s.Addr().String(), rs, int64(77+ci), 200, 16)
				if err != nil {
					errs <- fmt.Errorf("%s client %d: %v", stage, ci, err)
				} else if m != 0 {
					errs <- fmt.Errorf("%s client %d: %d mismatches", stage, ci, m)
				}
			}(ci)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	readyz := func(wantCode int, wantSub string) {
		t.Helper()
		code, body := adminGet(t, s, "/readyz")
		if code != wantCode || !strings.Contains(body, wantSub) {
			t.Fatalf("/readyz = %d %q, want %d with %q", code, body, wantCode, wantSub)
		}
	}
	// insertDup adds a duplicate of rule i under a fresh ID with strictly
	// worse priority — a real update for the drift counters that can never
	// change a lookup result.
	nextID := 1 << 20
	insertDup := func(i int) {
		t.Helper()
		r := rs.Rules[i]
		r.ID = nextID
		nextID++
		r.Priority = maxPrio + int32(nextID)
		r.Fields = append([]rules.Range(nil), r.Fields...)
		if err := table.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	ap := table.Autopilot()

	readyz(200, "ready")
	burst("healthy")

	// Phase 1: retrains fail — degraded but still ready and correct.
	faultinject.Enable(faultinject.PointRetrainBuild, faultinject.Rule{})
	insertDup(0)
	if _, err := ap.Check(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Check under build fault = %v, want injected error", err)
	}
	readyz(200, "retrain-failing")
	burst("retrain-failing")

	// Phase 2: retrains recover but persistence fails — still ready,
	// flagged with the persist reason.
	faultinject.Reset()
	faultinject.Enable(faultinject.PointTableSave, faultinject.Rule{})
	insertDup(1)
	if _, err := ap.Check(); err != nil {
		t.Fatalf("Check under save fault = %v, want retrain success", err)
	}
	readyz(200, "persist-failing")
	burst("persist-failing")

	// Phase 3: faults lift — one good retrain+persist clears every flag.
	faultinject.Reset()
	insertDup(2)
	if ran, err := ap.Check(); err != nil || !ran {
		t.Fatalf("recovery Check = %v, %v; want a clean retrain", ran, err)
	}
	code, body := adminGet(t, s, "/readyz")
	if code != 200 || strings.Contains(body, "degraded") {
		t.Fatalf("/readyz after recovery = %d %q, want plain ready", code, body)
	}
	burst("recovered")

	// Phase 4: a closed backend must flip readiness to 503. The data plane
	// stays correct for anything in flight (lookups survive Close).
	if err := table.Close(); err != nil {
		t.Fatal(err)
	}
	readyz(503, "closed")
	burst("closed")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
}
