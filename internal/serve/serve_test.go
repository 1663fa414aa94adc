package serve_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
)

// fakeBackend classifies by formula (sum of fields) so tests can verify
// responses without a trained engine, and exposes a settable health state.
type fakeBackend struct {
	fields int
	state  atomic.Int32
	reason atomic.Pointer[core.HealthReason]
	closed atomic.Bool
}

func newFake(fields int) *fakeBackend { return &fakeBackend{fields: fields} }

func (f *fakeBackend) NumFields() int { return f.fields }

func (f *fakeBackend) LookupBatch(pkts []rules.Packet, out []int) {
	for i, p := range pkts {
		sum := 0
		for _, v := range p {
			sum += int(v)
		}
		out[i] = sum
	}
}

func (f *fakeBackend) Health() core.Health {
	h := core.Health{State: core.HealthState(f.state.Load())}
	if r := f.reason.Load(); r != nil {
		h.Reasons = append(h.Reasons, *r)
	}
	return h
}

func (f *fakeBackend) Close() error {
	f.closed.Store(true)
	return nil
}

// startServer runs a server over b on ephemeral ports and returns it with a
// cleanup-registered shutdown.
func startServer(t *testing.T, b serve.Backend, cfg serve.Config) *serve.Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	if cfg.Admin == "" {
		cfg.Admin = "127.0.0.1:0"
	}
	s := serve.New(b, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// settledSnapshot returns the server's metrics once they account for the
// responses clients have already received: a reader counts a response after
// the write that delivered it returns, so a client can be a step ahead.
func settledSnapshot(s *serve.Server, responses uint64) serve.MetricsSnapshot {
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.MetricsSnapshot()
		if snap.LatencyCount >= responses || time.Now().After(deadline) {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	s := startServer(t, newFake(3), serve.Config{})
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if c.NumFields() != 3 {
		t.Fatalf("NumFields = %d, want 3", c.NumFields())
	}
	for i := 0; i < 32; i++ {
		pkt := rules.Packet{uint32(i), uint32(2 * i), 7}
		id, err := c.Classify(pkt)
		if err != nil {
			t.Fatalf("Classify: %v", err)
		}
		if want := 3*i + 7; id != want {
			t.Fatalf("Classify(%v) = %d, want %d", pkt, id, want)
		}
	}
}

func TestDialRejectsBadHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.Write([]byte("HTTP/1.1 400 Bad Request\r\n"))
		nc.Close()
	}()
	if _, err := serve.Dial(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("Dial on bad magic = %v, want magic error", err)
	}
}

// TestLoneRequestLatency: a lone request is answered as soon as it is read —
// no batch-fill wait, no timer — so a one-in-flight round trip over loopback
// costs tens of microseconds, and every batch it causes is a singleton.
func TestLoneRequestLatency(t *testing.T) {
	const trips = 500
	s := startServer(t, newFake(2), serve.Config{})
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rtts := make([]time.Duration, trips)
	for i := range rtts {
		start := time.Now()
		id, err := c.Classify(rules.Packet{40, uint32(i)})
		if err != nil || id != 40+i {
			t.Fatalf("Classify = %d, %v; want %d", id, err, 40+i)
		}
		rtts[i] = time.Since(start)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if p50 := rtts[trips/2]; p50 >= 250*time.Microsecond {
		t.Fatalf("lone round trip p50 %v, want < 250µs", p50)
	}
	snap := s.MetricsSnapshot()
	if snap.BatchesTotal != trips || snap.BatchFillSum != trips {
		t.Fatalf("expected %d singleton batches, got fill %d over %d batches", trips, snap.BatchFillSum, snap.BatchesTotal)
	}
}

func TestReloadSwapAndReject(t *testing.T) {
	old := newFake(2)
	var next serve.Backend = newFake(2)
	s := startServer(t, old, serve.Config{
		Reload: func() (serve.Backend, error) { return next, nil },
	})
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Classify(rules.Packet{1, 2}); err != nil {
		t.Fatal(err)
	}

	if err := s.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if !old.closed.Load() {
		t.Fatal("old backend not closed after swap")
	}
	if got := s.Backend(); got != next {
		t.Fatalf("Backend() = %v, want the reloaded one", got)
	}
	// Lookups keep flowing across the swap.
	if id, err := c.Classify(rules.Packet{20, 22}); err != nil || id != 42 {
		t.Fatalf("post-reload Classify = %d, %v", id, err)
	}

	// A reload that changes dimensionality must be rejected and the
	// rejected backend closed.
	wrong := newFake(5)
	next = wrong
	if err := s.Reload(); err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("Reload with wrong NumFields = %v, want rejection", err)
	}
	if !wrong.closed.Load() {
		t.Fatal("rejected backend not closed")
	}
	snap := s.MetricsSnapshot()
	if snap.Reloads != 1 || snap.ReloadFailures != 1 {
		t.Fatalf("reload counters = %d/%d, want 1/1", snap.Reloads, snap.ReloadFailures)
	}
}

// TestShutdownDrains: every request the server accepted before Shutdown
// must be answered before the connection closes.
func TestShutdownDrains(t *testing.T) {
	const n = 100
	s := startServer(t, newFake(2), serve.Config{BatchSize: 8})
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if err := c.Send(uint32(i), rules.Packet{uint32(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has ingested everything, so the drain guarantee
	// (not a read race) is what the test exercises.
	deadline := time.Now().Add(5 * time.Second)
	for s.MetricsSnapshot().RequestsTotal < n {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested only %d/%d requests", s.MetricsSnapshot().RequestsTotal, n)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := 0
	for {
		seq, id, err := c.Recv()
		if err != nil {
			break // server closed the conn after the drain
		}
		if want := int(seq) + 1; id != want {
			t.Fatalf("resp seq %d = %d, want %d", seq, id, want)
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d/%d responses", got, n)
	}
	if snap := s.MetricsSnapshot(); snap.ResponsesTotal != n || snap.Inflight != 0 {
		t.Fatalf("post-drain metrics: responses %d inflight %d", snap.ResponsesTotal, snap.Inflight)
	}
}

func adminGet(t *testing.T, s *serve.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", s.AdminAddr(), path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	b := newFake(2)
	s := startServer(t, b, serve.Config{})

	if code, body := adminGet(t, s, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := adminGet(t, s, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz healthy = %d %q", code, body)
	}

	// Degraded: still ready, but flagged with the reason.
	b.state.Store(int32(core.Degraded))
	b.reason.Store(&core.HealthReason{Shard: 1, Code: "retrain-failing", Detail: "x"})
	if code, body := adminGet(t, s, "/readyz"); code != 200 || !strings.Contains(body, "degraded") || !strings.Contains(body, "retrain-failing") {
		t.Fatalf("/readyz degraded = %d %q", code, body)
	}

	// Failed: not ready.
	b.state.Store(int32(core.Failed))
	if code, _ := adminGet(t, s, "/readyz"); code != 503 {
		t.Fatalf("/readyz failed = %d, want 503", code)
	}
	b.state.Store(int32(core.Healthy))
	b.reason.Store(nil)

	// Metrics exposition includes serving counters and health state.
	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Classify(rules.Packet{1, 1}); err != nil {
		t.Fatal(err)
	}
	settledSnapshot(s, 1)
	code, body := adminGet(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"nmserve_requests_total 1",
		"nmserve_responses_total 1",
		"nmserve_batches_total",
		"nmserve_health_state 0",
		"nmserve_request_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestPipelinedWindowBatches: a client's own pipelined window is its batch.
// Every response must route back to the connection that asked, in request
// order, and batches must carry more than one request without ever
// exceeding BatchSize.
func TestPipelinedWindowBatches(t *testing.T) {
	const clients, per, batchSize = 16, 200, 24
	s := startServer(t, newFake(2), serve.Config{BatchSize: batchSize})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := serve.Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			const window = 32
			next, inflight, expect := 0, 0, uint32(0)
			for next < per || inflight > 0 {
				for next < per && inflight < window {
					// Client identity baked into the payload: a misrouted
					// response would fail the check below.
					if err := c.Send(uint32(next), rules.Packet{uint32(ci * 1000), uint32(next)}); err != nil {
						errs <- err
						return
					}
					next++
					inflight++
				}
				if err := c.Flush(); err != nil {
					errs <- err
					return
				}
				seq, id, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if seq != expect {
					errs <- fmt.Errorf("client %d: response seq %d arrived where %d was due", ci, seq, expect)
					return
				}
				expect++
				if want := ci*1000 + int(seq); id != want {
					errs <- fmt.Errorf("client %d seq %d: got %d, want %d", ci, seq, id, want)
					return
				}
				inflight--
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := settledSnapshot(s, clients*per)
	if snap.ResponsesTotal != clients*per {
		t.Fatalf("responses %d, want %d", snap.ResponsesTotal, clients*per)
	}
	if fill := snap.AvgBatchFill(); fill <= 1 || fill > batchSize {
		t.Fatalf("avg batch fill %.2f over %d batches, want in (1, %d]", fill, snap.BatchesTotal, batchSize)
	}
	t.Logf("batches %d, avg fill %.1f", snap.BatchesTotal, snap.AvgBatchFill())
}

// TestStalledClientDoesNotBlockOthers: a client that pipelines far more than
// the socket buffers hold and never reads parks its own reader in a write;
// every other connection keeps being served, and Shutdown still drains
// without waiting for its context to expire.
func TestStalledClientDoesNotBlockOthers(t *testing.T) {
	s := startServer(t, newFake(2), serve.Config{})
	stalled, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// 64 MiB of valid frames, far past any loopback socket buffering. The
	// writer blocks once its own send buffer fills behind the server's; the
	// connection is closed at test end, which releases it.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		chunk := make([]byte, 12*4096)
		for i := 0; i < 64<<20/len(chunk); i++ {
			if _, err := stalled.Write(chunk); err != nil {
				return
			}
		}
	}()
	// The stall is in place once the server has stopped making progress on
	// the flood: its reader is parked writing responses nobody reads.
	last, deadline := uint64(0), time.Now().Add(10*time.Second)
	for {
		time.Sleep(50 * time.Millisecond)
		cur := s.MetricsSnapshot().RequestsTotal
		if cur > 0 && cur == last {
			break
		}
		if last = cur; time.Now().After(deadline) {
			t.Fatalf("flooding client never stalled (%d requests read)", cur)
		}
	}
	if in := s.MetricsSnapshot().Inflight; in <= 0 {
		t.Fatalf("stalled connection shows %d requests in flight, want > 0", in)
	}

	c, err := serve.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	served := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			start := time.Now()
			id, err := c.Classify(rules.Packet{uint32(i), 5})
			if err != nil || id != i+5 {
				served <- fmt.Errorf("Classify beside a stalled client = %d, %v; want %d", id, err, i+5)
				return
			}
			if e := time.Since(start); e > 100*time.Millisecond {
				served <- fmt.Errorf("round trip %d took %v beside a stalled client", i, e)
				return
			}
		}
		served <- nil
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a second connection is not served while one client is stalled")
	}

	// The stalled reader is parked in Write; only the write deadline can
	// release it short of the context expiring.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("Shutdown took %v with a stalled client, want the write deadline to release it", e)
	}
	snap := s.MetricsSnapshot()
	if snap.WriteErrors == 0 || snap.RequestsTotal != snap.ResponsesTotal+snap.WriteErrors {
		t.Fatalf("after drain: %d requests, %d responses, %d dropped", snap.RequestsTotal, snap.ResponsesTotal, snap.WriteErrors)
	}
	stalled.Close()
	<-wrote
}
