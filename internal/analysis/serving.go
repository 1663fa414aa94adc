package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nuevomatch/internal/classbench"
	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
	"nuevomatch/internal/trace"
)

// ServingReport measures the network serving tier over the artifact's
// profile: the same engine reached through nmserve's per-connection inline
// batching versus called directly, so the section answers "what does the
// wire cost, and how much batch throughput does a client's pipelined window
// recover?".
type ServingReport struct {
	Clients   int `json:"clients"`
	Window    int `json:"window"`
	BatchSize int `json:"batch_size"`

	// Requests streamed and how many responses disagreed with the direct
	// engine answer (must be zero).
	Requests   int `json:"requests"`
	Mismatches int `json:"mismatches"`

	// CoalescedPPS is end-to-end serving throughput (TCP + per-connection
	// batching + batch inference); DirectBatchPPS is the same engine's in-process
	// LookupBatch throughput. Their ratio is the serving tier's efficiency.
	CoalescedPPS      float64 `json:"coalesced_pps"`
	DirectBatchPPS    float64 `json:"direct_batch_pps"`
	CoalescedVsDirect float64 `json:"coalesced_vs_direct"`

	// AvgBatchFill is how many requests the connection readers actually
	// packed per inference batch; FillRatio normalizes by the batch size.
	AvgBatchFill float64 `json:"avg_batch_fill"`
	FillRatio    float64 `json:"fill_ratio"`

	// Client-observed end-to-end latency (send to response, pipelined).
	E2EP50US float64 `json:"e2e_p50_us"`
	E2EP99US float64 `json:"e2e_p99_us"`
}

// engineBackend adapts a bare core.Engine to serve.Backend: a standalone
// engine has no autopilot or shards, so it is unconditionally healthy.
type engineBackend struct{ *core.Engine }

func (engineBackend) Health() core.Health { return core.Health{State: core.Healthy} }

// AttachServing measures the serving tier with the given client count and
// records it in the artifact. clients <= 0 skips the section.
func (a *BenchArtifact) AttachServing(clients int, seed int64) error {
	if clients <= 0 {
		return nil
	}
	const (
		window = 64
		batch  = BatchSize
	)
	prof, err := classbench.ProfileByName(a.Profile)
	if err != nil {
		return err
	}
	rs := classbench.Generate(prof, a.Rules)
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Uniform(rng, rs, a.TraceLen)

	e, err := BuildNM(TM, rs)
	if err != nil {
		return err
	}

	// The engine itself is the reference: the artifact's conformance gate
	// already pinned batch == scalar == linear reference.
	expected := make([]int, len(tr.Packets))
	for i, p := range tr.Packets {
		expected[i] = e.Lookup(p)
	}
	direct := measureBatch(tr.Packets, batch, func(pkts []rules.Packet, out []int) {
		e.LookupBatch(pkts, out)
	})

	srv := serve.New(engineBackend{e}, serve.Config{
		Listen:    "127.0.0.1:0",
		BatchSize: batch,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	rep := &ServingReport{
		Clients:   clients,
		Window:    window,
		BatchSize: batch,
		Requests:  len(tr.Packets),
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		lats      []float64
		firstErr  error
		mismatchN int
	)
	per := (len(tr.Packets) + clients - 1) / clients
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		lo := ci * per
		hi := min(lo+per, len(tr.Packets))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(pkts []rules.Packet, want []int) {
			defer wg.Done()
			bad, clats, err := streamPartition(srv.Addr().String(), pkts, want, window)
			mu.Lock()
			defer mu.Unlock()
			mismatchN += bad
			lats = append(lats, clats...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(tr.Packets[lo:hi], expected[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return fmt.Errorf("serving bench client: %w", firstErr)
	}

	rep.Mismatches = mismatchN
	rep.CoalescedPPS = float64(len(tr.Packets)) / elapsed.Seconds()
	rep.DirectBatchPPS = direct.ThroughputPPS
	if rep.DirectBatchPPS > 0 {
		rep.CoalescedVsDirect = rep.CoalescedPPS / rep.DirectBatchPPS
	}
	snap := srv.MetricsSnapshot()
	rep.AvgBatchFill = snap.AvgBatchFill()
	rep.FillRatio = rep.AvgBatchFill / float64(batch)
	sort.Float64s(lats)
	rep.E2EP50US, rep.E2EP99US = percentiles(lats)
	a.Serving = rep
	return nil
}

// streamPartition pipelines one partition through one connection,
// verifying every response and sampling client-side end-to-end latency in
// microseconds.
func streamPartition(addr string, pkts []rules.Packet, want []int, window int) (mismatches int, lats []float64, err error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	sent := make([]time.Time, len(pkts))
	lats = make([]float64, 0, len(pkts))
	next, inflight := 0, 0
	for next < len(pkts) || inflight > 0 {
		for next < len(pkts) && inflight < window {
			sent[next] = time.Now()
			if err := c.Send(uint32(next), pkts[next]); err != nil {
				return mismatches, lats, err
			}
			next++
			inflight++
		}
		if err := c.Flush(); err != nil {
			return mismatches, lats, err
		}
		for inflight > 0 {
			seq, got, rerr := c.Recv()
			if rerr != nil {
				return mismatches, lats, rerr
			}
			lats = append(lats, float64(time.Since(sent[seq]))/float64(time.Microsecond))
			if got != want[seq] {
				mismatches++
			}
			inflight--
			if next < len(pkts) && inflight < window/2 {
				break
			}
		}
	}
	return mismatches, lats, nil
}
