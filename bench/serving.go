package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"nuevomatch"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
)

const (
	serveConns  = 2                     // closed loop: each connection waits for replies
	serveWindow = 256                   // requests in flight per connection after a send
	serveStep   = serveWindow / 2       // the window slides in steps of 128
	serveSlice  = 25 * time.Millisecond // throughput is counted per slice
	// In the traced run every traceEvery-th window of a connection is
	// recorded; all of them would only make the span file large.
	traceEvery = 8
)

// served is what the throughput phase observed from outside the server plus
// the server's own counters, read after Shutdown returned (they trail the
// last flush while the server runs).
type served struct {
	slices []float64 // responses per full slice, all connections
	cpuUS  float64   // process CPU time over the phase (getrusage)
	latUS  []float64 // client-side request latency of the traced windows
	snap   serve.MetricsSnapshot
}

// mpps is the sliceCeiling of the response counts.
func (s *served) mpps() float64 {
	return sliceCeiling(s.slices) / serveSlice.Seconds() / 1e6
}

func startServer(t *nuevomatch.Table) (*serve.Server, error) {
	srv := serve.New(t, serve.Config{Listen: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

func stopServer(srv *serve.Server) (serve.MetricsSnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	return srv.MetricsSnapshot(), err
}

func cpuTimeUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// servePhase drives the serving tier in a closed loop over loopback in this
// process: serveConns connections each keep a sliding window of requests in
// flight for dur, every response is checked against the direct answer, and
// responses are counted into fixed slices of wall time.
func servePhase(t *nuevomatch.Table, pkts []rules.Packet, want []int, dur time.Duration, chk *checker, tr *tracer) (*served, error) {
	srv, err := startServer(t)
	if err != nil {
		return nil, err
	}
	addr := srv.Addr().String()
	nSlices := int(dur/serveSlice) + 1
	counts := make([][]float64, serveConns)
	lats := make([][]float64, serveConns)
	errs := make([]error, serveConns)

	cpu0 := cpuTimeUS()
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < serveConns; ci++ {
		counts[ci] = make([]float64, nSlices)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			// Each connection walks its own part of the trace.
			first := ci * (len(pkts) / serveConns)
			lats[ci], errs[ci] = windowClient(addr, pkts, want, first, start, dur, counts[ci], chk, tr, ci)
		}(ci)
	}
	wg.Wait()
	cpu := cpuTimeUS() - cpu0
	snap, serr := stopServer(srv)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if serr != nil {
		return nil, fmt.Errorf("shutdown: %w", serr)
	}

	s := &served{cpuUS: cpu, snap: snap}
	// The last slice is partial; drop it.
	for i := 0; i < nSlices-1; i++ {
		n := 0.0
		for ci := range counts {
			n += counts[ci][i]
		}
		s.slices = append(s.slices, n)
	}
	for _, l := range lats {
		s.latUS = append(s.latUS, l...)
	}
	chk.attempted.Add(1)
	if snap.ResponsesTotal != snap.RequestsTotal || snap.WriteErrors != 0 || snap.ReadErrors != 0 {
		chk.fail("server answered %d of %d requests (%d read errors, %d write errors)",
			snap.ResponsesTotal, snap.RequestsTotal, snap.ReadErrors, snap.WriteErrors)
	}
	return s, nil
}

// windowClient is one closed-loop connection. It sends serveStep requests,
// then reads the serveStep oldest responses, so between serveStep and
// serveWindow requests are in flight. Sequence numbers are trace positions.
func windowClient(addr string, pkts []rules.Packet, want []int, first int, start time.Time, dur time.Duration,
	counts []float64, chk *checker, tr *tracer, conn int) (latUS []float64, err error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	next := first
	send := func() error {
		for i := 0; i < serveStep; i++ {
			if err := c.Send(uint32(next), pkts[next]); err != nil {
				return err
			}
			if next++; next == len(pkts) {
				next = 0
			}
		}
		return c.Flush()
	}
	// recv reads n responses; with stamp it also records each one's latency
	// since its step was flushed at sent.
	recv := func(n int, stamp bool, sent time.Time) error {
		for i := 0; i < n; i++ {
			seq, id, err := c.Recv()
			if err != nil {
				return err
			}
			if stamp {
				latUS = append(latUS, float64(time.Since(sent).Nanoseconds())/1e3)
			}
			chk.attempted.Add(1)
			if int(seq) >= len(want) || id != want[seq] {
				chk.fail("served response %d answered %d", seq, id)
			}
		}
		return nil
	}

	if err := send(); err != nil {
		return nil, err
	}
	sentAt := time.Now() // flush time of the oldest unanswered step
	for w := 0; ; w++ {
		traced := tr != nil && w%traceEvery == 0
		var t *tracer
		if traced {
			t = tr
		}
		req := conn<<24 | w
		root := t.begin("serve.client.window", 0, req)
		id := t.begin("serve.client.send", root, req)
		if err := send(); err != nil {
			return nil, err
		}
		t.end(id)
		newest := time.Now()
		id = t.begin("serve.client.wait_first", root, req)
		if err := recv(1, traced, sentAt); err != nil {
			return nil, err
		}
		t.end(id)
		id = t.begin("serve.client.drain", root, req)
		if err := recv(serveStep-1, traced, sentAt); err != nil {
			return nil, err
		}
		t.end(id)
		t.end(root)
		sentAt = newest
		elapsed := time.Since(start)
		if i := int(elapsed / serveSlice); i < len(counts) {
			counts[i] += serveStep
		}
		if elapsed >= dur {
			break
		}
	}
	return latUS, recv(serveStep, false, sentAt) // drain the step still in flight
}

// lone is the one-in-flight phase: what a single request pays for a round
// trip through the server, mostly the dispatcher's batch-fill wait.
type lone struct {
	rttUS []float64
	snap  serve.MetricsSnapshot
}

func rttPhase(t *nuevomatch.Table, pkts []rules.Packet, want []int, dur time.Duration, chk *checker) (*lone, error) {
	srv, err := startServer(t)
	if err != nil {
		return nil, err
	}
	c, err := serve.Dial(srv.Addr().String())
	if err != nil {
		stopServer(srv)
		return nil, err
	}
	l := &lone{}
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(pkts)
		t0 := time.Now()
		id, err := c.Classify(pkts[k])
		d := time.Since(t0)
		if err != nil {
			c.Close()
			stopServer(srv)
			return nil, err
		}
		l.rttUS = append(l.rttUS, float64(d.Nanoseconds())/1e3)
		chk.attempted.Add(1)
		if id != want[k] {
			chk.fail("round trip %d answered %d, want %d", k, id, want[k])
		}
	}
	c.Close()
	l.snap, err = stopServer(srv)
	return l, err
}
