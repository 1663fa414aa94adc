// Command nmserve is the network-facing serving daemon: it loads a
// persisted table or cluster and serves classification over TCP, batching
// each connection's pipelined requests inline, plus an HTTP admin plane
// (/healthz, /readyz, /metrics, /reload). SIGHUP hot-reloads the artifact
// from disk; SIGINT or SIGTERM drains in-flight requests, optionally
// persists, and exits.
//
//	nmserve -load table.nm                     # serve a single table
//	nmserve -load cluster.d -persist           # serve a cluster, save on exit
//	nmserve bench -connect host:9090 -load ... # client-side conformance bench
//
// See docs/SERVING.md for the protocol and operational semantics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"nuevomatch"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
	"nuevomatch/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		cmdBench(os.Args[2:])
		return
	}
	cmdServe(os.Args[1:])
}

func cmdServe(args []string) {
	fs := newFlagSet("nmserve")
	var (
		load    = fs.String("load", "", "table artifact or cluster directory from `nmctl build` (required)")
		listen  = fs.String("listen", "127.0.0.1:9090", "data-plane TCP listen address")
		admin   = fs.String("admin", "127.0.0.1:9091", "HTTP admin listen address (empty disables)")
		batch   = fs.Int("batch", 128, "max pipelined requests of one connection per inference batch")
		persist = fs.Bool("persist", false, "save the artifact back to -load on autopilot retrains and at shutdown")
		maxUpd  = fs.Int("retrain-updates", 0, "autopilot: retrain after this many updates (0 = policy default)")
		maxFrac = fs.Float64("retrain-remfrac", 0, "autopilot: retrain when the remainder fraction exceeds this (0 = policy default)")
	)
	fs.Parse(args)
	if *load == "" {
		fatal(fmt.Errorf("nmserve requires -load table.nm (or a cluster directory)"))
	}

	loader := func() (serve.Backend, error) {
		return loadBackend(*load, *maxUpd, *maxFrac, *persist)
	}
	backend, err := loader()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s (%d fields)\n", *load, backend.NumFields())

	srv := serve.New(backend, serve.Config{
		Listen:    *listen,
		Admin:     *admin,
		BatchSize: *batch,
		Reload:    loader,
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("serving on %s (admin %s), batch %d\n", srv.Addr(), *admin, *batch)

	// SIGHUP: hot reload from the same path — the RCU swap never stalls
	// in-flight batches.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "nmserve: reload: %v\n", err)
				continue
			}
			fmt.Println("reloaded", *load)
		}
	}()

	// SIGINT/SIGTERM: drain, persist, close — the same drain path nmctl's
	// churn mode uses.
	ctx, stop := serve.ShutdownContext()
	defer stop()
	<-ctx.Done()
	signal.Stop(hup)
	fmt.Println("shutting down: draining in-flight requests")
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "nmserve: drain: %v\n", err)
	}
	final := srv.Backend()
	if *persist {
		if err := saveBackend(final, *load); err != nil {
			fmt.Fprintf(os.Stderr, "nmserve: final persist: %v\n", err)
		} else {
			fmt.Println("persisted", *load)
		}
	}
	if cl, ok := final.(interface{ Close() error }); ok {
		cl.Close()
	}
	snap := srv.MetricsSnapshot()
	fmt.Printf("served %d requests in %d batches (avg fill %.1f)\n",
		snap.ResponsesTotal, snap.BatchesTotal, snap.AvgBatchFill())
}

// loadBackend warm-loads the artifact at path: a cluster directory (or a
// path inside one) or a single-table file. Autopilot supervision is
// attached when any retrain flag or persistence is requested.
func loadBackend(path string, maxUpd int, maxFrac float64, persist bool) (serve.Backend, error) {
	wantAP := maxUpd > 0 || maxFrac > 0 || persist
	if dir, ok := clusterDir(path); ok {
		var opts []nuevomatch.ClusterOption
		if wantAP {
			opts = append(opts, nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{
				MaxUpdates:           maxUpd,
				MaxRemainderFraction: maxFrac,
			}))
			if persist {
				opts = append(opts, nuevomatch.WithClusterAutopilotPersist(dir))
			}
		}
		return nuevomatch.LoadCluster(dir, opts...)
	}
	var opts []nuevomatch.Option
	if wantAP {
		opts = append(opts, nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:           maxUpd,
			MaxRemainderFraction: maxFrac,
		}))
		if persist {
			opts = append(opts, nuevomatch.WithAutopilotPersist(path))
		}
	}
	return nuevomatch.LoadFile(path, opts...)
}

// saveBackend writes the backend's live state back to its artifact path —
// the final persist on graceful shutdown.
func saveBackend(b serve.Backend, path string) error {
	switch t := b.(type) {
	case *nuevomatch.Table:
		return t.SaveFile(path)
	case *nuevomatch.Cluster:
		dir, ok := clusterDir(path)
		if !ok {
			dir = path
		}
		return t.SaveDir(dir)
	default:
		return fmt.Errorf("backend %T does not support persistence", b)
	}
}

// clusterDir reports whether path names a saved cluster directory (same
// detection as nmctl: the directory, its manifest, CURRENT, or a
// generation directory inside it).
func clusterDir(path string) (string, bool) {
	switch filepath.Base(path) {
	case "cluster.json", "CURRENT":
		path = filepath.Dir(path)
	}
	if strings.HasPrefix(filepath.Base(path), "gen-") {
		if _, err := os.Stat(filepath.Join(filepath.Dir(path), "CURRENT")); err == nil {
			path = filepath.Dir(path)
		}
	}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		return path, true
	}
	return "", false
}

// cmdBench is the client side: stream count uniform packets through a
// running nmserve from several pipelined connections, verify every response
// against a linear reference over the same artifact, and report throughput
// and end-to-end latency. Exits non-zero on any mismatch — the CI smoke
// test's conformance assert.
func cmdBench(args []string) {
	fs := newFlagSet("nmserve bench")
	var (
		connect = fs.String("connect", "127.0.0.1:9090", "nmserve data-plane address")
		load    = fs.String("load", "", "artifact the server is serving, for the linear reference (required)")
		count   = fs.Int("count", 20000, "total packets to stream")
		clients = fs.Int("clients", 8, "concurrent connections")
		window  = fs.Int("window", 64, "pipelining window per connection")
		seed    = fs.Int64("seed", 1, "random seed for the uniform trace")
		ready   = fs.String("ready", "", "poll this /readyz URL until 200 before streaming (e.g. http://127.0.0.1:9091/readyz)")
	)
	fs.Parse(args)
	if *load == "" {
		fatal(fmt.Errorf("bench requires -load (the served artifact, for reference lookups)"))
	}
	if *ready != "" {
		if err := waitReady(*ready, 30*time.Second); err != nil {
			fatal(err)
		}
	}

	rs, err := referenceRules(*load)
	if err != nil {
		fatal(err)
	}
	prioOf := make(map[int]int32, rs.Len())
	for i := range rs.Rules {
		prioOf[rs.Rules[i].ID] = rs.Rules[i].Priority
	}
	rng := rand.New(rand.NewSource(*seed))
	pkts := trace.Uniform(rng, rs, *count).Packets

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		mismatches int
		latencies  []time.Duration
	)
	per := (len(pkts) + *clients - 1) / *clients
	start := time.Now()
	for ci := 0; ci < *clients; ci++ {
		lo := ci * per
		hi := min(lo+per, len(pkts))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []rules.Packet) {
			defer wg.Done()
			cl, err := serve.Dial(*connect)
			if err != nil {
				fatal(err)
			}
			defer cl.Close()
			bad, lats := streamVerify(cl, part, rs, prioOf, *window)
			mu.Lock()
			mismatches += bad
			latencies = append(latencies, lats...)
			mu.Unlock()
		}(pkts[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("streamed %d packets from %d clients (window %d) in %v: %.0f pps\n",
		len(pkts), *clients, *window, elapsed.Round(time.Millisecond),
		float64(len(pkts))/elapsed.Seconds())
	fmt.Printf("e2e latency: p50 %v  p99 %v\n", pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
	fmt.Printf("verification: %d mismatches over %d responses\n", mismatches, len(pkts))
	if mismatches > 0 {
		os.Exit(1)
	}
}

// streamVerify pipelines part through cl with the given window, verifying
// every response against the linear reference (compared by winning
// priority, tolerating duplicate priorities). Returns the mismatch count
// and per-request client-side latencies.
func streamVerify(cl *serve.Client, part []rules.Packet, rs *rules.RuleSet, prioOf map[int]int32, window int) (int, []time.Duration) {
	sent := make([]time.Time, len(part))
	lats := make([]time.Duration, 0, len(part))
	mismatches := 0
	inflight, next := 0, 0
	recvOne := func() {
		seq, got, err := cl.Recv()
		if err != nil {
			fatal(err)
		}
		lats = append(lats, time.Since(sent[seq]))
		want := rs.MatchID(part[seq])
		if got != want && ((got < 0) != (want < 0) || prioOf[got] != prioOf[want]) {
			mismatches++
		}
		inflight--
	}
	for next < len(part) || inflight > 0 {
		for next < len(part) && inflight < window {
			sent[next] = time.Now()
			if err := cl.Send(uint32(next), part[next]); err != nil {
				fatal(err)
			}
			next++
			inflight++
		}
		if err := cl.Flush(); err != nil {
			fatal(err)
		}
		for inflight > 0 {
			recvOne()
			// Top the window back up as soon as there is room again.
			if next < len(part) && inflight < window/2 {
				break
			}
		}
	}
	return mismatches, lats
}

// referenceRules recovers the live rule-set from the served artifact for
// linear-reference verification.
func referenceRules(path string) (*rules.RuleSet, error) {
	if dir, ok := clusterDir(path); ok {
		c, err := nuevomatch.LoadCluster(dir)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.LiveRuleSet().Clone(), nil
	}
	t, err := nuevomatch.LoadFile(path)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	return t.Engine().LiveRuleSet().Clone(), nil
}

// waitReady polls an admin /readyz URL until it answers 200 or the timeout
// lapses — lets CI background nmserve and start streaming the moment it is
// up, without sleeps.
func waitReady(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v: %s", timeout, url)
}

func newFlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ExitOnError) }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nmserve: %v\n", err)
	os.Exit(1)
}
