// Command nmctl drives NuevoMatch tables end to end: train and persist a
// table offline, then serve it warm — the production split the persistence
// lifecycle exists for — plus an ad-hoc combined mode for quick experiments.
//
// Usage:
//
//	nmctl build -gen acl1 -size 10000 -o table.nm     # train offline, persist
//	nmctl build -rules acl1_10k.rules -o table.nm
//	nmctl build -gen acl1 -size 10000 -shards 4 -o cluster.d   # sharded cluster
//	nmctl serve -load table.nm -bench                 # warm start: no retraining
//	nmctl serve -load table.nm -churn 50000 -persist table.nm
//	nmctl serve -load cluster.d -bench                # warm start a whole cluster
//	nmctl serve -load cluster.d -churn 50000 -persist cluster.d
//	nmctl fsck -repair cluster.d                      # verify/repair a saved cluster
//	nmctl -gen acl1 -size 10000 -bench                # legacy combined mode
//
// With -shards N (N > 1) build trains a sharded nuevomatch.Cluster —
// N independent engines over a partitioned rule-set — and -o names a
// directory holding one table artifact per shard plus the cluster manifest.
// serve -load detects such a directory (or its cluster.json) and loads the
// whole cluster; churn mode then runs one autopilot per shard, so retrains
// stall 1/N of the table.
//
// serve loads in milliseconds whatever build spent training and reports the
// load-vs-build amortization. Churn mode (-churn N) runs a sustained
// interleaved insert/delete/lookup workload with the autopilot supervising
// the table: drift trips the policy, retraining happens on a background
// goroutine, the retrained state is hot-swapped behind the lookup path, and
// with -persist the artifact on disk is refreshed after every retrain so a
// restart warm-starts from the freshest state. Progress lines report ops,
// throughput, retrains, and swap latency; -verify additionally checks every
// lookup against a linear reference mirror.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
	"nuevomatch/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			cmdBuild(os.Args[2:])
			return
		case "serve":
			cmdServe(os.Args[2:])
			return
		case "fsck":
			cmdFsck(os.Args[2:])
			return
		}
	}
	cmdLegacy(os.Args[1:])
}

// ruleSource loads or generates the rule-set shared by build and the legacy
// mode.
func ruleSource(rulesPath, gen string, size int) (*rules.RuleSet, error) {
	switch {
	case gen != "":
		prof, err := classbench.ProfileByName(gen)
		if err != nil {
			return nil, err
		}
		rs := classbench.Generate(prof, size)
		fmt.Printf("generated %d %s rules\n", rs.Len(), prof.Name)
		return rs, nil
	case rulesPath != "":
		f, err := os.Open(rulesPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rs, err := rules.ReadClassBench(f)
		if err != nil {
			return nil, err
		}
		fmt.Printf("loaded %d rules from %s\n", rs.Len(), rulesPath)
		return rs, nil
	default:
		return nil, fmt.Errorf("-rules or -gen is required")
	}
}

// buildOptions maps the -remainder/-error flags onto functional options,
// using the paper's pairing of minimum coverage per remainder (§5.3.2).
func buildOptions(remainder string, maxErr int) ([]nuevomatch.Option, error) {
	var opts []nuevomatch.Option
	switch remainder {
	case "tm", "tuplemerge":
		opts = append(opts, nuevomatch.WithRemainder(nuevomatch.TupleMerge),
			nuevomatch.WithMaxISets(4), nuevomatch.WithMinCoverage(0.05))
	case "rvh":
		opts = append(opts, nuevomatch.WithRemainder("rvh"),
			nuevomatch.WithMaxISets(4), nuevomatch.WithMinCoverage(0.05))
	case "cs":
		opts = append(opts, nuevomatch.WithRemainder(nuevomatch.CutSplit),
			nuevomatch.WithMaxISets(2), nuevomatch.WithMinCoverage(0.25))
	case "nc":
		opts = append(opts, nuevomatch.WithRemainder(nuevomatch.NeuroCuts),
			nuevomatch.WithMaxISets(2), nuevomatch.WithMinCoverage(0.25))
	default:
		return nil, fmt.Errorf("unknown remainder %q (want tuplemerge/tm, rvh, cs, or nc)", remainder)
	}
	opts = append(opts, nuevomatch.WithRQRMI(nuevomatch.RQRMIConfig{TargetError: maxErr}))
	return opts, nil
}

func printTableStats(t *nuevomatch.Table) {
	st := t.Stats()
	fmt.Printf("table: %d iSets (fields %v, sizes %v), coverage %.1f%%, remainder %d rules, max search distance %d\n",
		t.NumISets(), st.ISetFields, st.ISetSizes, st.Coverage*100, st.RemainderSize, st.MaxSearchDistance)
	fmt.Printf("memory: iSet models %d B, remainder index %d B (total %d B)\n",
		t.RQRMIBytes(), t.RemainderBytes(), t.MemoryFootprint())
}

// cmdBuild trains a table and persists it: the offline, expensive half of
// the lifecycle.
func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	var (
		rulesPath = fs.String("rules", "", "ClassBench-format rule file (or use -gen)")
		gen       = fs.String("gen", "", "generate rules from a ClassBench profile (acl1..acl5, fw1..fw5, ipc1, ipc2)")
		size      = fs.Int("size", 10000, "rule count for -gen")
		remainder = fs.String("remainder", "tm", "remainder classifier: tuplemerge(tm) | rvh | cs | nc")
		maxErr    = fs.Int("error", 64, "RQ-RMI maximum error threshold")
		shards    = fs.Int("shards", 1, "shard count; >1 builds a sharded cluster and -o names a directory")
		out       = fs.String("o", "table.nm", "output table artifact (or cluster directory with -shards)")
	)
	fs.Parse(args)

	rs, err := ruleSource(*rulesPath, *gen, *size)
	if err != nil {
		fatal(err)
	}
	opts, err := buildOptions(*remainder, *maxErr)
	if err != nil {
		fatal(err)
	}
	if *shards > 1 {
		start := time.Now()
		cluster, err := nuevomatch.OpenCluster(rs,
			nuevomatch.WithShards(*shards), nuevomatch.WithShardOptions(opts...))
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
		buildTime := time.Since(start)
		fmt.Printf("build: %v total across %d parallel shard trainings\n",
			buildTime.Round(time.Millisecond), cluster.NumShards())
		printClusterStats(cluster)
		start = time.Now()
		if err := cluster.SaveDir(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("saved cluster %s (%d shard files + manifest) in %v (`nmctl serve -load %s` skips the %v of training)\n",
			*out, cluster.NumShards(), time.Since(start).Round(time.Millisecond), *out, buildTime.Round(time.Millisecond))
		return
	}
	start := time.Now()
	table, err := nuevomatch.Open(rs, opts...)
	if err != nil {
		fatal(err)
	}
	defer table.Close()
	buildTime := time.Since(start)
	fmt.Printf("build: %v total (%v training)\n",
		buildTime.Round(time.Millisecond), table.Stats().TrainingTime.Round(time.Millisecond))
	printTableStats(table)

	start = time.Now()
	if err := table.SaveFile(*out); err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("saved %s: %d B in %v (a later `nmctl serve -load %s` skips the %v of training)\n",
		*out, info.Size(), time.Since(start).Round(time.Millisecond), *out, buildTime.Round(time.Millisecond))
}

// printClusterStats summarizes a cluster's shape: shard widths, routing,
// replication overhead, and memory.
func printClusterStats(c *nuevomatch.Cluster) {
	st := c.Stats()
	fmt.Printf("cluster: %d shards (%s partition on field %d), rules per shard %v\n",
		st.Shards, st.Kind, st.PartitionField, st.ShardRules)
	fmt.Printf("rules: %d live, %d replicated to multiple shards; memory %d B total\n",
		st.LiveRules, st.Replicated, c.MemoryFootprint())
}

// cmdServe loads a persisted table — the warm start — and serves it:
// one-shot classification (-trace / -bench) or the autopilot churn workload
// (-churn).
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		load      = fs.String("load", "", "table artifact from `nmctl build` (required)")
		tracePath = fs.String("trace", "", "trace file from tracegen (optional)")
		bench     = fs.Bool("bench", false, "measure throughput on a generated uniform trace")
		churn     = fs.Int("churn", 0, "churn serve mode: run this many interleaved insert/delete/lookup ops under the autopilot")
		maxUpd    = fs.Int("retrain-updates", 0, "autopilot: retrain after this many updates (0 = policy default)")
		maxFrac   = fs.Float64("retrain-remfrac", 0, "autopilot: retrain when the remainder fraction exceeds this (0 = policy default)")
		persist   = fs.String("persist", "", "re-save the table here after every autopilot retrain")
		verify    = fs.Bool("verify", false, "churn mode: verify every lookup against a linear reference")
		seed      = fs.Int64("seed", 1, "random seed")
	)
	fs.Parse(args)
	if *load == "" {
		fatal(fmt.Errorf("serve requires -load table.nm (or a cluster directory)"))
	}

	// A directory (or a path to its cluster.json) is a sharded cluster.
	if dir, ok := clusterDir(*load); ok {
		serveCluster(dir, *tracePath, *bench, *churn, *maxUpd, *maxFrac, *persist, *verify, *seed)
		return
	}

	var opts []nuevomatch.Option
	if *churn > 0 {
		policy := nuevomatch.AutopilotPolicy{
			MaxUpdates:           *maxUpd,
			MaxRemainderFraction: *maxFrac,
		}
		opts = append(opts, nuevomatch.WithAutopilot(policy))
		if *persist != "" {
			opts = append(opts, nuevomatch.WithAutopilotPersist(*persist))
		}
	}
	start := time.Now()
	table, err := nuevomatch.LoadFile(*load, opts...)
	if err != nil {
		fatal(err)
	}
	defer table.Close()
	st := table.Stats()
	fmt.Printf("loaded %s in %v (original training: %v — skipped)\n",
		*load, time.Since(start).Round(time.Millisecond), st.TrainingTime.Round(time.Millisecond))
	printTableStats(table)

	rs := table.Engine().LiveRuleSet()
	if *churn > 0 {
		ctx, stop := serve.ShutdownContext()
		defer stop()
		runChurn(ctx, table, rs, *churn, *seed, *verify, *persist)
		return
	}

	var pkts []rules.Packet
	switch {
	case *tracePath != "":
		pkts, err = readTrace(*tracePath, rs.NumFields)
		if err != nil {
			fatal(err)
		}
	case *bench:
		rng := rand.New(rand.NewSource(*seed))
		pkts = trace.Uniform(rng, rs, 100000).Packets
	default:
		return
	}
	classify(table, pkts)
}

// clusterDir reports whether path names a saved cluster: the directory
// itself, its manifest file, its CURRENT generation pointer, or a
// generation directory inside it (gen-NNNNNNNN — the parent is the
// cluster).
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

// cmdFsck verifies a saved cluster directory (every generation's manifest,
// shard checksums, rules artifact, and replication invariant) and with
// -repair restores it to a loadable last-good state.
func cmdFsck(args []string) {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "repair: point CURRENT at the newest intact generation and sweep torn or broken ones")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("usage: nmctl fsck [-repair] cluster.d"))
	}
	dir, ok := clusterDir(fs.Arg(0))
	if !ok {
		fatal(fmt.Errorf("%s is not a cluster directory", fs.Arg(0)))
	}
	rep, err := nuevomatch.FsckCluster(dir, *repair)
	if rep != nil {
		for _, g := range rep.Generations {
			verdict := "intact"
			if !g.Intact {
				verdict = "BROKEN"
			}
			fmt.Printf("generation %s: %s (%d shards)\n", g.Name, verdict, g.Shards)
			for _, p := range g.Problems {
				fmt.Printf("  problem: %s\n", p)
			}
		}
		if rep.RepairedCurrent {
			fmt.Printf("repaired CURRENT: %s -> %s\n", rep.CurrentBefore, rep.CurrentAfter)
		}
		for _, name := range rep.Removed {
			fmt.Printf("removed: %s\n", name)
		}
	}
	if err != nil {
		fatal(err)
	}
	if rep.Healthy() {
		fmt.Printf("%s: healthy (serving %s)\n", dir, rep.CurrentAfter)
		return
	}
	if *repair {
		fmt.Printf("%s: repaired (serving %s)\n", dir, rep.CurrentAfter)
		return
	}
	fmt.Printf("%s: needs repair (run nmctl fsck -repair)\n", dir)
	os.Exit(1)
}

// serveCluster is cmdServe for a sharded cluster: warm-load the whole
// directory, then classify (-trace/-bench) or churn with one autopilot per
// shard (-churn).
func serveCluster(dir, tracePath string, bench bool, churn, maxUpd int, maxFrac float64, persist string, verify bool, seed int64) {
	var opts []nuevomatch.ClusterOption
	if churn > 0 {
		opts = append(opts, nuevomatch.WithClusterAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:           maxUpd,
			MaxRemainderFraction: maxFrac,
		}))
		if persist != "" {
			if pdir, ok := clusterDir(persist); ok {
				persist = pdir
			}
			opts = append(opts, nuevomatch.WithClusterAutopilotPersist(persist))
		}
	}
	start := time.Now()
	cluster, err := nuevomatch.LoadCluster(dir, opts...)
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	fmt.Printf("loaded cluster %s in %v (training skipped on all %d shards)\n",
		dir, time.Since(start).Round(time.Millisecond), cluster.NumShards())
	printClusterStats(cluster)
	if h := cluster.Health(); h.State != nuevomatch.Healthy {
		fmt.Printf("health: %s\n", h)
	}

	rs := cluster.LiveRuleSet()
	if churn > 0 {
		ctx, stop := serve.ShutdownContext()
		defer stop()
		runClusterChurn(ctx, cluster, rs, churn, seed, verify, persist)
		return
	}
	var pkts []rules.Packet
	switch {
	case tracePath != "":
		pkts, err = readTrace(tracePath, rs.NumFields)
		if err != nil {
			fatal(err)
		}
	case bench:
		rng := rand.New(rand.NewSource(seed))
		pkts = trace.Uniform(rng, rs, 100000).Packets
	default:
		return
	}
	matched := 0
	out := make([]int, 256)
	start = time.Now()
	for off := 0; off < len(pkts); off += 256 {
		n := len(pkts) - off
		if n > 256 {
			n = 256
		}
		cluster.LookupBatch(pkts[off:off+n], out[:n])
		for _, id := range out[:n] {
			if id >= 0 {
				matched++
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("classified %d packets in %v via the sharded batch path (%.0f pps, %.0f%% matched)\n",
		len(pkts), elapsed.Round(time.Millisecond),
		float64(len(pkts))/elapsed.Seconds(), 100*float64(matched)/float64(len(pkts)))
}

// churnTarget is the lookup/update surface the churn workload drives —
// satisfied by both *nuevomatch.Table and *nuevomatch.Cluster, so one loop
// serves both serve modes.
type churnTarget interface {
	Lookup(rules.Packet) int
	Insert(nuevomatch.Rule) error
	Delete(int) error
}

// churnCounts summarizes one churn run.
type churnCounts struct {
	done                                  int
	lookups, inserts, deletes, mismatches int
	interrupted                           bool
	elapsed                               time.Duration
}

// churnLoop drives ops interleaved operations (~60% lookups, ~20% inserts
// of mutated live rules under fresh IDs, ~20% deletes) against tgt while
// maintaining an exact linear-reference mirror. With verify, every lookup
// is checked against the mirror (compared by winning priority — file-loaded
// rule-sets may carry duplicate priorities). report runs about once a
// second with the ops completed so far and the instantaneous rate. A
// cancelled ctx (SIGINT/SIGTERM via serve.ShutdownContext) stops the loop
// at the next op boundary so the caller can persist and close cleanly.
func churnLoop(ctx context.Context, tgt churnTarget, mirror *rules.RuleSet, ops int, seed int64, verify bool, report func(done int, rate float64)) churnCounts {
	rng := rand.New(rand.NewSource(seed))
	prioOf := make(map[int]int32, mirror.Len())
	for i := range mirror.Rules {
		prioOf[mirror.Rules[i].ID] = mirror.Rules[i].Priority
	}
	nextID := 1 << 24
	var n churnCounts
	start := time.Now()
	lastReport := start
	lastOps := 0
	for op := 0; op < ops; op++ {
		select {
		case <-ctx.Done():
			n.interrupted = true
			n.done = op
			n.elapsed = time.Since(start)
			return n
		default:
		}
		n.done = op + 1
		switch x := rng.Float64(); {
		case x < 0.60:
			n.lookups++
			p := make(rules.Packet, mirror.NumFields)
			if mirror.Len() > 0 && rng.Intn(4) != 0 {
				classbench.FillMatchingPacket(rng, &mirror.Rules[rng.Intn(mirror.Len())], p)
			} else {
				for d := range p {
					p[d] = rng.Uint32()
				}
			}
			got := tgt.Lookup(p)
			if verify {
				want := mirror.MatchID(p)
				if got != want && ((got < 0) != (want < 0) || prioOf[got] != prioOf[want]) {
					n.mismatches++
				}
			}
		case x < 0.80 && mirror.Len() > 0:
			// Insert a mutation of a random live rule under a fresh ID.
			src := mirror.Rules[rng.Intn(mirror.Len())]
			r := src
			r.ID = nextID
			nextID++
			r.Priority = int32(rng.Intn(1 << 20))
			r.Fields = append([]rules.Range(nil), src.Fields...)
			if mirror.NumFields == rules.NumFiveTupleFields {
				r.Fields[rules.FieldDstPort] = rules.ExactRange(uint32(rng.Intn(65536)))
			}
			if err := tgt.Insert(r); err != nil {
				fatal(err)
			}
			mirror.Add(r)
			prioOf[r.ID] = r.Priority
			n.inserts++
		default:
			if mirror.Len() <= 16 {
				continue
			}
			i := rng.Intn(mirror.Len())
			id := mirror.Rules[i].ID
			if err := tgt.Delete(id); err != nil {
				fatal(err)
			}
			delete(prioOf, id)
			mirror.Rules[i] = mirror.Rules[mirror.Len()-1]
			mirror.Rules = mirror.Rules[:mirror.Len()-1]
			n.deletes++
		}
		if now := time.Now(); now.Sub(lastReport) >= time.Second {
			report(op+1, float64(op+1-lastOps)/now.Sub(lastReport).Seconds())
			lastReport, lastOps = now, op+1
		}
	}
	n.elapsed = time.Since(start)
	return n
}

// finishChurn prints the shared tail of a churn run and exits non-zero on
// verification mismatches.
func finishChurn(n churnCounts, verify bool) {
	verb := "done"
	if n.interrupted {
		verb = "interrupted (drained cleanly)"
	}
	fmt.Printf("churn %s: %d ops in %v (%.0f ops/s): %d lookups, %d inserts, %d deletes\n",
		verb, n.done, n.elapsed.Round(time.Millisecond), float64(n.done)/n.elapsed.Seconds(),
		n.lookups, n.inserts, n.deletes)
	if verify {
		fmt.Printf("verification: %d mismatches over %d lookups\n", n.mismatches, n.lookups)
		if n.mismatches > 0 {
			os.Exit(1)
		}
	}
}

// runClusterChurn is churn serve mode for a cluster: the shared workload
// loop with one autopilot per shard retraining in the background. On
// SIGINT/SIGTERM the loop drains at an op boundary, the final state is
// saved to persistDir (when set), and the deferred Close runs — autopilots
// and rebuild loops exit instead of dying mid-flight.
func runClusterChurn(ctx context.Context, c *nuevomatch.Cluster, rs *rules.RuleSet, ops int, seed int64, verify bool, persistDir string) {
	if c.ShardAutopilot(0) == nil {
		fatal(fmt.Errorf("cluster churn mode requires autopilot options"))
	}
	fmt.Printf("churn: %d ops across %d shards, policy %+v\n", ops, c.NumShards(), c.ShardAutopilot(0).Policy())
	n := churnLoop(ctx, c, rs.Clone(), ops, seed, verify, func(done int, rate float64) {
		st := c.AutopilotStats()
		cst := c.Stats()
		fmt.Printf("  %7d ops (%6.0f ops/s)  live %6d  shards %v  retrains %d  last swap %v  trigger %q\n",
			done, rate, cst.LiveRules, cst.ShardRules, st.Retrains,
			st.LastSwap.Round(time.Microsecond), st.LastTrigger)
	})
	if !n.interrupted && c.AutopilotStats().Retrains == 0 {
		for s := 0; s < c.NumShards(); s++ {
			if _, err := c.ShardAutopilot(s).Check(); err != nil {
				fatal(err)
			}
		}
	}
	if persistDir != "" {
		if err := c.SaveDir(persistDir); err != nil {
			fmt.Fprintf(os.Stderr, "nmctl: final persist: %v\n", err)
		} else {
			fmt.Printf("final persist: %s\n", persistDir)
		}
	}
	st := c.AutopilotStats()
	cst := c.Stats()
	fmt.Printf("autopilots: %d retrains (%d failures) across %d shards, %d journaled updates replayed, max swap %v, total train %v\n",
		st.Retrains, st.Failures, c.NumShards(), st.Replayed, st.MaxSwap.Round(time.Microsecond), st.TotalTrain.Round(time.Millisecond))
	if st.PersistFailures > 0 {
		fmt.Printf("autopilots: %d persist failures (last: %s)\n", st.PersistFailures, st.LastPersistError)
	}
	fmt.Printf("final: live %d rules, per shard %v, %d replicated\n", cst.LiveRules, cst.ShardRules, cst.Replicated)
	fmt.Printf("health: %s\n", c.Health())
	finishChurn(n, verify)
}

// cmdLegacy is the original combined mode: build in-process, then classify
// or churn, without persistence.
func cmdLegacy(args []string) {
	fs := flag.NewFlagSet("nmctl", flag.ExitOnError)
	var (
		rulesPath = fs.String("rules", "", "ClassBench-format rule file (or use -gen)")
		gen       = fs.String("gen", "", "generate rules from a ClassBench profile (acl1..acl5, fw1..fw5, ipc1, ipc2) instead of -rules")
		size      = fs.Int("size", 10000, "rule count for -gen")
		tracePath = fs.String("trace", "", "trace file from tracegen (optional)")
		remainder = fs.String("remainder", "tm", "remainder classifier: tuplemerge(tm) | rvh | cs | nc")
		maxErr    = fs.Int("error", 64, "RQ-RMI maximum error threshold")
		bench     = fs.Bool("bench", false, "measure throughput on a generated uniform trace")
		churn     = fs.Int("churn", 0, "churn serve mode: run this many interleaved insert/delete/lookup ops under the autopilot")
		maxUpd    = fs.Int("retrain-updates", 0, "autopilot: retrain after this many updates (0 = policy default)")
		maxFrac   = fs.Float64("retrain-remfrac", 0, "autopilot: retrain when the remainder fraction exceeds this (0 = policy default)")
		verify    = fs.Bool("verify", false, "churn mode: verify every lookup against a linear reference")
		seed      = fs.Int64("seed", 1, "random seed")
	)
	fs.Parse(args)

	rs, err := ruleSource(*rulesPath, *gen, *size)
	if err != nil {
		fatal(err)
	}
	opts, err := buildOptions(*remainder, *maxErr)
	if err != nil {
		fatal(err)
	}
	if *churn > 0 {
		opts = append(opts, nuevomatch.WithAutopilot(nuevomatch.AutopilotPolicy{
			MaxUpdates:           *maxUpd,
			MaxRemainderFraction: *maxFrac,
		}))
	}
	start := time.Now()
	table, err := nuevomatch.Open(rs, opts...)
	if err != nil {
		fatal(err)
	}
	defer table.Close()
	fmt.Printf("build: %v total (%v training)\n",
		time.Since(start).Round(time.Millisecond), table.Stats().TrainingTime.Round(time.Millisecond))
	printTableStats(table)

	if *churn > 0 {
		ctx, stop := serve.ShutdownContext()
		defer stop()
		runChurn(ctx, table, rs, *churn, *seed, *verify, "")
		return
	}

	var pkts []rules.Packet
	switch {
	case *tracePath != "":
		pkts, err = readTrace(*tracePath, rs.NumFields)
		if err != nil {
			fatal(err)
		}
	case *bench:
		rng := rand.New(rand.NewSource(*seed))
		pkts = trace.Uniform(rng, rs, 100000).Packets
	default:
		return
	}
	classify(table, pkts)
}

func classify(t *nuevomatch.Table, pkts []rules.Packet) {
	matched := 0
	start := time.Now()
	for _, p := range pkts {
		if t.Lookup(p) >= 0 {
			matched++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("classified %d packets in %v (%.0f pps, %.0f%% matched)\n",
		len(pkts), elapsed.Round(time.Millisecond),
		float64(len(pkts))/elapsed.Seconds(), 100*float64(matched)/float64(len(pkts)))
}

// runChurn is the serve-style churn mode: the shared workload loop with
// the table's autopilot retraining in the background. On SIGINT/SIGTERM
// the loop drains at an op boundary, the final state is saved to
// persistPath (when set), and the deferred Close runs.
func runChurn(ctx context.Context, t *nuevomatch.Table, rs *rules.RuleSet, ops int, seed int64, verify bool, persistPath string) {
	ap := t.Autopilot()
	if ap == nil {
		fatal(fmt.Errorf("churn mode requires an autopilot-configured table"))
	}
	fmt.Printf("churn: %d ops, policy %+v\n", ops, ap.Policy())
	n := churnLoop(ctx, t, rs.Clone(), ops, seed, verify, func(done int, rate float64) {
		st := ap.Stats()
		us := t.Updates()
		fmt.Printf("  %7d ops (%6.0f ops/s)  live %6d  remfrac %.2f  retrains %d  last swap %v  trigger %q\n",
			done, rate, us.LiveRules, us.RemainderFraction, st.Retrains,
			st.LastSwap.Round(time.Microsecond), st.LastTrigger)
	})
	if !n.interrupted && ap.Stats().Retrains == 0 {
		if _, err := ap.Check(); err != nil {
			fatal(err)
		}
	}
	if persistPath != "" {
		if err := t.SaveFile(persistPath); err != nil {
			fmt.Fprintf(os.Stderr, "nmctl: final persist: %v\n", err)
		} else {
			fmt.Printf("final persist: %s\n", persistPath)
		}
	}
	st := ap.Stats()
	us := t.Updates()
	fmt.Printf("autopilot: %d retrains (%d failures), %d journaled updates replayed, max swap %v, total train %v\n",
		st.Retrains, st.Failures, st.Replayed, st.MaxSwap.Round(time.Microsecond), st.TotalTrain.Round(time.Millisecond))
	if st.PersistFailures > 0 {
		fmt.Printf("autopilot: %d persist failures (last: %s)\n", st.PersistFailures, st.LastPersistError)
	}
	fmt.Printf("final: live %d rules, remainder fraction %.2f\n", us.LiveRules, us.RemainderFraction)
	fmt.Printf("health: %s\n", t.Health())
	finishChurn(n, verify)
}

func readTrace(path string, numFields int) ([]rules.Packet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pkts []rules.Packet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != numFields {
			return nil, fmt.Errorf("trace line has %d fields, rules have %d", len(fields), numFields)
		}
		p := make(rules.Packet, len(fields))
		for d, s := range fields {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad field %q: %v", s, err)
			}
			p[d] = uint32(v)
		}
		pkts = append(pkts, p)
	}
	return pkts, sc.Err()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nmctl: %v\n", err)
	os.Exit(1)
}
