package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rules"
)

// Crash-safe cluster persistence: saves are whole generations. SaveDir
// writes every artifact of one consistent cut (shard tables, the rules
// replica artifact, the manifest) into a temp directory, fsyncs it, and
// atomically renames it to gen-NNNNNNNN; only then does the CURRENT
// pointer file flip to the new generation (atomic rename + directory
// fsync). A crash at ANY step leaves CURRENT naming a complete, durable
// generation — the previous one until the very last flip — so a restart
// always loads a consistent cluster: the fail-static guarantee extended
// across crashes (answers may be stale by one generation, never wrong).
// The previous generation is retained for rollback; FsckClusterDir
// (fsck.go) verifies directories and cleans torn-save debris.
//
// Layout:
//
//	dir/CURRENT            ← "gen-00000007\n"
//	dir/gen-00000006/      ← last-good (kept for rollback)
//	dir/gen-00000007/      ← cluster.json, shard-NN.nm, rules.nmr
//
// Directories saved by older versions (cluster.json directly in dir) still
// load; SaveDir always writes the generation layout.

// ClusterCurrentName is the pointer file naming the serving generation
// inside a saved cluster directory.
const ClusterCurrentName = "CURRENT"

// clusterRulesName is the rules artifact inside a generation: the
// cluster's authoritative replica table (every distinct live rule), CRC32-C
// trailed like the shard tables. Quarantine rebuilds a corrupt shard from
// it.
const clusterRulesName = "rules.nmr"

const genDirPrefix = "gen-"

// genDirName formats generation n's directory name.
func genDirName(n uint64) string { return fmt.Sprintf("%s%08d", genDirPrefix, n) }

// parseGenName parses a generation directory name, strictly: "gen-" plus
// exactly eight digits, so a hostile CURRENT cannot point outside dir.
func parseGenName(name string) (uint64, bool) {
	if len(name) != len(genDirPrefix)+8 || !strings.HasPrefix(name, genDirPrefix) {
		return 0, false
	}
	var n uint64
	for _, c := range name[len(genDirPrefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// ClusterCurrentDir resolves the directory a cluster actually loads from:
// the generation CURRENT points to, or dir itself for the legacy flat
// layout (cluster.json directly inside dir). It errors when dir holds
// neither, when CURRENT is malformed, or when CURRENT dangles — states
// FsckClusterDir can repair.
func ClusterCurrentDir(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, ClusterCurrentName))
	switch {
	case err == nil:
		name := strings.TrimSpace(string(b))
		if _, ok := parseGenName(name); !ok {
			return "", fmt.Errorf("core: malformed CURRENT %q in %s", name, dir)
		}
		gdir := filepath.Join(dir, name)
		if st, serr := os.Stat(gdir); serr != nil || !st.IsDir() {
			return "", fmt.Errorf("core: CURRENT names missing generation %q in %s", name, dir)
		}
		return gdir, nil
	case os.IsNotExist(err):
		if _, serr := os.Stat(filepath.Join(dir, ClusterManifestName)); serr == nil {
			return dir, nil // legacy flat layout
		}
		return "", fmt.Errorf("core: %s holds neither a CURRENT pointer nor a %s manifest", dir, ClusterManifestName)
	default:
		return "", err
	}
}

// listGenerations returns the generation numbers present in dir (complete
// directories only, sorted ascending) and the names of torn-save debris:
// *.tmp staging directories left by a crashed SaveDir.
func listGenerations(dir string) (gens []uint64, debris []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() {
			continue
		}
		if n, ok := parseGenName(name); ok {
			gens = append(gens, n)
			continue
		}
		if trimmed, found := strings.CutSuffix(name, ".tmp"); found {
			if _, ok := parseGenName(trimmed); ok {
				debris = append(debris, name)
			}
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, debris, nil
}

// nextGenNumber picks the generation number a new save should use: one
// past everything present, including torn staging dirs, so a crashed save
// never collides with a complete one.
func nextGenNumber(dir string) (uint64, error) {
	gens, debris, err := listGenerations(dir)
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, n := range gens {
		if n > max {
			max = n
		}
	}
	for _, name := range debris {
		if n, ok := parseGenName(strings.TrimSuffix(name, ".tmp")); ok && n > max {
			max = n
		}
	}
	return max + 1, nil
}

// writeGenFile writes one artifact inside a staging generation directory:
// plain create (the whole directory is renamed atomically later), full
// write, fsync. faultName is the injection point guarding it; a triggered
// fault strikes mid-write, leaving a genuinely torn file behind exactly as
// a crash would — the kill-point sweep's raw material.
func writeGenFile(path string, data []byte, faultName faultinject.Point) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Hit(faultName); err != nil {
		f.Close() // no cleanup: mimic a crash, leave the torn file on disk
		return err
	}
	if _, err := f.Write(data[half:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serializeLocked captures one consistent cut of the whole cluster under
// the update lock: the manifest, every shard's table blob, and the rules
// artifact blob.
func (c *Cluster) serializeLocked() (clusterManifest, [][]byte, []byte, error) {
	m := clusterManifest{
		Format:  clusterManifestFormat,
		Version: clusterManifestVersion,
		Kind:    c.part.kind.String(),
		Field:   c.part.field,
		Cuts:    c.part.cuts,
		Shards:  make([]string, len(c.engines)),
		Rules:   clusterRulesName,
	}
	blobs := make([][]byte, len(c.engines))
	for s, e := range c.engines {
		m.Shards[s] = shardFileName(s)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			return m, nil, nil, fmt.Errorf("core: serializing shard %d: %w", s, err)
		}
		blobs[s] = buf.Bytes()
	}
	rulesBlob, err := encodeClusterRules(c.NumFields(), c.ruleByID)
	if err != nil {
		return m, nil, nil, err
	}
	return m, blobs, rulesBlob, nil
}

// SaveDir persists the whole cluster into dir as a new generation: every
// artifact is staged in a temp directory (each file fully written and
// fsynced), the staging directory is fsynced and atomically renamed to
// gen-N, the rename is made durable (parent directory fsync), and only
// then does the CURRENT pointer flip — atomically, fsynced. A crash at any
// step leaves CURRENT naming the previous complete generation; no cleanup
// runs on the failure path (debris mimics crash state and is swept by the
// next save or by FsckClusterDir). The artifacts are one consistent cut:
// every shard plus the rules replica table serialize to memory under the
// update lock, but disk I/O happens outside it, so a save (the autopilot
// persist hook especially) does not stall updates. Lookups are unaffected
// throughout. The previous generation is retained for rollback; older ones
// are pruned best-effort.
func (c *Cluster) SaveDir(dir string) error {
	// Concurrent saves (two shards' persist hooks firing close together)
	// must not interleave: generations are whole consistent cuts.
	c.saveMu.Lock()
	defer c.saveMu.Unlock()

	c.mu.Lock()
	m, blobs, rulesBlob, err := c.serializeLocked()
	c.mu.Unlock()
	if err != nil {
		return err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen, err := nextGenNumber(dir)
	if err != nil {
		return err
	}
	genName := genDirName(gen)
	stage := filepath.Join(dir, genName+".tmp")
	if err := os.RemoveAll(stage); err != nil {
		return err
	}
	if err := os.Mkdir(stage, 0o755); err != nil {
		return err
	}
	for s, blob := range blobs {
		if err := writeGenFile(filepath.Join(stage, m.Shards[s]), blob, faultinject.PointClusterSaveShard); err != nil {
			return fmt.Errorf("core: saving shard %d: %w", s, err)
		}
	}
	if err := writeGenFile(filepath.Join(stage, m.Rules), rulesBlob, faultinject.PointClusterSaveRules); err != nil {
		return fmt.Errorf("core: saving cluster rules: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := writeGenFile(filepath.Join(stage, ClusterManifestName), data, faultinject.PointClusterSaveManifest); err != nil {
		return fmt.Errorf("core: saving cluster manifest: %w", err)
	}
	// The staged files' contents must be durable before the directory
	// rename that makes them reachable, and the rename itself must be
	// durable (parent fsync) before CURRENT can reference it.
	if err := faultinject.Hit(faultinject.PointClusterSaveSync); err != nil {
		return err
	}
	if err := SyncDir(stage); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointClusterSaveRename); err != nil {
		return err
	}
	if err := os.Rename(stage, filepath.Join(dir, genName)); err != nil {
		return err
	}
	if err := SyncDir(dir); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointClusterSaveCurrent); err != nil {
		return err
	}
	err = WriteFileAtomic(filepath.Join(dir, ClusterCurrentName), func(f *os.File) error {
		_, werr := f.WriteString(genName + "\n")
		return werr
	})
	if err != nil {
		return fmt.Errorf("core: updating %s: %w", ClusterCurrentName, err)
	}
	c.pruneGenerations(dir, gen)
	return nil
}

// pruneGenerations removes torn staging directories and every generation
// older than the one before cur — the serving generation and its
// predecessor (the rollback target) are always kept. Best-effort: pruning
// failures never fail a completed save.
func (c *Cluster) pruneGenerations(dir string, cur uint64) {
	gens, debris, err := listGenerations(dir)
	if err != nil {
		return
	}
	var keepPrev uint64
	for _, n := range gens {
		if n < cur && n > keepPrev {
			keepPrev = n
		}
	}
	for _, n := range gens {
		if n != cur && n != keepPrev {
			os.RemoveAll(filepath.Join(dir, genDirName(n)))
		}
	}
	for _, name := range debris {
		if strings.TrimSuffix(name, ".tmp") != genDirName(cur) {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

// --- rules artifact codec ---------------------------------------------------

// rulesMagic opens the cluster rules artifact.
var rulesMagic = [4]byte{'N', 'M', 'R', 'S'}

const rulesFormatVersion = 1

// encodeClusterRules serializes the replica table: magic, version, field
// count, the rules (putRules framing, shared with the engine codec), and
// the standard CRC32-C trailer.
func encodeClusterRules(numFields int, byID map[int]rules.Rule) ([]byte, error) {
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ordered := make([]rules.Rule, 0, len(ids))
	for _, id := range ids {
		ordered = append(ordered, byID[id])
	}

	var buf bytes.Buffer
	cw := &countWriter{w: &buf}
	put := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }
	if err := put(rulesMagic); err != nil {
		return nil, err
	}
	if err := put(uint32(rulesFormatVersion)); err != nil {
		return nil, err
	}
	if err := put(uint16(numFields)); err != nil {
		return nil, err
	}
	if err := putRules(put, ordered); err != nil {
		return nil, err
	}
	var trailer [tableTrailerLen]byte
	copy(trailer[:4], tableTrailerMagic[:])
	binary.LittleEndian.PutUint32(trailer[4:], cw.crc)
	if err := put(trailer); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readClusterRules decodes and strictly validates a rules artifact. The
// CRC trailer is mandatory — a torn artifact must read as absent, never as
// a truncated rule list.
func readClusterRules(data []byte) (int, []rules.Rule, error) {
	n := len(data)
	if n < tableTrailerLen || [4]byte(data[n-tableTrailerLen:n-4]) != tableTrailerMagic {
		return 0, nil, fmt.Errorf("core: rules artifact missing integrity trailer")
	}
	want := binary.LittleEndian.Uint32(data[n-4:])
	payload := data[:n-tableTrailerLen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return 0, nil, fmt.Errorf("core: rules artifact checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	br := bufio.NewReader(bytes.NewReader(payload))
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic [4]byte
	if err := get(&magic); err != nil {
		return 0, nil, err
	}
	if magic != rulesMagic {
		return 0, nil, fmt.Errorf("core: bad rules artifact magic %q", magic[:])
	}
	var version uint32
	if err := get(&version); err != nil {
		return 0, nil, err
	}
	if version != rulesFormatVersion {
		return 0, nil, fmt.Errorf("core: unsupported rules artifact version %d", version)
	}
	var numFields uint16
	if err := get(&numFields); err != nil {
		return 0, nil, err
	}
	if numFields == 0 || numFields > maxCodecFields {
		return 0, nil, fmt.Errorf("core: implausible rules artifact field count %d", numFields)
	}
	rs, err := getRules(br, int(numFields))
	if err != nil {
		return 0, nil, err
	}
	if _, err := br.ReadByte(); err == nil {
		return 0, nil, fmt.Errorf("core: trailing garbage in rules artifact")
	}
	seen := make(map[int]bool, len(rs))
	for i := range rs {
		if seen[rs[i].ID] {
			return 0, nil, fmt.Errorf("core: duplicate rule ID %d in rules artifact", rs[i].ID)
		}
		seen[rs[i].ID] = true
	}
	return int(numFields), rs, nil
}

// --- loading ----------------------------------------------------------------

// LoadClusterDir reconstructs a cluster saved by SaveDir. The CURRENT
// pointer selects the serving generation (legacy flat directories load
// in place); the manifest restores the routing function, each shard loads
// through ReadEngine (no retraining, checksums verified), and the
// replica-mask table is rebuilt from the shards' live rules — re-verifying
// on the way that every rule actually lives in exactly the shards the
// partitioner routes it to, so a mismatched manifest/shard combination is
// rejected instead of silently misrouting packets.
//
// Self-healing: when a shard's artifact is corrupt or unreadable AND the
// generation carries the rules artifact, the shard is not fatal — it comes
// up quarantined on a remainder-only fallback engine built from its slice
// of the replica table (fully correct answers, just slower), and a
// background rebuilder retrains it to full strength and RCU-swaps the
// trained state in. Health() reports Degraded until then. Without the
// rules artifact (legacy saves) any shard error fails the load, as before.
//
// remainder overrides the shards' recorded remainder builder as in
// ReadEngine; nil uses the registry.
//
// A load can race a concurrent SaveDir in the serving process (the
// autopilot persist hook especially): by the time the loader opens the
// generation CURRENT named, a newer save may have pruned it. Files
// vanishing mid-load then used to surface as quarantined-fallback shards —
// a freshly loaded cluster reporting Degraded health (and serving slow
// remainder-only fallbacks with a background rebuild) for what is really a
// retryable race, not corruption. LoadClusterDir now detects the window —
// an artifact missing from disk while CURRENT has moved to a different
// generation — and retries against the new generation, so readiness
// derived from Health() never lies about a cleanly saved cluster.
func LoadClusterDir(dir string, remainder rules.Builder) (*Cluster, error) {
	const maxStaleRetries = 3
	for attempt := 0; ; attempt++ {
		c, err := loadClusterGen(dir, remainder)
		if err == nil || !errors.Is(err, errStaleGeneration) || attempt >= maxStaleRetries {
			return c, err
		}
	}
}

// errStaleGeneration reports that the generation being loaded disappeared
// mid-load because a concurrent SaveDir pruned it; CURRENT names a newer
// generation and the load should be retried against it.
var errStaleGeneration = errors.New("core: generation pruned during load")

// loadClusterGen is one load attempt against whatever generation CURRENT
// names right now. Artifacts missing from disk are classified: if CURRENT
// still names the generation they belong to, the absence is real damage
// (quarantine or failure, as documented on LoadClusterDir); if CURRENT has
// moved on, the attempt fails with errStaleGeneration so the caller
// retries.
func loadClusterGen(dir string, remainder rules.Builder) (*Cluster, error) {
	gdir, err := ClusterCurrentDir(dir)
	if err != nil {
		return nil, err
	}
	// superseded reports whether a missing-file error is the pruning race:
	// the artifact's generation is gone AND the CURRENT pointer already
	// names a different one.
	superseded := func(err error) bool {
		if !errors.Is(err, fs.ErrNotExist) {
			return false
		}
		cur, cerr := ClusterCurrentDir(dir)
		return cerr == nil && cur != gdir
	}
	g, err := readClusterGen(gdir, remainder, superseded)
	if err != nil {
		return nil, err
	}
	c := g.c
	// The rules artifact is quarantine-grade only: without a readable one
	// (legacy saves, or a torn artifact) any shard failure fails the load.
	if len(g.failures) > 0 && g.artRules == nil {
		f := g.failures[0]
		return nil, fmt.Errorf("core: loading shard %d (%s): %w", f.shard, f.name, f.err)
	}
	if len(g.failures) == len(c.engines) {
		return nil, fmt.Errorf("core: no loadable shard in %s: shard 0: %w", gdir, g.failures[0].err)
	}

	// Stand quarantined shards up on remainder-only fallbacks built from
	// the replica table: complete rule coverage, so answers are correct
	// from the first packet, only without trained models. Field-count or
	// routing inconsistencies between artifact and shards surface in
	// rebuildReplicaTable below.
	var fullOpts Options
	for _, e := range c.engines {
		if e != nil {
			fullOpts = e.opts
			break
		}
	}
	for _, f := range g.failures {
		fb, berr := buildFallbackShard(&c.part, f.shard, g.artFields, g.artRules, fullOpts)
		if berr != nil {
			return nil, fmt.Errorf("core: rebuilding shard %d from rules artifact: %w (original load error: %v)", f.shard, berr, f.err)
		}
		c.engines[f.shard] = fb
	}
	if err := c.rebuildReplicaTable(); err != nil {
		return nil, err
	}
	c.finish()
	for _, f := range g.failures {
		s := f.shard
		opts := fullOpts
		c.quarantineShard(s,
			fmt.Sprintf("load failed, serving remainder-only fallback: %v", f.err),
			func() error {
				_, rerr := c.engines[s].RetrainWith(opts)
				return rerr
			})
	}
	return c, nil
}

// clusterGen is one generation as readClusterGen read it from disk.
type clusterGen struct {
	// c has the manifest's routing restored; c.engines[s] is nil for every
	// shard in failures. Its replica table is not built yet.
	c        *Cluster
	failures []shardFailure
	// artFields and artRules are the decoded rules artifact; artRules is
	// nil when the manifest names none or it is unreadable, and artErr
	// then says why (nil when the manifest names none).
	artFields int
	artRules  []rules.Rule
	artErr    error
}

// shardFailure is one shard table that did not load.
type shardFailure struct {
	shard int
	name  string
	err   error
}

// readClusterGen is the one generation loader, shared by LoadClusterDir and
// FsckClusterDir: it reads the generation's manifest, its rules artifact
// and each shard table exactly once. Only an unreadable manifest fails it;
// shard and artifact failures are returned for the caller to judge.
// superseded, when non-nil, classifies a missing-file error as the pruning
// race, which fails the read with errStaleGeneration.
func readClusterGen(gdir string, remainder rules.Builder, superseded func(error) bool) (*clusterGen, error) {
	stale := func(err error) bool { return superseded != nil && superseded(err) }
	data, err := os.ReadFile(filepath.Join(gdir, ClusterManifestName))
	if err != nil {
		if stale(err) {
			return nil, fmt.Errorf("%w (manifest %s)", errStaleGeneration, gdir)
		}
		return nil, err
	}
	m, err := readClusterManifest(data)
	if err != nil {
		return nil, err
	}

	g := &clusterGen{}
	if m.Rules != "" {
		blob, rerr := os.ReadFile(filepath.Join(gdir, m.Rules))
		if rerr != nil && stale(rerr) {
			return nil, fmt.Errorf("%w (rules artifact %s)", errStaleGeneration, gdir)
		}
		if rerr == nil {
			g.artFields, g.artRules, rerr = readClusterRules(blob)
		}
		g.artErr = rerr
	}

	kind, _ := partitionKindByName(m.Kind)
	g.c = &Cluster{
		part: partitioner{
			kind:   kind,
			field:  m.Field,
			shards: len(m.Shards),
			cuts:   m.Cuts,
		},
		engines:  make([]*Engine, len(m.Shards)),
		shardsOf: make(map[int]uint64),
		ruleByID: make(map[int]rules.Rule),
	}
	for s, name := range m.Shards {
		eng, lerr := readShardFile(filepath.Join(gdir, name), remainder)
		if lerr != nil {
			if stale(lerr) {
				return nil, fmt.Errorf("%w (shard %d of %s)", errStaleGeneration, s, gdir)
			}
			g.failures = append(g.failures, shardFailure{shard: s, name: name, err: lerr})
			continue
		}
		g.c.engines[s] = eng
	}
	return g, nil
}

// readShardFile loads one shard table, with a fault point ahead of the
// open so chaos schedules can fail shard loads without touching the disk.
func readShardFile(path string, remainder rules.Builder) (*Engine, error) {
	if err := faultinject.Hit(faultinject.PointClusterLoadShard); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEngine(f, remainder)
}

// buildFallbackShard builds shard s's remainder-only stand-in from the
// replica table: the rules whose partition range routes to s, built with
// MaxISets disabled — no training, fast to stand up, fully correct.
func buildFallbackShard(pt *partitioner, s, numFields int, all []rules.Rule, opts Options) (*Engine, error) {
	if pt.field >= numFields {
		return nil, fmt.Errorf("core: partition field %d out of range (%d fields in rules artifact)", pt.field, numFields)
	}
	rs := rules.NewRuleSet(numFields)
	for i := range all {
		if pt.shardMaskOfRange(all[i].Fields[pt.field])&(1<<s) != 0 {
			rs.Add(cloneRule(all[i]))
		}
	}
	opts.MaxISets = -1 // remainder-only: correctness without training time
	return Build(rs, opts)
}
