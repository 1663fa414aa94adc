package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"nuevomatch/internal/classifiers/rvh"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/faultinject"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// Binary engine serialization. Training is the expensive half of NuevoMatch
// — the submodels are fitted directly, about 1.2 s for acl1 at the paper's
// 500K rules on a 2-CPU box (the paper's gradient training took minutes,
// §3.9) — so a production deployment builds a table offline, ships the
// artifact, and loads it at startup in milliseconds. The codec captures the
// engine's complete logical state: build options, the built rule-set with
// per-position liveness (translated to and from the iSets' per-entry
// bitsets), every trained RQ-RMI model (rqrmi.WriteTo), and the
// current remainder rules (including online inserts and minus deletes). The
// remainder classifier itself is NOT serialized: it is rebuilt
// deterministically from the remainder rules on load — external-classifier
// construction is cheap; only model training is not — and then re-frozen
// into a fresh snapshot, so the loaded engine is lookup-identical to the
// saved one and zero-lock from the first packet, with zero retraining.
//
// Format (little-endian), version 1:
//
//	magic "NMTBL\x01" | version u32 |
//	options: maxISets i32, minCoverage f64, nISetFields u16 + i32...,
//	         remainder name (u16 len + bytes),
//	         rqrmi config: nWidths u16 + u32..., hidden/targetError i32,
//	         five retired i32 slots and one retired f64 slot (written as
//	         zeros, ignored on read), seed i64, safetySlack i32 |
//	built rules: numFields u16, nRules u32,
//	             per rule: id i64, prio i32, (lo u32, hi u32) × numFields |
//	live bitmap: ceil(nRules/8) bytes (bit pos%8 of byte pos/8) |
//	iSets: count u16, per iSet: field u16, model blob (u32 len + rqrmi bytes) |
//	remainder rules: nRules u32, per rule as above (numFields implied) |
//	update stats: inserted/deletedISets/deletedRemainder/compactions i64 |
//	build stats: coverage f64, remainderSize i64, maxSearchDistance i32,
//	             trainingTime i64 (ns)
//
// Load-time validation is strict: every structural invariant a lookup relies
// on (sorted model entries, in-bounds positions, disjoint partitions, unique
// IDs, valid ranges) is checked, so arbitrary bytes produce an error, never
// a panic (FuzzReadTable).

var tableMagic = [6]byte{'N', 'M', 'T', 'B', 'L', 1}

// tableFormatVersion is bumped on any incompatible codec change; readers
// reject versions they do not know.
const tableFormatVersion = 1

// The codec appends a fixed-size integrity trailer after the version-1
// payload: 4 magic bytes followed by the little-endian CRC32-C checksum of
// every preceding byte. The trailer is v1-compatible in both directions —
// pre-trailer readers never look past the fields they decode, and ReadEngine
// accepts trailer-less artifacts written before the trailer existed — but
// when the trailer is present the checksum MUST verify, and it is checked
// before any payload decoding, so a torn or bit-flipped write is rejected
// up front instead of surfacing as a confusing model-decode error (or, worse,
// loading into a silently wrong table).
var tableTrailerMagic = [4]byte{'N', 'M', 'K', '1'}

// tableTrailerLen is the trailer's size: magic plus CRC32-C.
const tableTrailerLen = 8

// castagnoli is the CRC32-C polynomial table shared by writer and reader
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Plausibility caps enforced while reading, sized far above anything the
// engine produces so they only reject corrupt or adversarial input.
const (
	maxCodecFields    = 64      // engines here are 5-field; long fields split into 32-bit chunks
	maxCodecISets     = 256     // Options.MaxISets is single-digit in practice
	maxCodecNameLen   = 256     // remainder classifier name
	maxCodecWidths    = 64      // RQ-RMI stage count
	maxCodecModelBlob = 1 << 28 // one serialized model (8 MB at 500k entries)
)

// --- remainder builder registry -------------------------------------------

var (
	remainderRegMu  sync.RWMutex
	remainderByName = map[string]rules.Builder{}
)

// RegisterRemainder makes a remainder builder resolvable by name: by
// ReadEngine, which resolves the remainder Name() that Engine.WriteTo
// records back to a builder to reconstruct the classifier from the
// serialized remainder rules, and by the public package's
// WithRemainder(name). The
// builder's product must be rules.Freezable. The core package registers
// "tuplemerge" and "rvh"; the public nuevomatch package registers the
// decision-tree baselines. Registering an existing name replaces it.
func RegisterRemainder(name string, b rules.Builder) {
	remainderRegMu.Lock()
	defer remainderRegMu.Unlock()
	remainderByName[name] = b
}

// RemainderBuilderFor returns the registered builder for name. Load paths
// also use it to resolve an explicitly requested backend up front instead
// of failing inside the engine build.
func RemainderBuilderFor(name string) (rules.Builder, bool) {
	remainderRegMu.RLock()
	defer remainderRegMu.RUnlock()
	b, ok := remainderByName[name]
	return b, ok
}

func init() {
	RegisterRemainder("tuplemerge", tuplemerge.Build)
	RegisterRemainder("rvh", rvh.Build)
}

// --- writing ---------------------------------------------------------------

// WriteTo serializes the engine's complete logical state — options, built
// rules with liveness, trained models, iSet membership, and the current
// remainder rules — so ReadEngine can reconstruct a lookup-identical engine
// without retraining. It implements io.WriterTo. The image is captured into
// memory under the write lock (one consistent state) and copied to w after
// unlocking, so a slow destination never stalls updates; lookups are
// unaffected either way (they never take the lock).
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	if err := faultinject.Hit(faultinject.PointCodecWrite); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := e.serializeTo(&buf); err != nil {
		return 0, err
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// serializeTo captures one consistent engine image under the write lock.
// It writes only to the in-memory buffer — the lock is never held across
// real I/O (WriteTo copies the image out after unlocking).
func (e *Engine) serializeTo(buf *bytes.Buffer) error {
	e.mu.Lock()
	defer e.mu.Unlock()

	cw := &countWriter{w: buf}
	put := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if err := put(tableMagic); err != nil {
		return err
	}
	if err := put(uint32(tableFormatVersion)); err != nil {
		return err
	}

	// Options. The remainder builder is a function and cannot be encoded;
	// its classifier name is recorded for the registry lookup on load.
	if err := put(int32(e.opts.MaxISets)); err != nil {
		return err
	}
	if err := put(e.opts.MinCoverage); err != nil {
		return err
	}
	if err := putIntSlice(put, e.opts.ISetFields); err != nil {
		return err
	}
	if err := putString(put, e.remainder.Name()); err != nil {
		return err
	}
	cfg := e.opts.RQRMI
	if len(cfg.StageWidths) > maxCodecWidths {
		return fmt.Errorf("core: %d RQ-RMI stage widths exceed codec cap %d", len(cfg.StageWidths), maxCodecWidths)
	}
	if err := put(uint16(len(cfg.StageWidths))); err != nil {
		return err
	}
	for _, wd := range cfg.StageWidths {
		if err := put(uint32(wd)); err != nil {
			return err
		}
	}
	for _, v := range []int{cfg.Hidden, cfg.TargetError} {
		if err := put(int32(v)); err != nil {
			return err
		}
	}
	if err := put(retiredTrainingKnobs{}); err != nil {
		return err
	}
	if err := put(cfg.Seed); err != nil {
		return err
	}
	if err := put(int32(cfg.SafetySlack)); err != nil {
		return err
	}

	// Built rule-set and per-position liveness.
	if e.rs.NumFields > maxCodecFields {
		return fmt.Errorf("core: %d fields exceed codec cap %d", e.rs.NumFields, maxCodecFields)
	}
	if err := put(uint16(e.rs.NumFields)); err != nil {
		return err
	}
	if err := putRules(put, e.rs.Rules); err != nil {
		return err
	}
	if err := put(e.liveBitmap()); err != nil {
		return err
	}

	// Trained iSets. Each model is framed as a length-prefixed blob so the
	// reader can hand rqrmi.ReadModel an exact byte range (its internal
	// buffering must not consume bytes of the enclosing stream).
	if len(e.isets) > maxCodecISets {
		return fmt.Errorf("core: %d iSets exceed codec cap %d", len(e.isets), maxCodecISets)
	}
	if err := put(uint16(len(e.isets))); err != nil {
		return err
	}
	var blob bytes.Buffer
	for i := range e.isets {
		if err := put(uint16(e.isets[i].field)); err != nil {
			return err
		}
		blob.Reset()
		if _, err := e.isets[i].model.WriteTo(&blob); err != nil {
			return fmt.Errorf("core: serializing iSet %d model: %w", i, err)
		}
		if err := put(uint32(blob.Len())); err != nil {
			return err
		}
		if err := put(blob.Bytes()); err != nil {
			return err
		}
	}

	// Current remainder rules: the build-time remainder partition plus every
	// online insert, minus online deletes — the authoritative copies of
	// modified rules (§3.9).
	if err := putRules(put, e.remainderRules.Rules); err != nil {
		return err
	}

	// Drift counters survive the round trip so a loaded table retrains on
	// the same schedule the saved one would have.
	for _, v := range []int{e.ustats.Inserted, e.ustats.DeletedFromISets,
		e.ustats.DeletedFromRemainder, e.ustats.OverlayCompactions} {
		if err := put(int64(v)); err != nil {
			return err
		}
	}
	if err := put(e.stats.Coverage); err != nil {
		return err
	}
	if err := put(int64(e.stats.RemainderSize)); err != nil {
		return err
	}
	if err := put(int32(e.stats.MaxSearchDistance)); err != nil {
		return err
	}
	if err := put(int64(e.stats.TrainingTime)); err != nil {
		return err
	}
	var trailer [tableTrailerLen]byte
	copy(trailer[:4], tableTrailerMagic[:])
	binary.LittleEndian.PutUint32(trailer[4:], cw.crc)
	if err := put(trailer); err != nil {
		return err
	}
	return nil
}

func putString(put func(any) error, s string) error {
	if len(s) > maxCodecNameLen {
		return fmt.Errorf("core: name %q exceeds codec cap %d", s[:16]+"...", maxCodecNameLen)
	}
	if err := put(uint16(len(s))); err != nil {
		return err
	}
	return put([]byte(s))
}

func putIntSlice(put func(any) error, xs []int) error {
	if len(xs) > maxCodecFields {
		return fmt.Errorf("core: %d iSet fields exceed codec cap %d", len(xs), maxCodecFields)
	}
	if err := put(uint16(len(xs))); err != nil {
		return err
	}
	for _, x := range xs {
		if err := put(int32(x)); err != nil {
			return err
		}
	}
	return nil
}

func putRules(put func(any) error, rs []rules.Rule) error {
	if err := put(uint32(len(rs))); err != nil {
		return err
	}
	for i := range rs {
		r := &rs[i]
		if err := put(int64(r.ID)); err != nil {
			return err
		}
		if err := put(r.Priority); err != nil {
			return err
		}
		for _, f := range r.Fields {
			if err := put(f.Lo); err != nil {
				return err
			}
			if err := put(f.Hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// countWriter mirrors the rqrmi serializer's byte accounting and maintains
// the running CRC32-C of everything written, so WriteTo can emit the
// integrity trailer without buffering the payload.
type countWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// --- reading ---------------------------------------------------------------

// ReadEngine reconstructs an engine serialized by WriteTo. No training runs:
// the models deserialize, the remainder classifier is rebuilt from the
// serialized remainder rules (remainder resolves the builder: pass nil to
// use the registry entry for the recorded classifier name, or a non-nil
// builder to override it), the remainder is re-frozen, and one snapshot is
// published — so the loaded engine answers lookups identically to the saved
// one, zero-lock from the first packet. Malformed input returns an error;
// it never panics.
//
// When the artifact carries the CRC32-C integrity trailer (everything
// written since the trailer was introduced does), the checksum is verified
// before any payload decoding, so torn writes are caught up front.
// Trailer-less version-1 artifacts are still accepted.
func ReadEngine(r io.Reader, remainder rules.Builder) (*Engine, error) {
	if err := faultinject.Hit(faultinject.PointCodecRead); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading table: %w", err)
	}
	if n := len(data); n >= tableTrailerLen && [4]byte(data[n-tableTrailerLen:n-4]) == tableTrailerMagic {
		want := binary.LittleEndian.Uint32(data[n-4:])
		payload := data[:n-tableTrailerLen]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, fmt.Errorf("core: table checksum mismatch (stored %08x, computed %08x) — torn or corrupted write", want, got)
		}
		data = payload
	}
	return readEngineBody(data, remainder)
}

// readEngineBody decodes one version-1 payload (integrity trailer already
// stripped and verified by ReadEngine, when present).
func readEngineBody(data []byte, remainder rules.Builder) (*Engine, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var got [6]byte
	if err := get(&got); err != nil {
		return nil, fmt.Errorf("core: reading table magic: %w", err)
	}
	if got != tableMagic {
		return nil, fmt.Errorf("core: bad table magic %q", got[:])
	}
	var version uint32
	if err := get(&version); err != nil {
		return nil, err
	}
	if version != tableFormatVersion {
		return nil, fmt.Errorf("core: unsupported table format version %d (have %d)", version, tableFormatVersion)
	}

	var opts Options
	var maxISets int32
	if err := get(&maxISets); err != nil {
		return nil, err
	}
	opts.MaxISets = int(maxISets)
	if err := get(&opts.MinCoverage); err != nil {
		return nil, err
	}
	if math.IsNaN(opts.MinCoverage) {
		return nil, fmt.Errorf("core: NaN MinCoverage")
	}
	isetFields, err := getIntSlice(get, maxCodecFields)
	if err != nil {
		return nil, err
	}
	opts.ISetFields = isetFields
	remName, err := getString(br)
	if err != nil {
		return nil, err
	}
	cfg, err := readRQRMIConfig(get)
	if err != nil {
		return nil, err
	}
	opts.RQRMI = cfg

	if remainder == nil {
		b, ok := RemainderBuilderFor(remName)
		if !ok {
			return nil, fmt.Errorf("core: unknown remainder classifier %q (register it with RegisterRemainder or pass a builder override)", remName)
		}
		remainder = b
	}
	opts.Remainder = remainder

	var numFields uint16
	if err := get(&numFields); err != nil {
		return nil, err
	}
	if numFields == 0 || numFields > maxCodecFields {
		return nil, fmt.Errorf("core: implausible field count %d", numFields)
	}
	builtRules, err := getRules(br, int(numFields))
	if err != nil {
		return nil, fmt.Errorf("core: reading built rules: %w", err)
	}
	rs := &rules.RuleSet{NumFields: int(numFields), Rules: builtRules}
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("core: built rules invalid: %w", err)
	}

	bitmap := make([]byte, (len(builtRules)+7)/8)
	if _, err := io.ReadFull(br, bitmap); err != nil {
		return nil, fmt.Errorf("core: reading live bitmap: %w", err)
	}

	var nISets uint16
	if err := get(&nISets); err != nil {
		return nil, err
	}
	if int(nISets) > maxCodecISets {
		return nil, fmt.Errorf("core: implausible iSet count %d", nISets)
	}
	isets := make([]isetIndex, 0, nISets)
	for i := 0; i < int(nISets); i++ {
		var field uint16
		if err := get(&field); err != nil {
			return nil, err
		}
		if int(field) >= int(numFields) {
			return nil, fmt.Errorf("core: iSet %d field %d out of range (engine has %d)", i, field, numFields)
		}
		var blobLen uint32
		if err := get(&blobLen); err != nil {
			return nil, err
		}
		if blobLen > maxCodecModelBlob {
			return nil, fmt.Errorf("core: iSet %d model blob of %d bytes exceeds cap", i, blobLen)
		}
		// CopyN grows the buffer as bytes actually arrive, so a huge claimed
		// length with a short stream fails at EOF without the allocation.
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, br, int64(blobLen)); err != nil {
			return nil, fmt.Errorf("core: reading iSet %d model: %w", i, err)
		}
		model, err := rqrmi.ReadModel(&blob)
		if err != nil {
			return nil, fmt.Errorf("core: iSet %d model: %w", i, err)
		}
		isets = append(isets, isetIndex{field: int(field), model: model})
	}

	remRules, err := getRules(br, int(numFields))
	if err != nil {
		return nil, fmt.Errorf("core: reading remainder rules: %w", err)
	}
	remainderRules := &rules.RuleSet{NumFields: int(numFields), Rules: remRules}
	if err := remainderRules.Validate(); err != nil {
		return nil, fmt.Errorf("core: remainder rules invalid: %w", err)
	}

	var ustats UpdateStats
	for _, dst := range []*int{&ustats.Inserted, &ustats.DeletedFromISets,
		&ustats.DeletedFromRemainder, &ustats.OverlayCompactions} {
		var v int64
		if err := get(&v); err != nil {
			return nil, err
		}
		if v < 0 || v > math.MaxInt32 {
			return nil, fmt.Errorf("core: implausible drift counter %d", v)
		}
		*dst = int(v)
	}
	var stats BuildStats
	if err := get(&stats.Coverage); err != nil {
		return nil, err
	}
	if math.IsNaN(stats.Coverage) || stats.Coverage < 0 || stats.Coverage > 1 {
		return nil, fmt.Errorf("core: implausible coverage %v", stats.Coverage)
	}
	var remSize int64
	if err := get(&remSize); err != nil {
		return nil, err
	}
	if remSize < 0 || remSize > int64(len(builtRules)) {
		return nil, fmt.Errorf("core: implausible remainder size %d", remSize)
	}
	stats.RemainderSize = int(remSize)
	var msd int32
	if err := get(&msd); err != nil {
		return nil, err
	}
	if msd < 0 {
		return nil, fmt.Errorf("core: negative max search distance %d", msd)
	}
	stats.MaxSearchDistance = int(msd)
	var tt int64
	if err := get(&tt); err != nil {
		return nil, err
	}
	if tt < 0 {
		return nil, fmt.Errorf("core: negative training time %d", tt)
	}
	stats.TrainingTime = time.Duration(tt)

	// The payload must end exactly here: leftover bytes mean a corrupt
	// length field upstream or a mangled trailer, both worth rejecting.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing garbage after table payload")
	}

	return assembleEngine(opts, rs, bitmap, isets, remainderRules, ustats, stats)
}

// liveBitmap returns the codec's position-indexed liveness bitmap (bit
// pos%8 of byte pos/8). A built rule's bit is clear only when an iSet entry
// indexes it and that entry is dead: the bits of remainder positions are
// never read, and are written set, as Build leaves them.
func (e *Engine) liveBitmap() []byte {
	n := e.rs.Len()
	bits := make([]byte, (n+7)/8)
	for pos := 0; pos < n; pos++ {
		bits[pos/8] |= 1 << (pos % 8)
	}
	for i := range e.isets {
		is := &e.isets[i]
		for j, pos := range is.model.Values() {
			if pos >= 0 && !liveBit(is.live, j) {
				bits[pos/8] &^= 1 << (pos % 8)
			}
		}
	}
	return bits
}

func getString(br *bufio.Reader) (string, error) {
	var n uint16
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxCodecNameLen {
		return "", fmt.Errorf("core: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func getIntSlice(get func(any) error, cap16 int) ([]int, error) {
	var n uint16
	if err := get(&n); err != nil {
		return nil, err
	}
	if int(n) > cap16 {
		return nil, fmt.Errorf("core: implausible slice length %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		var v int32
		if err := get(&v); err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// retiredTrainingKnobs holds the codec slots of the gradient-training
// settings the RQ-RMI no longer has (retrain attempts, sample bounds,
// epochs, learning rate). Tables write them as zeros and readers skip them,
// which keeps the format unchanged.
type retiredTrainingKnobs struct {
	Ints [5]int32
	LR   float64
}

func readRQRMIConfig(get func(any) error) (rqrmi.Config, error) {
	var cfg rqrmi.Config
	var nWidths uint16
	if err := get(&nWidths); err != nil {
		return cfg, err
	}
	if int(nWidths) > maxCodecWidths {
		return cfg, fmt.Errorf("core: implausible stage-width count %d", nWidths)
	}
	for i := 0; i < int(nWidths); i++ {
		var w uint32
		if err := get(&w); err != nil {
			return cfg, err
		}
		if w > 1<<20 {
			return cfg, fmt.Errorf("core: implausible stage width %d", w)
		}
		cfg.StageWidths = append(cfg.StageWidths, int(w))
	}
	for _, dst := range []*int{&cfg.Hidden, &cfg.TargetError} {
		var v int32
		if err := get(&v); err != nil {
			return cfg, err
		}
		*dst = int(v)
	}
	if err := get(&retiredTrainingKnobs{}); err != nil {
		return cfg, err
	}
	if err := get(&cfg.Seed); err != nil {
		return cfg, err
	}
	var slack int32
	if err := get(&slack); err != nil {
		return cfg, err
	}
	cfg.SafetySlack = int(slack)
	return cfg, nil
}

// getRules reads a length-prefixed rule list. Allocation grows with the
// bytes actually present, so a corrupt count cannot force a giant up-front
// allocation (the next read fails at EOF first).
func getRules(br *bufio.Reader, numFields int) ([]rules.Rule, error) {
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	initial := int(n)
	if initial > 4096 {
		initial = 4096
	}
	out := make([]rules.Rule, 0, initial)
	// One contiguous lo/hi read per rule keeps decode cost linear.
	buf := make([]uint32, 2*numFields)
	for i := 0; i < int(n); i++ {
		var id int64
		var prio int32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &prio); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("rule %d fields: %w", i, err)
		}
		fields := make([]rules.Range, numFields)
		for d := 0; d < numFields; d++ {
			fields[d] = rules.Range{Lo: buf[2*d], Hi: buf[2*d+1]}
			if !fields[d].Valid() {
				return nil, fmt.Errorf("rule %d field %d inverted [%d,%d]", i, d, fields[d].Lo, fields[d].Hi)
			}
		}
		out = append(out, rules.Rule{ID: int(id), Priority: prio, Fields: fields})
	}
	return out, nil
}
