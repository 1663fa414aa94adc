package rqrmi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model serialization. Training is the expensive step — the direct
// fit takes about 1.2 s for acl1 at 500K rules on a 2-CPU box (the paper's
// gradient training took minutes, Figure 15) — so production deployments
// persist trained models and load them at startup; this codec is also the honest way to measure "model
// size" (MemoryFootprint agrees with the encoded weight payload).
//
// Format (little-endian):
//
//	magic "RQRMI\x01" | nStages u32 | widths u32... |
//	per submodel: hidden u32, inLo f64, inSpan f64, w1/b1/w2 f64..., b2 f64 |
//	nEntries u32 | per entry: lo u32, hi u32, value i64 |
//	errs i32...
//
// Version 2 ("RQRMI\x02") is identical except every submodel parameter is
// stored as float32 — the paper's single-precision weight format (§4), and
// lossless for models trained by this package because training rounds every
// parameter to a float32-representable value before the bounds are proven.
// WriteTo emits v2 exactly when that losslessness holds; legacy float64
// models (deserialized v1 files with non-representable weights) keep the v1
// encoding so their proven bounds survive the round-trip. ReadModel accepts
// both.

var magic = [6]byte{'R', 'Q', 'R', 'M', 'I', 1}
var magicV2 = [6]byte{'R', 'Q', 'R', 'M', 'I', 2}

// f32Exact reports whether v survives a float32 round-trip unchanged.
func f32Exact(v float64) bool { return float64(float32(v)) == v }

// paramsF32Exact reports whether every submodel parameter is exactly
// float32-representable, i.e. whether the v2 encoding is lossless.
func (m *Model) paramsF32Exact() bool {
	for _, st := range m.stages {
		for i := range st {
			s := &st[i]
			if !f32Exact(s.inLo) || !f32Exact(s.inSpan) || !f32Exact(s.b2) {
				return false
			}
			for k := range s.w1 {
				if !f32Exact(s.w1[k]) || !f32Exact(s.b1[k]) || !f32Exact(s.w2[k]) {
					return false
				}
			}
		}
	}
	return true
}

// WriteTo serializes the model. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	f32 := m.paramsF32Exact()
	mg := magic
	if f32 {
		mg = magicV2
	}
	if err := write(mg); err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(m.stages))); err != nil {
		return cw.n, err
	}
	for _, wd := range m.widths {
		if err := write(uint32(wd)); err != nil {
			return cw.n, err
		}
	}
	for _, st := range m.stages {
		for i := range st {
			s := &st[i]
			if err := write(uint32(len(s.w1))); err != nil {
				return cw.n, err
			}
			for _, grp := range [][]float64{{s.inLo, s.inSpan}, s.w1, s.b1, s.w2, {s.b2}} {
				if f32 {
					for _, v := range grp {
						if err := write(float32(v)); err != nil {
							return cw.n, err
						}
					}
				} else if err := write(grp); err != nil {
					return cw.n, err
				}
			}
		}
	}
	if err := write(uint32(len(m.los))); err != nil {
		return cw.n, err
	}
	for i := range m.los {
		if err := write(m.los[i]); err != nil {
			return cw.n, err
		}
		if err := write(m.his[i]); err != nil {
			return cw.n, err
		}
		if err := write(int64(m.vals[i])); err != nil {
			return cw.n, err
		}
	}
	if err := write(m.errs); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

// ReadModel deserializes a model written by WriteTo.
func ReadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	var got [6]byte
	if err := read(&got); err != nil {
		return nil, fmt.Errorf("rqrmi: reading magic: %w", err)
	}
	var f32 bool
	switch got {
	case magic:
	case magicV2:
		f32 = true
	default:
		return nil, fmt.Errorf("rqrmi: bad magic %q", got[:])
	}
	// readF reads len(dst) parameters in the file's precision.
	readF := func(dst []float64) error {
		if !f32 {
			return read(&dst)
		}
		buf := make([]float32, len(dst))
		if err := read(&buf); err != nil {
			return err
		}
		for i, v := range buf {
			dst[i] = float64(v)
		}
		return nil
	}
	var nStages uint32
	if err := read(&nStages); err != nil {
		return nil, err
	}
	if nStages > 16 {
		return nil, fmt.Errorf("rqrmi: implausible stage count %d", nStages)
	}
	m := &Model{widths: make([]int, nStages), stages: make([][]submodel, nStages)}
	for i := range m.widths {
		var w uint32
		if err := read(&w); err != nil {
			return nil, err
		}
		// Must admit any width WriteTo can produce: training clamps widths
		// to the entry count, so custom configs on very large iSets can
		// legitimately exceed the paper's 512 (Table 4). Corrupt inputs are
		// bounded by the incremental stage allocation below, not this cap.
		if w == 0 || w > 1<<20 {
			return nil, fmt.Errorf("rqrmi: implausible stage width %d", w)
		}
		m.widths[i] = int(w)
	}
	for si := range m.stages {
		// Grow the stage as submodels actually decode (each consumes tens
		// of bytes), so a corrupt width cannot force a giant up-front
		// allocation.
		initialStage := m.widths[si]
		if initialStage > 1<<12 {
			initialStage = 1 << 12
		}
		m.stages[si] = make([]submodel, 0, initialStage)
		for j := 0; j < m.widths[si]; j++ {
			var hidden uint32
			if err := read(&hidden); err != nil {
				return nil, err
			}
			if hidden == 0 || hidden > 1024 {
				return nil, fmt.Errorf("rqrmi: implausible hidden size %d", hidden)
			}
			s := submodel{
				w1: make([]float64, hidden),
				b1: make([]float64, hidden),
				w2: make([]float64, hidden),
			}
			var norm [2]float64
			if err := readF(norm[:]); err != nil {
				return nil, err
			}
			s.inLo, s.inSpan = norm[0], norm[1]
			if s.inSpan <= 0 || math.IsNaN(s.inSpan) {
				return nil, fmt.Errorf("rqrmi: invalid input span %v", s.inSpan)
			}
			for _, dst := range [][]float64{s.w1, s.b1, s.w2} {
				if err := readF(dst); err != nil {
					return nil, err
				}
			}
			var b2 [1]float64
			if err := readF(b2[:]); err != nil {
				return nil, err
			}
			s.b2 = b2[0]
			m.stages[si] = append(m.stages[si], s)
		}
	}
	var nEntries uint32
	if err := read(&nEntries); err != nil {
		return nil, err
	}
	// Grow the entry arrays as bytes actually arrive instead of trusting the
	// count: a corrupt header claiming 4G entries must fail at EOF, not
	// allocate gigabytes up front (ReadModel is on the fuzzed table path).
	initial := int(nEntries)
	if initial > 1<<16 {
		initial = 1 << 16
	}
	m.los = make([]uint32, 0, initial)
	m.his = make([]uint32, 0, initial)
	m.vals = make([]int, 0, initial)
	for i := 0; i < int(nEntries); i++ {
		var lo, hi uint32
		var val int64
		if err := read(&lo); err != nil {
			return nil, err
		}
		if err := read(&hi); err != nil {
			return nil, err
		}
		if err := read(&val); err != nil {
			return nil, err
		}
		if lo > hi {
			return nil, fmt.Errorf("rqrmi: entry %d inverted [%d,%d]", i, lo, hi)
		}
		if i > 0 && m.his[i-1] >= lo {
			return nil, fmt.Errorf("rqrmi: entries %d and %d overlap", i-1, i)
		}
		m.los = append(m.los, lo)
		m.his = append(m.his, hi)
		m.vals = append(m.vals, int(val))
	}
	if nStages > 0 {
		m.errs = make([]int32, m.widths[nStages-1])
		if err := read(&m.errs); err != nil {
			return nil, err
		}
		for _, e := range m.errs {
			if e < 0 {
				return nil, fmt.Errorf("rqrmi: negative error bound %d", e)
			}
			if e > m.maxErr {
				m.maxErr = e
			}
		}
	}
	m.finalize()
	return m, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
