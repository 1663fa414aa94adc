package rqrmi

import (
	"bytes"
	"math/rand"
	"testing"

	"nuevomatch/internal/rules"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	es := genEntries(rng, 300, 1<<22, 1<<18)
	cfg := Config{}
	cfg.StageWidths = []int{1, 4, 8}
	m, _, err := Train(es, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != m.Len() || back.MaxError() != m.MaxError() ||
		back.NumStages() != m.NumStages() || back.NumSubmodels() != m.NumSubmodels() {
		t.Fatal("model shape changed across serialization")
	}
	// Lookups must be bit-identical.
	for i := 0; i < 20000; i++ {
		k := rng.Uint32()
		v1, ok1 := m.Lookup(k)
		v2, ok2 := back.Lookup(k)
		if v1 != v2 || ok1 != ok2 {
			t.Fatalf("Lookup(%d) differs: (%d,%v) vs (%d,%v)", k, v1, ok1, v2, ok2)
		}
	}
	for _, e := range es {
		v1, ok1 := m.Lookup(e.Range.Lo)
		v2, ok2 := back.Lookup(e.Range.Lo)
		if v1 != v2 || ok1 != ok2 {
			t.Fatalf("boundary Lookup(%d) differs", e.Range.Lo)
		}
	}
}

// TestSerializeVersionSelection pins the codec's version choice: trained
// models carry float32-rounded parameters, so they must take the compact v2
// encoding losslessly; a legacy model with float64-only weights must stay on
// v1 so its proven bounds survive the round-trip bit for bit.
func TestSerializeVersionSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, _, err := Train(genEntries(rng, 200, 1<<22, 1<<18), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[5]; v != 2 {
		t.Fatalf("trained model serialized as v%d, want v2 (float32)", v)
	}

	// Hand-built model with a weight float32 cannot represent.
	legacy := &Model{
		stages: [][]submodel{{{
			w1: []float64{1.0 / 3}, b1: []float64{0}, w2: []float64{1},
			b2: 0, inLo: 0, inSpan: 1,
		}}},
		widths: []int{1},
		los:    []uint32{10}, his: []uint32{20}, vals: []int{7},
		errs: []int32{1}, maxErr: 1,
	}
	legacy.finalize()
	var lbuf bytes.Buffer
	if _, err := legacy.WriteTo(&lbuf); err != nil {
		t.Fatal(err)
	}
	if v := lbuf.Bytes()[5]; v != 1 {
		t.Fatalf("legacy float64 model serialized as v%d, want v1", v)
	}
	back, err := ReadModel(&lbuf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Lookup(15); !ok || v != 7 {
		t.Fatalf("legacy round-trip Lookup(15) = (%d,%v), want (7,true)", v, ok)
	}
	// Re-encoding the reloaded legacy model must stay v1 (weights unchanged).
	var rbuf bytes.Buffer
	if _, err := back.WriteTo(&rbuf); err != nil {
		t.Fatal(err)
	}
	if v := rbuf.Bytes()[5]; v != 1 {
		t.Fatalf("legacy model re-serialized as v%d, want v1", v)
	}
}

func TestSerializeEmptyModel(t *testing.T) {
	m, _, err := Train(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Lookup(5); ok {
		t.Error("empty model must not match")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTRQ\x01xxxxxxxxxxxxxxxx"),
		append([]byte{'R', 'Q', 'R', 'M', 'I', 1}, 0xff, 0xff, 0xff, 0xff), // absurd stage count
	}
	for i, c := range cases {
		if _, err := ReadModel(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadModelRejectsOverlappingEntries(t *testing.T) {
	// Serialize a valid model, then corrupt an entry boundary.
	m, _, err := Train([]Entry{
		{Range: rules.Range{Lo: 0, Hi: 10}, Value: 0},
		{Range: rules.Range{Lo: 20, Hi: 30}, Value: 1},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The second entry's Lo is 12 bytes from the end of the entry block:
	// entries are trailed by len(errs)*4 bytes of bounds.
	loOff := len(data) - len(m.errs)*4 - 12
	data[loOff] = 5 // Lo: 20 -> 5, overlapping [0,10]
	if _, err := ReadModel(bytes.NewReader(data)); err == nil {
		t.Error("overlapping entries accepted")
	}
}
