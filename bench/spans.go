package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for none; IDs are 1-based positions in the file) and Req groups
// the spans of one request: a chunk, an update cycle or a serving window.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded only
// here in bench/, around calls into the layers' public functions. A nil
// tracer records nothing, which is how the untraced run shares code with the
// traced one.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Req: req})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNS = now
	d := now - s.StartNS
	t.mu.Unlock()
	return float64(d)
}

// dur is a closed span's duration in nanoseconds.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.EndNS - s.StartNS)
}

// selfTime is a span's duration minus the part covered by its direct
// children. Children replayed beside their parent (the shadow pipeline) count
// with their full duration.
func (t *tracer) selfTime(id int) float64 {
	self := t.dur(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= float64(s.EndNS - s.StartNS)
		}
	}
	return self
}

// writeFile writes the spans as one JSON array, one span per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString("[\n")
	for i := range t.spans {
		b, err := json.Marshal(&t.spans[i])
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(b)
		if i < len(t.spans)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	bw.WriteString("]\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
