package serve

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
)

// sumBackend answers each packet with the sum of its fields.
type sumBackend struct{ fields int }

func (b sumBackend) NumFields() int      { return b.fields }
func (b sumBackend) Health() core.Health { return core.Health{} }
func (b sumBackend) LookupBatch(pkts []rules.Packet, out []int) {
	for i, p := range pkts {
		out[i] = 0
		for _, v := range p {
			out[i] += int(v)
		}
	}
}

// TestClassifyFramesZeroAlloc is the serving tier's case of the zero-alloc
// guard: in steady state one served batch — decode, LookupBatch, encode —
// allocates nothing, and it answers what it was asked.
func TestClassifyFramesZeroAlloc(t *testing.T) {
	const nf, n = 5, 128
	s := New(sumBackend{nf}, Config{})
	sc := newConnScratch(nf, n, n)
	frames := make([]byte, n*reqFrameLen(nf))
	for i := 0; i < n; i++ {
		f := frames[i*reqFrameLen(nf):]
		putLE32(f, uint32(1000+i))
		for d := 0; d < nf; d++ {
			putLE32(f[4+4*d:], uint32(i*d))
		}
	}
	s.classifyFrames(frames, sc, sc.resp)
	for i := 0; i < n; i++ {
		r := sc.resp[i*respFrameLen:]
		if seq, id := le32(r), int(int32(le32(r[4:]))); seq != uint32(1000+i) || id != i*10 {
			t.Fatalf("response %d = (seq %d, id %d), want (%d, %d)", i, seq, id, 1000+i, i*10)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are only guaranteed without race instrumentation")
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.classifyFrames(frames, sc, sc.resp)
	}); avg != 0 {
		t.Errorf("one served batch allocates %.2f objects, want 0", avg)
	}
}

// failingListener fails every Accept with a non-ErrClosed error, the way a
// process out of file descriptors does.
type failingListener struct{ calls atomic.Int64 }

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	return nil, errors.New("accept: too many open files")
}
func (l *failingListener) Close() error   { return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopBacksOff: persistent accept errors must not spin a core, and
// the backed-off loop must still exit promptly on shutdown.
func TestAcceptLoopBacksOff(t *testing.T) {
	s := New(sumBackend{2}, Config{})
	ln := &failingListener{}
	s.ln = ln
	s.connWG.Add(1)
	go s.acceptLoop()
	time.Sleep(200 * time.Millisecond)
	// 5+10+20+40+80 ms of back-off fit in 200 ms: about six attempts.
	if n := ln.calls.Load(); n > 10 {
		t.Fatalf("acceptLoop called Accept %d times in 200ms of persistent errors", n)
	}
	close(s.quit)
	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("acceptLoop did not exit on quit while backing off")
	}
}
