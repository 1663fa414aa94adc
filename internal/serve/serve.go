package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nuevomatch/internal/core"
	"nuevomatch/internal/rules"
)

// Backend is what the serving tier classifies against. Both public engine
// types satisfy it — *nuevomatch.Table and *nuevomatch.Cluster — because the
// root package re-exports core/rules types as aliases. LookupBatch and
// Health must be safe for concurrent use (they are: RCU snapshots).
type Backend interface {
	// NumFields is the packet dimensionality; fixed for a backend's life.
	NumFields() int
	// LookupBatch classifies pkts[i] into out[i] (rule ID or rules.NoMatch).
	// It is every connection's per-batch hot call: implementations serve it
	// from an RCU snapshot without locks or allocation.
	//
	//nm:hotpath
	LookupBatch(pkts []rules.Packet, out []int)
	// Health reports the backend's current serving health.
	Health() core.Health
}

// Config tunes a Server. Zero values select the defaults shown.
type Config struct {
	// Listen is the data-plane TCP address ("127.0.0.1:9090"; ":0" for
	// an ephemeral port).
	Listen string
	// Admin is the HTTP admin address for /healthz, /readyz, /metrics and
	// /reload. Empty disables the admin plane.
	Admin string
	// BatchSize caps how many of a connection's pipelined requests one
	// inference batch carries. Default 128 — the engine's native
	// wide-batch size.
	BatchSize int
	// Reload, when set, produces a fresh Backend for hot table reloads
	// (admin POST /reload, or SIGHUP in cmd/nmserve). The new backend must
	// have the same NumFields; the old one is Closed after the swap.
	Reload func() (Backend, error)
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
}

const (
	// connBufSize is each connection's read buffer. One socket read fills
	// it, and whatever complete frames it then holds are that wake-up's
	// work, so it also bounds the responses one write carries.
	connBufSize = 16 << 10
	// drainWriteGrace is how long Shutdown lets a reader finish writing the
	// responses it owes before its socket's write deadline fires. A healthy
	// client's write completes in microseconds; only a client that stopped
	// reading its socket ever waits this long.
	drainWriteGrace = time.Second
)

// backendBox wraps the Backend interface in a concrete type so it can live
// in an atomic.Pointer.
type backendBox struct{ b Backend }

// Server is the classification service: every connection's reader goroutine
// classifies that connection's own pipelined requests inline. Create with
// New, then Start; Shutdown drains in-flight work before returning.
type Server struct {
	cfg       Config
	backend   atomic.Pointer[backendBox]
	numFields int
	metrics   Metrics

	ln       net.Listener
	admin    *http.Server
	adminLn  net.Listener
	quit     chan struct{}
	draining atomic.Bool
	started  bool

	// connMu guards conns and orders registration against Shutdown's kick:
	// a connection is either registered before the kick and gets its
	// deadlines set, or sees draining under the lock and is refused.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// connWG tracks the acceptor and every connection reader.
	connWG sync.WaitGroup

	// reloadMu serializes Reload calls so concurrent swaps cannot close a
	// backend that another reload just installed.
	reloadMu sync.Mutex
}

// New builds a Server around b. Call Start to begin accepting.
func New(b Backend, cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:       cfg,
		numFields: b.NumFields(),
		quit:      make(chan struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.backend.Store(&backendBox{b})
	return s
}

// Backend returns the currently served backend.
func (s *Server) Backend() Backend { return s.backend.Load().b }

// SetBackend atomically swaps the served backend and returns the previous
// one. The caller owns closing the old backend; in-flight batches pinned
// the old handle and remain valid (lookups survive Close by design).
func (s *Server) SetBackend(b Backend) Backend {
	old := s.backend.Swap(&backendBox{b})
	return old.b
}

// Reload invokes the configured Reload hook, validates the replacement,
// swaps it in, and closes the previous backend. Safe to call concurrently;
// calls are serialized.
func (s *Server) Reload() error {
	if s.cfg.Reload == nil {
		s.metrics.ReloadFailures.Add(1)
		return errors.New("serve: no reload hook configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	nb, err := s.cfg.Reload()
	if err != nil {
		s.metrics.ReloadFailures.Add(1)
		return fmt.Errorf("serve: reload: %w", err)
	}
	if nf := nb.NumFields(); nf != s.numFields {
		s.metrics.ReloadFailures.Add(1)
		if cl, ok := nb.(interface{ Close() error }); ok {
			cl.Close()
		}
		return fmt.Errorf("serve: reload rejected: new backend has %d fields, serving %d", nf, s.numFields)
	}
	old := s.SetBackend(nb)
	s.metrics.Reloads.Add(1)
	// Closing immediately is safe: batches that pinned the old handle keep
	// working because lookups remain valid after Close.
	if cl, ok := old.(interface{ Close() error }); ok {
		cl.Close()
	}
	return nil
}

// Start binds the data-plane listener (and admin server, if configured) and
// launches the acceptor goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Listen)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.Admin != "" {
		aln, err := net.Listen("tcp", s.cfg.Admin)
		if err != nil {
			ln.Close()
			return err
		}
		s.adminLn = aln
		s.admin = &http.Server{Handler: s.adminMux()}
		go s.admin.Serve(aln)
	}
	s.started = true
	s.connWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr is the bound data-plane address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AdminAddr is the bound admin address, or nil when disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// MetricsSnapshot returns a point-in-time copy of the serving metrics.
func (s *Server) MetricsSnapshot() MetricsSnapshot { return s.metrics.snapshot() }

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	var backoff time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			// A persistent failure (EMFILE, say) must not spin: back off
			// the way net/http does, 5ms doubling to 1s.
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
			case <-s.quit:
				return
			}
			continue
		}
		backoff = 0
		s.connMu.Lock()
		if s.draining.Load() {
			s.connMu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		s.metrics.ConnectionsTotal.Add(1)
		s.metrics.ActiveConns.Add(1)
		go s.serveConn(nc)
	}
}

// connScratch is the memory one connection's reader reuses for every batch,
// so steady-state serving does not allocate.
type connScratch struct {
	pkts []rules.Packet // pkts[i] is a fixed window of one flat []uint32
	out  []int
	resp []byte // encoded responses awaiting the next write
}

func newConnScratch(numFields, maxBatch, maxPending int) *connScratch {
	sc := &connScratch{
		pkts: make([]rules.Packet, maxBatch),
		out:  make([]int, maxBatch),
		resp: make([]byte, maxPending*respFrameLen),
	}
	flat := make([]uint32, maxBatch*numFields)
	for i := range sc.pkts {
		sc.pkts[i] = flat[i*numFields : (i+1)*numFields : (i+1)*numFields]
	}
	return sc
}

// classifyFrames is the per-batch core: decode the request frames in frames
// (a whole number of them) into the connection's packet scratch, issue one
// LookupBatch against a backend handle pinned for the whole batch — a
// concurrent Reload swap never tears a batch, and the old handle stays valid
// even after its Close (fail-static lookup guarantee) — and encode their
// response frames into resp. It holds the hot-path contract: one atomic
// load, no locks, no allocation.
//
//nm:hotpath
func (s *Server) classifyFrames(frames []byte, sc *connScratch, resp []byte) {
	frameLen := reqFrameLen(s.numFields)
	n := len(frames) / frameLen
	for i := 0; i < n; i++ {
		f := frames[i*frameLen : (i+1)*frameLen]
		copy(resp[i*respFrameLen:], f[:4]) // seq, echoed verbatim
		pkt := sc.pkts[i]
		for d := range pkt {
			pkt[d] = le32(f[4+4*d:])
		}
	}
	backend := s.backend.Load().b
	backend.LookupBatch(sc.pkts[:n], sc.out[:n])
	for i := 0; i < n; i++ {
		putLE32(resp[i*respFrameLen+4:], uint32(int32(sc.out[i])))
	}
}

// serveConn is one connection's whole data plane: handshake, then block for
// a frame, classify every complete frame the same socket read delivered —
// the client's own pipelined window is the batch, never waited on — and
// write all their responses in one call right before blocking again.
// Nothing is shared with other connections but the metrics, so a slow or
// stalled client holds up only itself.
func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
		nc.Close()
		s.metrics.ActiveConns.Add(-1)
		s.connWG.Done()
	}()
	if err := writeHandshake(nc, s.numFields); err != nil {
		return
	}
	m := &s.metrics
	frameLen := reqFrameLen(s.numFields)
	br := bufio.NewReaderSize(nc, max(connBufSize, frameLen))
	maxPending := br.Size() / frameLen
	maxBatch := min(s.cfg.BatchSize, maxPending)
	sc := newConnScratch(s.numFields, maxBatch, maxPending)
	for {
		head, err := br.Peek(frameLen)
		if err != nil {
			// EOF at a frame boundary is a normal client departure, and a
			// drain kicks parked readers with a read deadline; anything
			// else, a truncated frame included, is a read error. Every
			// complete frame read so far has already been answered.
			if !s.draining.Load() && (len(head) > 0 || !errors.Is(err, io.EOF)) {
				m.ReadErrors.Add(1)
			}
			return
		}
		start := time.Now()
		pending, batches := 0, uint64(0)
		for br.Buffered() >= frameLen {
			n := min(br.Buffered()/frameLen, maxBatch)
			frames, _ := br.Peek(n * frameLen) // already buffered: cannot fail
			s.classifyFrames(frames, sc, sc.resp[pending*respFrameLen:])
			br.Discard(n * frameLen)
			pending += n
			batches++
		}
		m.RequestsTotal.Add(uint64(pending))
		m.BatchesTotal.Add(batches)
		if nw, err := nc.Write(sc.resp[:pending*respFrameLen]); err != nil {
			// The kernel took nw bytes before failing: the whole responses
			// among them were delivered, the rest are dropped.
			sent := nw / respFrameLen
			m.ResponsesTotal.Add(uint64(sent))
			m.WriteErrors.Add(uint64(pending - sent))
			return
		}
		m.ResponsesTotal.Add(uint64(pending))
		m.observeLatency(time.Since(start), uint64(pending))
	}
}

// Shutdown drains the server: stop accepting, kick every reader, and wait
// for them to answer what they had already read and close their sockets;
// then stop the admin plane. ctx bounds the wait; on expiry connections are
// force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.started {
		return nil
	}
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already shut down (or shutting down concurrently)
	}
	close(s.quit)
	s.ln.Close()

	// Unblock readers parked in a read now, and any parked in a write to a
	// client that stopped reading once the grace period ends.
	now := time.Now()
	s.connMu.Lock()
	for nc := range s.conns {
		nc.SetReadDeadline(now)
		nc.SetWriteDeadline(now.Add(drainWriteGrace))
	}
	s.connMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.connMu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.connMu.Unlock()
	}

	if s.admin != nil {
		actx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.admin.Shutdown(actx)
	}
	return err
}
