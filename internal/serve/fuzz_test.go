package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
)

// FuzzServeFrames throws an arbitrary byte stream at the data plane over a
// real loopback connection — written in two pieces so a frame can straddle
// reads, then either read back to EOF or abandoned unread — while a second,
// well-behaved connection keeps classifying. Whatever the bytes: the server
// does not panic, the good connection's answers stay correct, a client that
// reads gets exactly one in-order, correct response per complete frame it
// sent, every request read is accounted for as answered or dropped, and
// after Shutdown no goroutine is left behind. The checked-in corpus
// (testdata/fuzz/FuzzServeFrames) seeds the four shapes named by its files: a
// truncated last frame, a mid-frame disconnect, a pipeline several times
// BatchSize, and a client that closes without reading.
func FuzzServeFrames(f *testing.F) {
	const (
		nf        = 2
		batchSize = 8
		frameLen  = 4 + 4*nf
	)
	f.Fuzz(func(t *testing.T, data []byte, split uint16, reads bool) {
		baseline := runtime.NumGoroutine()
		s := serve.New(newFake(nf), serve.Config{Listen: "127.0.0.1:0", BatchSize: batchSize})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		good, err := serve.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer good.Close()
		classify := func(phase uint32) error {
			for i := uint32(0); i < 4; i++ {
				if id, err := good.Classify(rules.Packet{phase, i}); err != nil || id != int(phase+i) {
					return fmt.Errorf("good connection, phase %d: Classify = %d, %v; want %d", phase, id, err, phase+i)
				}
			}
			return nil
		}
		if err := classify(100); err != nil {
			t.Fatal(err)
		}

		hostile, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer hostile.Close()
		hostile.SetDeadline(time.Now().Add(10 * time.Second))
		var hello [8]byte
		if _, err := io.ReadFull(hostile, hello[:]); err != nil {
			t.Fatalf("handshake: %v", err)
		}
		// The writer runs beside the reader below so a long pipeline cannot
		// deadlock on full socket buffers.
		wrote := make(chan error, 1)
		go func() {
			cut := min(int(split), len(data))
			hostile.Write(data[:cut])
			err := classify(200) // the straddling frame's head sits unanswered meanwhile
			hostile.Write(data[cut:])
			if reads {
				hostile.(*net.TCPConn).CloseWrite()
			}
			wrote <- err
		}()
		complete := len(data) / frameLen
		if reads {
			resp, err := io.ReadAll(hostile)
			if err != nil {
				t.Fatalf("reading responses: %v", err)
			}
			if len(resp) != complete*8 {
				t.Fatalf("%d response bytes for %d complete frames", len(resp), complete)
			}
			for i := 0; i < complete; i++ {
				req := data[i*frameLen:]
				want := int32(binary.LittleEndian.Uint32(req[4:]) + binary.LittleEndian.Uint32(req[8:]))
				if !bytes.Equal(resp[i*8:i*8+4], req[:4]) || int32(binary.LittleEndian.Uint32(resp[i*8+4:])) != want {
					t.Fatalf("response %d = % x for request % x", i, resp[i*8:i*8+8], req[:frameLen])
				}
			}
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		hostile.Close()
		if err := classify(300); err != nil {
			t.Fatal(err)
		}
		good.Close()

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		snap := s.MetricsSnapshot()
		if snap.RequestsTotal != snap.ResponsesTotal+snap.WriteErrors {
			t.Fatalf("%d requests read, %d answered + %d dropped", snap.RequestsTotal, snap.ResponsesTotal, snap.WriteErrors)
		}
		if max := uint64(12 + complete); snap.RequestsTotal > max || (reads && snap.RequestsTotal != max) {
			t.Fatalf("%d requests read from 12 good + %d hostile complete frames (reads=%v)", snap.RequestsTotal, complete, reads)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Shutdown, %d before Start", runtime.NumGoroutine(), baseline)
			}
		}
	})
}
