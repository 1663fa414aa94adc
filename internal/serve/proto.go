// Package serve is the network-facing serving tier: a long-lived TCP
// classification service that answers each connection's pipelined requests
// in the engine's native wide batches, plus an HTTP admin plane (/healthz,
// /readyz, /metrics, /reload).
//
// The data-plane protocol is deliberately minimal — fixed-size binary
// frames after an 8-byte handshake — and so is the machinery behind it:
// each connection's reader goroutine blocks for a frame, takes every
// complete frame the same socket read delivered (up to the batch size) as
// one batch, runs LookupBatch against a per-batch pinned backend handle,
// and writes all the responses in one call before it blocks again. A lone
// request is answered as soon as it is read, a pipelining client gets
// batched inference from its own window, and connections share nothing but
// the metrics. See docs/SERVING.md for the full design.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol, little-endian throughout.
//
// On accept the server sends one 8-byte handshake:
//
//	magic "NMSV" | version uint16 | numFields uint16
//
// after which frames are fixed-size. Client request frames carry an opaque
// sequence number echoed back in the response, so clients may pipeline any
// number of requests before reading:
//
//	request:  seq uint32 | field values numFields × uint32
//	response: seq uint32 | rule ID int32 (NoMatch = -1)
const (
	protoMagic   = "NMSV"
	protoVersion = 1
	// handshakeLen is the on-wire handshake size.
	handshakeLen = 8
	// maxProtoFields bounds the handshake's field count: a packet frame is
	// 4+4*numFields bytes and both sides allocate buffers from it.
	maxProtoFields = 256
)

// reqFrameLen is the fixed request frame size for nf-field packets.
//
//nm:hotpath
func reqFrameLen(nf int) int { return 4 + 4*nf }

// respFrameLen is the fixed response frame size.
const respFrameLen = 8

// le32 and putLE32 are the frame codec's little-endian word accessors,
// spelled out because encoding/binary is outside the hot-path allowlist.
//
//nm:hotpath
func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

//nm:hotpath
func putLE32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// writeHandshake emits the server hello.
func writeHandshake(w io.Writer, numFields int) error {
	var b [handshakeLen]byte
	copy(b[:4], protoMagic)
	binary.LittleEndian.PutUint16(b[4:6], protoVersion)
	binary.LittleEndian.PutUint16(b[6:8], uint16(numFields))
	_, err := w.Write(b[:])
	return err
}

// readHandshake consumes and validates the server hello, returning the
// stream's field count.
func readHandshake(r io.Reader) (int, error) {
	var b [handshakeLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	if string(b[:4]) != protoMagic {
		return 0, fmt.Errorf("serve: bad protocol magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != protoVersion {
		return 0, fmt.Errorf("serve: unsupported protocol version %d", v)
	}
	nf := int(binary.LittleEndian.Uint16(b[6:8]))
	if nf == 0 || nf > maxProtoFields {
		return 0, fmt.Errorf("serve: implausible field count %d in handshake", nf)
	}
	return nf, nil
}
