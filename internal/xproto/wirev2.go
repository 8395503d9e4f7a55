// Wire protocol v2: the LBX-style upgrade negotiated at connection
// setup (docs/pipelining.md, "Wire protocol v2"). The v1 framing stays
// the outer transport — v2 rides entirely inside it, as OpWireSeg
// request frames (client→server) and KindWireSeg messages
// (server→client) whose payload is a checksummed segment envelope:
//
//	[u8 flags][u32 crc32c(raw)][u32 rawLen][body]
//
// flags bit 0 marks the body flate-compressed; otherwise the body is
// the raw bytes verbatim (the incompressible-segment passthrough). The
// CRC is verified over the reconstructed raw bytes before any inner
// frame is handed to a dispatcher, so corruption inside a segment is
// always a clean connection error, never a silently garbled request.
//
// The raw bytes are exactly the v1 frames a v1 connection would have
// sent, concatenated: [u16 op][u32 len][payload] request frames
// client→server (WalkRequestFrames), [u8 kind][u32 len][payload] server
// frames server→client (WalkServerFrames). A segment changes only how a
// batch crosses the wire, never what it says, so the server may freely
// mix small unwrapped frames with wrapped segments on the same stream.
package xproto

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
)

// Wire-upgrade opcodes. Like OpAttachSession, both are handshake rows
// of the request table: the server's request loop consumes them
// without assigning a sequence number, so the client/server seq
// lockstep (which span sampling correlates on) is untouched by the
// upgrade.
const (
	// OpUpgradeWire asks for v2: the client writes it raw before reading
	// the setup block, the server answers with a KindWireAck frame
	// immediately after the setup block.
	OpUpgradeWire uint16 = 206
	// OpWireSeg carries one v2 segment envelope of batched requests.
	OpWireSeg uint16 = 207
)

// Server-to-client message kinds added by v2.
const (
	// KindWireAck answers OpUpgradeWire: [u8 version]. Version 2 accepts
	// the upgrade; version 1 declines it and the connection continues in
	// v1 framing.
	KindWireAck byte = 3
	// KindWireSeg carries one v2 segment envelope of batched server
	// frames.
	KindWireSeg byte = 4
)

// minCompressSize is the segment size below which compression is not
// attempted: the flate header alone eats most of the win.
const minCompressSize = 64

// segFlagCompressed marks a segment envelope whose body is
// flate-compressed.
const segFlagCompressed byte = 1 << 0

// UpgradeWireReq is the v2 upgrade request (OpUpgradeWire). The client
// sends it raw before reading the setup block; the server consumes it
// without assigning a sequence number and answers with a KindWireAck
// frame.
type UpgradeWireReq struct {
	Version uint8
}

func (q *UpgradeWireReq) Op() uint16       { return OpUpgradeWire }
func (q *UpgradeWireReq) Encode(w *Writer) { w.PutU8(q.Version) }
func (q *UpgradeWireReq) Decode(r *Reader) { q.Version = r.U8() }

// castagnoliTable is the CRC-32C polynomial table used by segment
// envelopes (hardware-accelerated on the platforms that matter).
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// pooledWriter is a recycled compressor. Building a flate.Writer costs
// about 1 MiB, so the pool must hand one back to whichever goroutine
// compresses next.
type pooledWriter struct {
	fw   *flate.Writer
	busy atomic.Bool // on loan to a caller
}

// flateWriterPool recycles compressors across segments; Reset rebinds
// one to the current output in O(1). A sync.Pool keeps the first item
// put on a P in that P's private slot, which no other P can take, so a
// writer released on one P would be rebuilt by a compression on the
// other. putFlateWriter therefore puts each writer twice: the second
// copy lands in the P's shared list, which every P can steal from (in
// the victim cache too). getFlateWriter skips copies still on loan.
var flateWriterPool sync.Pool

func getFlateWriter() *pooledWriter {
	for {
		pw, _ := flateWriterPool.Get().(*pooledWriter)
		if pw == nil {
			fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
			pw = &pooledWriter{fw: fw}
			pw.busy.Store(true)
			return pw
		}
		if pw.busy.CompareAndSwap(false, true) {
			return pw
		}
		// A second copy of a writer already on loan: drop it.
	}
}

func putFlateWriter(pw *pooledWriter) {
	pw.busy.Store(false)
	flateWriterPool.Put(pw)
	flateWriterPool.Put(pw)
}

// flateReaderPool recycles decompressors; every flate.NewReader
// satisfies flate.Resetter.
var flateReaderPool = sync.Pool{
	New: func() any { return flate.NewReader(bytes.NewReader(nil)) },
}

// sliceWriter lets a pooled flate.Writer append to a caller-owned
// buffer without an intermediate copy.
type sliceWriter struct{ buf []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// appendSegmentPayload appends the segment envelope for raw to dst,
// flate-compressing the body when the result is actually smaller (the
// passthrough keeps incompressible or tiny segments verbatim).
// compressed reports which body form was emitted.
func appendSegmentPayload(dst, raw []byte) (out []byte, compressed bool) {
	flagAt := len(dst)
	dst = append(dst, 0)
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(raw, castagnoliTable))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(raw)))
	bodyAt := len(dst)
	if len(raw) >= minCompressSize {
		sw := &sliceWriter{buf: dst}
		pw := getFlateWriter()
		pw.fw.Reset(sw)
		pw.fw.Write(raw) //nolint:errcheck — sliceWriter cannot fail
		pw.fw.Close()    //nolint:errcheck
		putFlateWriter(pw)
		dst = sw.buf
		if len(dst)-bodyAt < len(raw) {
			dst[flagAt] = segFlagCompressed
			return dst, true
		}
		dst = dst[:bodyAt]
	}
	dst = append(dst, raw...)
	return dst, false
}

// AppendWireSegRequestFrame appends a complete outer OpWireSeg request
// frame carrying raw (a concatenation of v1 request frames) to dst.
// compressed reports whether the segment body was flate-encoded.
func AppendWireSegRequestFrame(dst, raw []byte) (out []byte, compressed bool) {
	dst = binary.BigEndian.AppendUint16(dst, OpWireSeg)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, compressed = appendSegmentPayload(dst, raw)
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, compressed
}

// AppendWireSegServerFrame appends a complete outer KindWireSeg server
// frame carrying raw (a concatenation of v1 server frames) to dst.
func AppendWireSegServerFrame(dst, raw []byte) (out []byte, compressed bool) {
	dst = append(dst, KindWireSeg)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, compressed = appendSegmentPayload(dst, raw)
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, compressed
}

// DecodeSegmentPayload unwraps a segment envelope, verifying the
// declared length and the CRC before a single reconstructed byte is
// trusted. The returned raw bytes alias scratch when the body was
// compressed (scratch is grown as needed and returned for reuse) and
// alias payload itself on the passthrough path; either way they are
// valid only until the caller's next read into those buffers.
func DecodeSegmentPayload(payload, scratch []byte) (raw, newScratch []byte, err error) {
	if len(payload) < 9 {
		return nil, scratch, fmt.Errorf("xproto: short v2 segment envelope (%d bytes)", len(payload))
	}
	flags := payload[0]
	wantCRC := binary.BigEndian.Uint32(payload[1:5])
	rawLen := binary.BigEndian.Uint32(payload[5:9])
	body := payload[9:]
	if flags&^segFlagCompressed != 0 {
		return nil, scratch, fmt.Errorf("xproto: unknown v2 segment flags %#02x", flags)
	}
	if rawLen > 64<<20 {
		return nil, scratch, fmt.Errorf("xproto: oversized v2 segment (%d bytes)", rawLen)
	}
	if flags&segFlagCompressed == 0 {
		if uint32(len(body)) != rawLen {
			return nil, scratch, fmt.Errorf("xproto: v2 segment length mismatch (%d declared, %d present)", rawLen, len(body))
		}
		raw = body
	} else {
		if uint32(cap(scratch)) < rawLen {
			scratch = make([]byte, rawLen)
		}
		raw = scratch[:rawLen]
		fr := flateReaderPool.Get().(io.ReadCloser)
		fr.(flate.Resetter).Reset(bytes.NewReader(body), nil) //nolint:errcheck
		_, rerr := io.ReadFull(fr, raw)
		if rerr == nil {
			// The body must decode to exactly rawLen bytes; trailing
			// data means the envelope lied about its contents.
			var one [1]byte
			if n, eerr := fr.Read(one[:]); n != 0 || (eerr != nil && eerr != io.EOF) {
				if n != 0 {
					rerr = fmt.Errorf("xproto: v2 segment decodes past its declared %d bytes", rawLen)
				} else {
					rerr = eerr
				}
			}
		}
		flateReaderPool.Put(fr)
		if rerr != nil {
			return nil, scratch, fmt.Errorf("xproto: v2 segment decompression: %w", rerr)
		}
	}
	if crc32.Checksum(raw, castagnoliTable) != wantCRC {
		return nil, scratch, fmt.Errorf("xproto: v2 segment checksum mismatch")
	}
	return raw, scratch, nil
}

// WalkRequestFrames iterates the v1 request frames concatenated inside
// a decoded client→server segment, invoking fn for each. The payload
// passed to fn aliases raw and is valid only until the caller's next
// read into that buffer (the ReadRequestFrame contract — request
// Decode copies what it retains). A torn frame ends the walk with an
// error, which the caller must treat as fatal to the connection.
func WalkRequestFrames(raw []byte, fn func(op uint16, payload []byte) error) error {
	for len(raw) > 0 {
		if len(raw) < 6 {
			return fmt.Errorf("xproto: truncated request frame header inside v2 segment")
		}
		op := binary.BigEndian.Uint16(raw[0:2])
		n := binary.BigEndian.Uint32(raw[2:6])
		if uint64(n) > uint64(len(raw)-6) {
			return fmt.Errorf("xproto: truncated request frame inside v2 segment (%d declared, %d present)", n, len(raw)-6)
		}
		if err := fn(op, raw[6:6+n]); err != nil {
			return err
		}
		raw = raw[6+n:]
	}
	return nil
}

// WalkServerFrames iterates the v1 server frames concatenated inside a
// decoded server→client segment, invoking fn for each. The payload
// passed to fn aliases raw.
func WalkServerFrames(raw []byte, fn func(kind byte, payload []byte) error) error {
	for len(raw) > 0 {
		if len(raw) < 5 {
			return fmt.Errorf("xproto: truncated frame header inside v2 segment")
		}
		kind := raw[0]
		n := binary.BigEndian.Uint32(raw[1:5])
		if uint64(n) > uint64(len(raw)-5) {
			return fmt.Errorf("xproto: truncated frame inside v2 segment (%d declared, %d present)", n, len(raw)-5)
		}
		if err := fn(kind, raw[5:5+n]); err != nil {
			return err
		}
		raw = raw[5+n:]
	}
	return nil
}
