// Package xproto defines the wire protocol spoken between the simulated
// X display server (internal/xserver) and its clients
// (internal/xclient). The protocol is modeled on the X11 core protocol:
// clients send numbered requests, some of which produce replies; the
// server sends replies, errors and events. Requests, replies and events
// are length-prefixed binary messages so the protocol can run over any
// net.Conn — an in-process pipe or a real TCP socket between separate
// operating-system processes (which is what makes Tk's "send" a true
// inter-application mechanism here, as in the paper).
package xproto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Message kinds on the server-to-client stream.
const (
	KindReply byte = iota
	KindEvent
	KindError
)

// Writer accumulates encoded bytes: a message payload, or whole frames
// appended by RequestFrame and ServerFrame. The zero value is ready to
// use. Each connection keeps one as its output buffer and encodes every
// frame into it in place, so once the buffer has grown to the
// connection's largest batch, encoding allocates nothing.
type Writer struct {
	buf []byte
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// PutU8 appends a byte.
func (w *Writer) PutU8(v uint8) { w.buf = append(w.buf, v) }

// PutU16 appends a big-endian uint16.
func (w *Writer) PutU16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// PutU32 appends a big-endian uint32.
func (w *Writer) PutU32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// PutU64 appends a big-endian uint64.
func (w *Writer) PutU64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// PutI16 appends a big-endian int16.
func (w *Writer) PutI16(v int16) { w.PutU16(uint16(v)) }

// PutI32 appends a big-endian int32.
func (w *Writer) PutI32(v int32) { w.PutU32(uint32(v)) }

// PutBool appends a boolean as one byte.
func (w *Writer) PutBool(v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
}

// PutString appends a length-prefixed string (u32 length).
func (w *Writer) PutString(s string) {
	w.PutU32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (w *Writer) PutBytes(b []byte) {
	w.PutU32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// AppendRaw grows the payload by n bytes and returns the new region for
// the caller to fill in place — the zero-intermediate-copy path for
// bulk payloads (screenshot pixel packing). The contents of the
// returned slice are unspecified; the caller must overwrite all n
// bytes. The slice is only valid until the next Writer method call.
func (w *Writer) AppendRaw(n int) []byte {
	old := len(w.buf)
	if cap(w.buf)-old < n {
		nb := make([]byte, old, old+n)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = w.buf[:old+n]
	return w.buf[old:]
}

// Reader walks a message payload.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps payload bytes.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Reset makes r read b from its start, with no error: a read loop keeps
// one Reader and resets it for each payload.
func (r *Reader) Reset(b []byte) { *r = Reader{buf: b} }

// Err returns the first decode error encountered, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("xproto: short message (%d bytes, offset %d)", len(r.buf), r.pos)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.pos+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if r.err != nil || r.pos+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.pos+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.pos+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// I16 reads a big-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// I32 reads a big-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.ByteSlice()) }

// ByteSlice reads a length-prefixed byte slice (shared with the buffer).
func (r *Reader) ByteSlice() []byte {
	n := int(r.U32())
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// RequestFrame appends one client-to-server frame for req:
// [u16 opcode][u32 payload length][payload]. The payload is encoded in
// place and its length back-filled.
func (w *Writer) RequestFrame(req Request) {
	w.PutU16(req.Op())
	lenAt := len(w.buf)
	w.PutU32(0)
	req.Encode(w)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
}

// ServerFrame appends one server-to-client frame:
// [u8 kind][u32 payload length][payload]. encode appends the payload in
// place and its length is back-filled. The two directions never mix on
// a stream, so their headers may differ.
func (w *Writer) ServerFrame(kind byte, encode func(w *Writer)) {
	w.PutU8(kind)
	lenAt := len(w.buf)
	w.PutU32(0)
	encode(w)
	binary.BigEndian.PutUint32(w.buf[lenAt:], uint32(len(w.buf)-lenAt-4))
}

// ReadRequestFrame reads one client-to-server frame into the caller's
// scratch buffer buf, returning the opcode and payload. The payload
// aliases buf when it fits (buf is grown otherwise; nil is a valid
// scratch), so a read loop that passes the previous payload back in
// runs allocation-free once the buffer has grown to the workload's
// largest request. The caller must fully consume each payload before
// the next call; that is safe here because every request Decode copies
// the variable-length fields it retains (see requests.go).
func ReadRequestFrame(r io.Reader, buf []byte) (op uint16, payload []byte, err error) {
	return readFrame(r, buf, 2)
}

// ReadServerFrame reads one server-to-client frame into the caller's
// scratch buffer buf, returning the message kind and payload, on the
// same terms as ReadRequestFrame. Callers that hand a payload to
// something outliving the next read (the client's reply cookies decode
// lazily) must copy it first.
func ReadServerFrame(r io.Reader, buf []byte) (kind byte, payload []byte, err error) {
	tag, payload, err := readFrame(r, buf, 1)
	return byte(tag), payload, err
}

// readFrame reads a frame header, a big-endian tag of tagLen bytes (the
// opcode or kind) and a u32 payload length, into buf, and then the
// payload over it.
func readFrame(r io.Reader, buf []byte, tagLen int) (tag uint16, payload []byte, err error) {
	if cap(buf) < tagLen+4 {
		buf = make([]byte, tagLen+4)
	}
	hdr := buf[:tagLen+4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	for _, b := range hdr[:tagLen] {
		tag = tag<<8 | uint16(b)
	}
	n := binary.BigEndian.Uint32(hdr[tagLen:])
	if n > 64<<20 {
		return 0, nil, fmt.Errorf("xproto: oversized frame (%d bytes)", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}
