// Package wirebin provides a minimal append-style binary codec for the
// persistent artifact store's wire structs.
//
// The artifact wire forms (ir.FuncWire, ssa.InfoWire, cond.NodeWire) are
// flat records of varints, strings, and int32 slices. encoding/gob
// handles them correctly but pays for generality twice on every decode:
// reflective struct walking (decodeStruct/decodeArrayHelper dominate
// warm-restart profiles) and per-field allocation. A hand-rolled
// length-prefixed layout decodes the same data with a linear buffer scan
// and no reflection, which on the bench subject cuts artifact decode time
// by several-fold — the difference between a warm restart beating a cold
// build and losing to it.
//
// Encoding conventions:
//   - ints and int32s are zig-zag varints (negative sentinels like -1 stay
//     one byte);
//   - strings and slices carry a uvarint length prefix;
//   - enums (uint8 kinds/ops/roles) are single raw bytes;
//   - there is no embedded type information — readers must consume fields
//     in exactly the order writers appended them, and callers version the
//     overall stream.
//
// Readers are sticky-error: after the first malformed field every
// subsequent read returns a zero value, and Err reports the failure.
// Length prefixes are validated against the remaining input before any
// allocation, so corrupt or truncated data fails cleanly instead of
// attempting a huge allocation.
package wirebin

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates an encoded stream in B.
type Writer struct {
	B []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.B = binary.AppendUvarint(w.B, v) }

// Varint appends a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) { w.B = binary.AppendVarint(w.B, v) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// I32 appends an int32 as a signed varint.
func (w *Writer) I32(v int32) { w.Varint(int64(v)) }

// U8 appends one raw byte (enum kinds, ops, roles).
func (w *Writer) U8(v uint8) { w.B = append(w.B, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.B = append(w.B, 1)
	} else {
		w.B = append(w.B, 0)
	}
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.B = append(w.B, s...)
}

// I32s appends a length-prefixed []int32.
func (w *Writer) I32s(v []int32) {
	w.Uvarint(uint64(len(v)))
	for _, x := range v {
		w.I32(x)
	}
}

// Strs appends a length-prefixed []string.
func (w *Writer) Strs(v []string) {
	w.Uvarint(uint64(len(v)))
	for _, s := range v {
		w.Str(s)
	}
}

// Reader consumes a stream produced by Writer. The zero Reader over a byte
// slice is ready to use; construct with NewReader.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The Reader does not copy b; strings
// are copied out as they are read, so b may be recycled afterwards.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the number of unconsumed bytes.
func (r *Reader) Rest() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wirebin: offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// I32 reads an int32.
func (r *Reader) I32() int32 {
	v := r.Varint()
	if int64(int32(v)) != v {
		r.fail("varint %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// U8 reads one raw byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("unexpected end of input")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Len reads a length prefix and validates it against the remaining input:
// each element of the encoded collection occupies at least one byte, so a
// length exceeding Rest can only be corruption, and rejecting it here
// keeps a flipped bit from turning into a multi-gigabyte allocation.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off) {
		r.fail("length %d exceeds %d remaining bytes", v, len(r.b)-r.off)
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// I32s reads a length-prefixed []int32, returning nil for length zero.
func (r *Reader) I32s() []int32 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.I32()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Strs reads a length-prefixed []string, returning nil for length zero.
func (r *Reader) Strs() []string {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	if r.err != nil {
		return nil
	}
	return out
}
