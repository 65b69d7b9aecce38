// Package codec holds the byte primitives shared by the hand-framed
// checkpoint payloads of the thermal grid, the power grid and the chip
// simulator: uvarint integers and lengths, little-endian float64 bits, and
// a decoding cursor that validates as it reads.
//
// Decoding follows the validate-then-apply discipline of every payload
// codec: a Reader only hands out values, so a caller reads and checks the
// whole payload before it touches its receiver. A length prefix is checked
// against the bytes left before anything is allocated, so a corrupt or
// crafted length cannot make a decoder allocate more than its input.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloat appends the bits of v as 8 little-endian bytes.
func AppendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendFloats appends len(vs) as a uvarint, then every value.
func AppendFloats(buf []byte, vs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = AppendFloat(buf, v)
	}
	return buf
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader decodes a payload front to back. The first failure sticks: later
// reads return zero values, and Err or Close reports that failure, so a
// decoder can read every field and check once.
type Reader struct {
	rest []byte
	err  error
	ctx  string
}

// NewReader starts decoding data. Errors are prefixed with ctx, e.g.
// "thermal: restore".
func NewReader(data []byte, ctx string) *Reader { return &Reader{rest: data, ctx: ctx} }

// Fail records a validation failure found by the caller, unless an earlier
// one stuck.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.ctx, fmt.Sprintf(format, args...))
	}
}

// Err reports the first failure.
func (r *Reader) Err() error { return r.err }

// Close reports the first failure, or an error if bytes remain unread.
func (r *Reader) Close() error {
	if r.err == nil && len(r.rest) != 0 {
		r.Fail("%d trailing bytes", len(r.rest))
	}
	return r.err
}

// Magic consumes one byte and fails unless it is want.
func (r *Reader) Magic(want byte) {
	if r.err != nil {
		return
	}
	if len(r.rest) == 0 || r.rest[0] != want {
		r.Fail("bad magic")
		return
	}
	r.rest = r.rest[1:]
}

// Bool reads a byte written by AppendBool.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.rest) == 0 {
		r.Fail("truncated payload")
		return false
	}
	b := r.rest[0]
	r.rest = r.rest[1:]
	if b > 1 {
		r.Fail("flag byte %d is not 0 or 1", b)
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.Fail("truncated payload")
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Int reads an unsigned varint that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.rest)
	if n <= 0 {
		r.Fail("truncated payload")
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Len reads a length prefix of items that take at least minSize bytes
// each, failing when the bytes left cannot hold that many.
func (r *Reader) Len(minSize int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.rest)/minSize) {
		r.Fail("length %d overruns the %d bytes left", n, len(r.rest))
		return 0
	}
	return int(n)
}

// Bytes reads n raw bytes. The result aliases the payload.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.rest) {
		r.Fail("truncated payload")
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

// RawFloat reads a float64 of any value, NaN and infinities included.
func (r *Reader) RawFloat() float64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Float reads a float64 and fails unless it is finite.
func (r *Reader) Float() float64 {
	v := r.RawFloat()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail("value %g not finite", v)
		return 0
	}
	return v
}

// Floats reads a slice written by AppendFloats whose length must be want,
// failing on any non-finite value.
func (r *Reader) Floats(want int) []float64 {
	n := r.Len(8)
	if r.err != nil {
		return nil
	}
	if n != want {
		r.Fail("%d values, want %d", n, want)
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.Float()
	}
	if r.err != nil {
		return nil
	}
	return vs
}
