package colstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
)

// F64Column stores float64 values. It keeps a running min/max next to the
// values, updated on every append path with MinMax's fold, so the table
// extent is O(1) however large the column grows.
type F64Column struct {
	vals   []float64
	lo, hi float64 // running MinMax fold over vals; meaningless when empty
}

// NewF64Column wraps an existing slice (no copy).
func NewF64Column(vals []float64) *F64Column {
	c := &F64Column{vals: vals}
	c.lo, c.hi, _ = c.MinMax()
	return c
}

// DType implements Column.
func (c *F64Column) DType() DType { return F64 }

// Len implements Column.
func (c *F64Column) Len() int { return len(c.vals) }

// Value implements Column.
func (c *F64Column) Value(i int) float64 { return c.vals[i] }

// Values exposes the backing slice for vectorised scans.
func (c *F64Column) Values() []float64 { return c.vals }

// Append adds values.
func (c *F64Column) Append(vs ...float64) {
	if len(vs) == 0 {
		return
	}
	if len(c.vals) == 0 {
		c.lo, c.hi = vs[0], vs[0]
	}
	c.lo, c.hi = foldMinMax(c.lo, c.hi, vs)
	c.vals = append(c.vals, vs...)
}

// AppendValue implements Column. Like every append path it folds the
// value into the running min/max exactly as MinMax does: the first value
// seeds both ends (a NaN seed therefore sticks), later values fold
// through foldMinMax's strict compares.
func (c *F64Column) AppendValue(v float64) {
	if len(c.vals) == 0 {
		c.lo, c.hi = v, v
	}
	if v < c.lo {
		c.lo = v
	}
	if v > c.hi {
		c.hi = v
	}
	c.vals = append(c.vals, v)
}

// AppendText implements Column.
func (c *F64Column) AppendText(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("f64 column: %w", err)
	}
	c.AppendValue(v)
	return nil
}

// MinMax implements Column: one fold over every stored value, seeded by
// the first.
func (c *F64Column) MinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := foldMinMax(c.vals[0], c.vals[0], c.vals[1:])
	return lo, hi, true
}

// foldMinMax folds vs into (lo, hi) with strict compares: NaN never wins
// and a -0/+0 tie keeps the earlier value.
func foldMinMax(lo, hi float64, vs []float64) (float64, float64) {
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// RunningMinMax returns MinMax's result in O(1) from the running fold
// the append paths maintain.
func (c *F64Column) RunningMinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	return c.lo, c.hi, true
}

// Bytes implements Column.
func (c *F64Column) Bytes() int { return 8 * len(c.vals) }

// Reset implements Column.
func (c *F64Column) Reset() {
	c.vals = c.vals[:0]
	c.lo, c.hi = 0, 0
}

// WriteBinary implements Column.
func (c *F64Column) WriteBinary(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [8]byte
	var n int64
	for _, v := range c.vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		m, err := bw.Write(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// AppendBinary implements Column.
func (c *F64Column) AppendBinary(r io.Reader, n int) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [8]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("f64 column: short read at %d/%d: %w", i, n, err)
		}
		c.AppendValue(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
	}
	return nil
}

// I64Column stores int64 values.
type I64Column struct{ vals []int64 }

// NewI64Column wraps an existing slice (no copy).
func NewI64Column(vals []int64) *I64Column { return &I64Column{vals: vals} }

// DType implements Column.
func (c *I64Column) DType() DType { return I64 }

// Len implements Column.
func (c *I64Column) Len() int { return len(c.vals) }

// Value implements Column.
func (c *I64Column) Value(i int) float64 { return float64(c.vals[i]) }

// Values exposes the backing slice for vectorised scans.
func (c *I64Column) Values() []int64 { return c.vals }

// Append adds values.
func (c *I64Column) Append(vs ...int64) { c.vals = append(c.vals, vs...) }

// AppendValue implements Column.
func (c *I64Column) AppendValue(v float64) { c.vals = append(c.vals, int64(v)) }

// AppendText implements Column.
func (c *I64Column) AppendText(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("i64 column: %w", err)
	}
	c.vals = append(c.vals, v)
	return nil
}

// MinMax implements Column.
func (c *I64Column) MinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(lo), float64(hi), true
}

// Bytes implements Column.
func (c *I64Column) Bytes() int { return 8 * len(c.vals) }

// Reset implements Column.
func (c *I64Column) Reset() { c.vals = c.vals[:0] }

// WriteBinary implements Column.
func (c *I64Column) WriteBinary(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [8]byte
	var n int64
	for _, v := range c.vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		m, err := bw.Write(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// AppendBinary implements Column.
func (c *I64Column) AppendBinary(r io.Reader, n int) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [8]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("i64 column: short read at %d/%d: %w", i, n, err)
		}
		c.vals = append(c.vals, int64(binary.LittleEndian.Uint64(buf[:])))
	}
	return nil
}

// I32Column stores int32 values (LAS raw coordinates, scan angles).
type I32Column struct{ vals []int32 }

// NewI32Column wraps an existing slice (no copy).
func NewI32Column(vals []int32) *I32Column { return &I32Column{vals: vals} }

// DType implements Column.
func (c *I32Column) DType() DType { return I32 }

// Len implements Column.
func (c *I32Column) Len() int { return len(c.vals) }

// Value implements Column.
func (c *I32Column) Value(i int) float64 { return float64(c.vals[i]) }

// Values exposes the backing slice for vectorised scans.
func (c *I32Column) Values() []int32 { return c.vals }

// Append adds values.
func (c *I32Column) Append(vs ...int32) { c.vals = append(c.vals, vs...) }

// AppendValue implements Column.
func (c *I32Column) AppendValue(v float64) { c.vals = append(c.vals, int32(v)) }

// AppendText implements Column.
func (c *I32Column) AppendText(s string) error {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return fmt.Errorf("i32 column: %w", err)
	}
	c.vals = append(c.vals, int32(v))
	return nil
}

// MinMax implements Column.
func (c *I32Column) MinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(lo), float64(hi), true
}

// Bytes implements Column.
func (c *I32Column) Bytes() int { return 4 * len(c.vals) }

// Reset implements Column.
func (c *I32Column) Reset() { c.vals = c.vals[:0] }

// WriteBinary implements Column.
func (c *I32Column) WriteBinary(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [4]byte
	var n int64
	for _, v := range c.vals {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		m, err := bw.Write(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// AppendBinary implements Column.
func (c *I32Column) AppendBinary(r io.Reader, n int) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [4]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("i32 column: short read at %d/%d: %w", i, n, err)
		}
		c.vals = append(c.vals, int32(binary.LittleEndian.Uint32(buf[:])))
	}
	return nil
}

// U16Column stores uint16 values (intensity, point source id, RGB).
type U16Column struct{ vals []uint16 }

// NewU16Column wraps an existing slice (no copy).
func NewU16Column(vals []uint16) *U16Column { return &U16Column{vals: vals} }

// DType implements Column.
func (c *U16Column) DType() DType { return U16 }

// Len implements Column.
func (c *U16Column) Len() int { return len(c.vals) }

// Value implements Column.
func (c *U16Column) Value(i int) float64 { return float64(c.vals[i]) }

// Values exposes the backing slice for vectorised scans.
func (c *U16Column) Values() []uint16 { return c.vals }

// Append adds values.
func (c *U16Column) Append(vs ...uint16) { c.vals = append(c.vals, vs...) }

// AppendValue implements Column.
func (c *U16Column) AppendValue(v float64) { c.vals = append(c.vals, uint16(v)) }

// AppendText implements Column.
func (c *U16Column) AppendText(s string) error {
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return fmt.Errorf("u16 column: %w", err)
	}
	c.vals = append(c.vals, uint16(v))
	return nil
}

// MinMax implements Column.
func (c *U16Column) MinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(lo), float64(hi), true
}

// Bytes implements Column.
func (c *U16Column) Bytes() int { return 2 * len(c.vals) }

// Reset implements Column.
func (c *U16Column) Reset() { c.vals = c.vals[:0] }

// WriteBinary implements Column.
func (c *U16Column) WriteBinary(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [2]byte
	var n int64
	for _, v := range c.vals {
		binary.LittleEndian.PutUint16(buf[:], v)
		m, err := bw.Write(buf[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// AppendBinary implements Column.
func (c *U16Column) AppendBinary(r io.Reader, n int) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var buf [2]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("u16 column: short read at %d/%d: %w", i, n, err)
		}
		c.vals = append(c.vals, binary.LittleEndian.Uint16(buf[:]))
	}
	return nil
}

// U8Column stores uint8 values (classification, returns, flags).
type U8Column struct{ vals []uint8 }

// NewU8Column wraps an existing slice (no copy).
func NewU8Column(vals []uint8) *U8Column { return &U8Column{vals: vals} }

// DType implements Column.
func (c *U8Column) DType() DType { return U8 }

// Len implements Column.
func (c *U8Column) Len() int { return len(c.vals) }

// Value implements Column.
func (c *U8Column) Value(i int) float64 { return float64(c.vals[i]) }

// Values exposes the backing slice for vectorised scans.
func (c *U8Column) Values() []uint8 { return c.vals }

// Append adds values.
func (c *U8Column) Append(vs ...uint8) { c.vals = append(c.vals, vs...) }

// AppendValue implements Column.
func (c *U8Column) AppendValue(v float64) { c.vals = append(c.vals, uint8(v)) }

// AppendText implements Column.
func (c *U8Column) AppendText(s string) error {
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return fmt.Errorf("u8 column: %w", err)
	}
	c.vals = append(c.vals, uint8(v))
	return nil
}

// MinMax implements Column.
func (c *U8Column) MinMax() (float64, float64, bool) {
	if len(c.vals) == 0 {
		return 0, 0, false
	}
	lo, hi := c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(lo), float64(hi), true
}

// Bytes implements Column.
func (c *U8Column) Bytes() int { return len(c.vals) }

// Reset implements Column.
func (c *U8Column) Reset() { c.vals = c.vals[:0] }

// WriteBinary implements Column.
func (c *U8Column) WriteBinary(w io.Writer) (int64, error) {
	n, err := w.Write(c.vals)
	return int64(n), err
}

// AppendBinary implements Column.
func (c *U8Column) AppendBinary(r io.Reader, n int) error {
	start := len(c.vals)
	c.vals = append(c.vals, make([]uint8, n)...)
	if _, err := io.ReadFull(r, c.vals[start:]); err != nil {
		c.vals = c.vals[:start]
		return fmt.Errorf("u8 column: short read: %w", err)
	}
	return nil
}
