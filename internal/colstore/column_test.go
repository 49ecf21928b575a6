package colstore

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDTypeSizeAndString(t *testing.T) {
	cases := []struct {
		t    DType
		size int
		name string
	}{
		{F64, 8, "f64"}, {I64, 8, "i64"}, {I32, 4, "i32"},
		{U16, 2, "u16"}, {U8, 1, "u8"}, {Str, 4, "str"},
	}
	for _, c := range cases {
		if c.t.Size() != c.size || c.t.String() != c.name {
			t.Errorf("%v: size=%d name=%q", c.t, c.t.Size(), c.t.String())
		}
	}
	if DType(0).Size() != 0 || !strings.HasPrefix(DType(0).String(), "dtype(") {
		t.Error("zero dtype should be inert")
	}
}

func TestSchemaFieldIndexAndNewColumns(t *testing.T) {
	s := Schema{Fields: []Field{{"x", F64}, {"cls", U8}, {"name", Str}}}
	if s.FieldIndex("cls") != 1 || s.FieldIndex("nope") != -1 {
		t.Fatal("FieldIndex wrong")
	}
	cols := s.NewColumns()
	if len(cols) != 3 {
		t.Fatalf("NewColumns len = %d", len(cols))
	}
	if cols[0].DType() != F64 || cols[1].DType() != U8 || cols[2].DType() != Str {
		t.Fatal("column types wrong")
	}
}

func TestNewColumnPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewColumn should panic on unknown dtype")
		}
	}()
	NewColumn(DType(200))
}

func TestRangeHelpers(t *testing.T) {
	if (Range{3, 10}).Len() != 7 {
		t.Fatal("Range.Len wrong")
	}
	rs := []Range{{0, 5}, {5, 8}, {10, 12}, {11, 20}}
	merged := MergeRanges(rs)
	want := []Range{{0, 8}, {10, 20}}
	if len(merged) != 2 || merged[0] != want[0] || merged[1] != want[1] {
		t.Fatalf("merged = %v", merged)
	}
	if RangesLen(merged) != 18 {
		t.Fatalf("RangesLen = %d", RangesLen(merged))
	}
	if MergeRanges(nil) != nil {
		t.Fatal("merge nil should be nil")
	}
	if len(FullRange(0)) != 0 || FullRange(7)[0] != (Range{0, 7}) {
		t.Fatal("FullRange wrong")
	}
}

func TestF64ColumnBasics(t *testing.T) {
	c := &F64Column{}
	c.Append(3, 1, 2)
	c.AppendValue(-5)
	if c.Len() != 4 || c.Value(3) != -5 {
		t.Fatal("append/value wrong")
	}
	lo, hi, ok := c.MinMax()
	if !ok || lo != -5 || hi != 3 {
		t.Fatalf("minmax = %v %v %v", lo, hi, ok)
	}
	if c.Bytes() != 32 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
	if err := c.AppendText("2.5"); err != nil || c.Value(4) != 2.5 {
		t.Fatal("AppendText failed")
	}
	if err := c.AppendText("xyz"); err == nil {
		t.Fatal("bad text should error")
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset failed")
	}
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("empty minmax should be !ok")
	}
}

func TestIntColumnBasics(t *testing.T) {
	i64 := &I64Column{}
	i64.Append(5, -9)
	if lo, hi, _ := i64.MinMax(); lo != -9 || hi != 5 {
		t.Fatal("i64 minmax")
	}
	if err := i64.AppendText("12"); err != nil || i64.Values()[2] != 12 {
		t.Fatal("i64 text")
	}
	if err := i64.AppendText("1.5"); err == nil {
		t.Fatal("i64 bad text")
	}

	i32 := &I32Column{}
	i32.Append(7)
	i32.AppendValue(-3)
	if lo, hi, _ := i32.MinMax(); lo != -3 || hi != 7 {
		t.Fatal("i32 minmax")
	}
	if err := i32.AppendText("9999999999999"); err == nil {
		t.Fatal("i32 overflow text should error")
	}

	u16 := &U16Column{}
	u16.Append(9, 1)
	if lo, hi, _ := u16.MinMax(); lo != 1 || hi != 9 {
		t.Fatal("u16 minmax")
	}
	if err := u16.AppendText("-1"); err == nil {
		t.Fatal("u16 negative text should error")
	}

	u8 := &U8Column{}
	u8.Append(200)
	u8.AppendValue(3)
	if lo, hi, _ := u8.MinMax(); lo != 3 || hi != 200 {
		t.Fatal("u8 minmax")
	}
	if err := u8.AppendText("256"); err == nil {
		t.Fatal("u8 overflow text should error")
	}
	if u8.Bytes() != 2 || u16.Bytes() != 4 || i32.Bytes() != 8 {
		t.Fatal("Bytes wrong")
	}
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	cols := []Column{
		NewF64Column([]float64{1.5, -2.25, math.Pi}),
		NewI64Column([]int64{-1, 0, 1 << 40}),
		NewI32Column([]int32{-100, 0, 2_000_000}),
		NewU16Column([]uint16{0, 65535, 42}),
		NewU8Column([]uint8{0, 255, 7}),
	}
	for _, c := range cols {
		var buf bytes.Buffer
		n, err := c.WriteBinary(&buf)
		if err != nil {
			t.Fatalf("%v: write: %v", c.DType(), err)
		}
		if int(n) != c.Bytes() {
			t.Fatalf("%v: wrote %d bytes, want %d", c.DType(), n, c.Bytes())
		}
		fresh := NewColumn(c.DType())
		if err := fresh.AppendBinary(&buf, c.Len()); err != nil {
			t.Fatalf("%v: read: %v", c.DType(), err)
		}
		if fresh.Len() != c.Len() {
			t.Fatalf("%v: len %d, want %d", c.DType(), fresh.Len(), c.Len())
		}
		for i := 0; i < c.Len(); i++ {
			if fresh.Value(i) != c.Value(i) {
				t.Fatalf("%v: value %d = %v, want %v", c.DType(), i, fresh.Value(i), c.Value(i))
			}
		}
	}
}

func TestBinaryShortRead(t *testing.T) {
	c := &F64Column{}
	if err := c.AppendBinary(bytes.NewReader([]byte{1, 2, 3}), 1); err == nil {
		t.Fatal("short read should error")
	}
	if c.Len() != 0 {
		t.Fatal("failed append should not leave partial data visible via Len for f64")
	}
	u8 := &U8Column{}
	if err := u8.AppendBinary(bytes.NewReader([]byte{1, 2}), 5); err == nil {
		t.Fatal("u8 short read should error")
	}
	if u8.Len() != 0 {
		t.Fatal("u8 short read should roll back")
	}
}

func TestStrColumn(t *testing.T) {
	c := NewStrColumn()
	c.AppendString("motorway")
	c.AppendString("residential")
	c.AppendString("motorway")
	if c.Len() != 3 || c.DictSize() != 2 {
		t.Fatalf("len=%d dict=%d", c.Len(), c.DictSize())
	}
	if c.String(2) != "motorway" || c.String(1) != "residential" {
		t.Fatal("string lookup wrong")
	}
	code, ok := c.Code("motorway")
	if !ok || code != 0 {
		t.Fatalf("code = %d %v", code, ok)
	}
	if _, ok := c.Code("canal"); ok {
		t.Fatal("missing string should not resolve")
	}
	if c.Value(0) != 0 || c.Value(1) != 1 {
		t.Fatal("Value should expose codes")
	}
	lo, hi, ok := c.MinMax()
	if !ok || lo != 0 || hi != 1 {
		t.Fatal("minmax over codes wrong")
	}
	if err := c.AppendText("park"); err != nil || c.String(3) != "park" {
		t.Fatal("AppendText failed")
	}
	// Bytes counts codes + dictionary payload.
	want := 4*4 + len("motorway") + len("residential") + len("park")
	if c.Bytes() != want {
		t.Fatalf("bytes = %d, want %d", c.Bytes(), want)
	}
}

func TestStrColumnBinaryRoundTripWithRemap(t *testing.T) {
	src := NewStrColumn()
	for _, s := range []string{"a", "b", "a", "c"} {
		src.AppendString(s)
	}
	var buf bytes.Buffer
	if _, err := src.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// Destination already has a dictionary in a different order.
	dst := NewStrColumn()
	dst.AppendString("c")
	dst.AppendString("a")
	if err := dst.AppendBinary(&buf, src.Len()); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 6 {
		t.Fatalf("len = %d", dst.Len())
	}
	want := []string{"c", "a", "a", "b", "a", "c"}
	for i, w := range want {
		if dst.String(i) != w {
			t.Fatalf("row %d = %q, want %q", i, dst.String(i), w)
		}
	}
	// Codes for equal strings must be consistent.
	if dst.Codes()[1] != dst.Codes()[2] {
		t.Fatal("remap broke code identity")
	}
}

func TestStrColumnBinaryErrors(t *testing.T) {
	c := NewStrColumn()
	if err := c.AppendBinary(bytes.NewReader(nil), 1); err == nil {
		t.Fatal("empty reader should error")
	}
	// Corrupt: dictionary of 0 entries but codes reference entry 5.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // dict size 0
	buf.Write([]byte{5, 0, 0, 0}) // code 5
	if err := c.AppendBinary(&buf, 1); err == nil {
		t.Fatal("out-of-range code should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := Schema{Fields: []Field{{"x", F64}, {"n", I32}, {"cls", Str}}}
	cols := schema.NewColumns()
	cols[0].(*F64Column).Append(1.5, -2)
	cols[1].(*I32Column).Append(10, -20)
	cols[2].(*StrColumn).AppendString("road")
	cols[2].(*StrColumn).AppendString("river")

	var buf bytes.Buffer
	if err := WriteCSV(&buf, cols); err != nil {
		t.Fatal(err)
	}
	want := "1.5,10,road\n-2,-20,river\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
	fresh := schema.NewColumns()
	rows, err := AppendCSV(&buf, fresh)
	if err != nil || rows != 2 {
		t.Fatalf("AppendCSV rows=%d err=%v", rows, err)
	}
	if fresh[0].Value(1) != -2 || fresh[2].(*StrColumn).String(1) != "river" {
		t.Fatal("csv parse wrong")
	}
}

func TestCSVAllNumericTypes(t *testing.T) {
	cols := []Column{
		NewF64Column([]float64{0.25}),
		NewI64Column([]int64{-7}),
		NewI32Column([]int32{9}),
		NewU16Column([]uint16{300}),
		NewU8Column([]uint8{5}),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, cols); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "0.25,-7,9,300,5\n" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestCSVErrors(t *testing.T) {
	// Ragged table.
	cols := []Column{NewF64Column([]float64{1}), NewF64Column([]float64{1, 2})}
	if err := WriteCSV(&bytes.Buffer{}, cols); err == nil {
		t.Fatal("ragged table should error")
	}
	// Field count mismatch on read.
	fresh := []Column{&F64Column{}}
	if _, err := AppendCSV(strings.NewReader("1,2\n"), fresh); err == nil {
		t.Fatal("field count mismatch should error")
	}
	// Unparseable token.
	if _, err := AppendCSV(strings.NewReader("zzz\n"), []Column{&F64Column{}}); err == nil {
		t.Fatal("bad token should error")
	}
	// Empty input writes nothing.
	if err := WriteCSV(&bytes.Buffer{}, nil); err != nil {
		t.Fatal("empty table should be fine")
	}
	// Blank lines are skipped.
	n, err := AppendCSV(strings.NewReader("\n1\n\n2\n"), []Column{&F64Column{}})
	if err != nil || n != 2 {
		t.Fatalf("blank line handling: n=%d err=%v", n, err)
	}
}

// Property: binary round trip preserves float64 bit patterns (including
// negative zero and infinities).
func TestQuickF64BinaryRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		c := NewF64Column(vals)
		var buf bytes.Buffer
		if _, err := c.WriteBinary(&buf); err != nil {
			return false
		}
		fresh := &F64Column{}
		if err := fresh.AppendBinary(&buf, len(vals)); err != nil {
			return false
		}
		for i, v := range vals {
			got := fresh.Values()[i]
			if math.Float64bits(got) != math.Float64bits(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeRanges output is sorted, non-overlapping, and covers the
// same rows as the input.
func TestQuickMergeRanges(t *testing.T) {
	f := func(starts []uint8, lens []uint8) bool {
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		var rs []Range
		for i := 0; i < n; i++ {
			s := int(starts[i])
			rs = append(rs, Range{s, s + int(lens[i]%16)})
		}
		// Sort by start as the contract requires.
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0 && rs[j].Start < rs[j-1].Start; j-- {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			}
		}
		cover := map[int]bool{}
		for _, r := range rs {
			for k := r.Start; k < r.End; k++ {
				cover[k] = true
			}
		}
		merged := MergeRanges(append([]Range(nil), rs...))
		coverM := map[int]bool{}
		for i, r := range merged {
			if r.Start >= r.End && r.Len() > 0 {
				return false
			}
			if i > 0 && merged[i-1].End >= r.Start && r.Start != merged[i-1].End {
				// merged ranges must be disjoint and separated
				if merged[i-1].End > r.Start {
					return false
				}
			}
			for k := r.Start; k < r.End; k++ {
				coverM[k] = true
			}
		}
		if len(cover) != len(coverM) {
			return false
		}
		for k := range cover {
			if !coverM[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestF64RunningMinMax pins the O(1) running extremes to MinMax's fold,
// bit for bit, over random batches through every append path (Append,
// AppendValue, AppendText, AppendBinary, CSV) with NaN, ±Inf and -0 in
// the mix — including a NaN first value, which MinMax keeps as its seed —
// and across Reset.
func TestF64RunningMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	palette := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -7.25}
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return palette[rng.Intn(len(palette))]
		}
		return rng.NormFloat64() * 100
	}
	check := func(label string, c *F64Column) {
		t.Helper()
		lo, hi, ok := c.RunningMinMax()
		wlo, whi, wok := c.MinMax()
		if ok != wok || math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
			t.Fatalf("%s: running (%v, %v, %v), MinMax (%v, %v, %v)", label, lo, hi, ok, wlo, whi, wok)
		}
	}
	for trial := 0; trial < 200; trial++ {
		c := &F64Column{}
		if trial%4 == 0 {
			c = NewF64Column([]float64{draw(), draw()})
		}
		check("fresh", c)
		for step := 0; step < 12; step++ {
			batch := make([]float64, rng.Intn(5))
			for i := range batch {
				batch[i] = draw()
			}
			switch rng.Intn(5) {
			case 0:
				c.Append(batch...)
			case 1:
				for _, v := range batch {
					c.AppendValue(v)
				}
			case 2:
				for _, v := range batch {
					if err := c.AppendText(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				var buf bytes.Buffer
				if _, err := NewF64Column(batch).WriteBinary(&buf); err != nil {
					t.Fatal(err)
				}
				if err := c.AppendBinary(&buf, len(batch)); err != nil {
					t.Fatal(err)
				}
			default:
				var sb strings.Builder
				for _, v := range batch {
					sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + "\n")
				}
				if _, err := AppendCSV(strings.NewReader(sb.String()), []Column{c}); err != nil {
					t.Fatal(err)
				}
			}
			check("append", c)
			if rng.Intn(10) == 0 {
				c.Reset()
				check("reset", c)
			}
		}
	}
}
