package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCSR(t testing.TB, rows, cols int, entries []Triplet) *CSR {
	t.Helper()
	m, err := NewFromTriplets(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func randomSymmetric(rng *rand.Rand, n int, density float64) []Triplet {
	var ts []Triplet
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				ts = append(ts, Triplet{i, j, v})
				if i != j {
					ts = append(ts, Triplet{j, i, 2 * v})
				}
			}
		}
	}
	return ts
}

func TestNewFromTripletsBasics(t *testing.T) {
	m := mustCSR(t, 3, 4, []Triplet{
		{0, 1, 2}, {0, 3, 5}, {1, 0, -1}, {2, 2, 7}, {0, 1, 3}, // duplicate (0,1)
	})
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (duplicates merged)", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5 (2+3 merged)", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Fatalf("At(1,0) = %g", got)
	}
	if got := m.At(2, 0); got != 0 {
		t.Fatalf("At(2,0) = %g, want 0", got)
	}
}

func TestNewFromTripletsErrors(t *testing.T) {
	if _, err := NewFromTriplets(-1, 2, nil); err == nil {
		t.Fatal("negative rows accepted")
	}
	if _, err := NewFromTriplets(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := NewFromTriplets(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Fatal("out-of-range col accepted")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := mustCSR(t, 0, 0, nil)
	if m.NNZ() != 0 {
		t.Fatal("empty matrix has nonzeros")
	}
	m2 := mustCSR(t, 3, 3, nil)
	sums := make([]float64, 3)
	m2.RowSumsRange(sums, 0, 3)
	for _, s := range sums {
		if s != 0 {
			t.Fatal("empty rows have nonzero sums")
		}
	}
}

func TestFindAndRowOf(t *testing.T) {
	m := mustCSR(t, 4, 4, []Triplet{{0, 0, 1}, {0, 2, 2}, {2, 1, 3}, {3, 3, 4}})
	if k, ok := m.Find(0, 2); !ok || m.Val[k] != 2 {
		t.Fatalf("Find(0,2) = %d,%v", k, ok)
	}
	if _, ok := m.Find(1, 1); ok {
		t.Fatal("Find found a missing entry")
	}
	for r := 0; r < 4; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			if m.RowOf(k) != r {
				t.Fatalf("RowOf(%d) = %d, want %d", k, m.RowOf(k), r)
			}
		}
	}
}

func TestCloneAndZeroLikeSharePattern(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 1, 5}, {1, 0, 6}})
	c := m.CloneValues()
	z := m.ZeroLike()
	c.Val[0] = 99
	z.Val[1] = -1
	if m.Val[0] == 99 || m.Val[1] == -1 {
		t.Fatal("clone values alias the original")
	}
	if &m.Col[0] != &c.Col[0] || &m.Ptr[0] != &z.Ptr[0] {
		t.Fatal("pattern should be shared")
	}
}

func TestTransposePerm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mustCSR(t, 8, 8, randomSymmetric(rng, 8, 0.4))
	perm, err := m.TransposePerm()
	if err != nil {
		t.Fatal(err)
	}
	vt := make([]float64, m.NNZ())
	GatherPerm(vt, m.Val, perm, 0, m.NNZ())
	// vt laid out on m's pattern must equal the true transpose.
	for r := 0; r < m.NumRows; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			want := m.At(m.Col[k], r)
			if vt[k] != want {
				t.Fatalf("transposed value at (%d,%d) = %g, want %g", r, m.Col[k], vt[k], want)
			}
		}
	}
	// The permutation must be an involution for a symmetric pattern.
	for k, p := range perm {
		if perm[p] != k {
			t.Fatalf("perm not involutive at %d", k)
		}
	}
}

func TestTransposePermRejectsAsymmetric(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 1, 1}})
	if _, err := m.TransposePerm(); err == nil {
		t.Fatal("asymmetric pattern accepted")
	}
	rect := mustCSR(t, 2, 3, []Triplet{{0, 1, 1}})
	if _, err := rect.TransposePerm(); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	if rect.StructurallySymmetric() {
		t.Fatal("rectangular matrix reported symmetric")
	}
}

// TestTransposePermMatchesSearch pins the cursor walk to the
// definition: perm[k] is the binary-searched position of (Col[k], r),
// and dropping any one entry of a symmetric pattern, on either side of
// the diagonal, gets the matrix rejected.
func TestTransposePermMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		ts := randomSymmetric(rng, n, rng.Float64())
		m := mustCSR(t, n, n, ts)
		perm, err := m.TransposePerm()
		if err != nil {
			t.Fatalf("trial %d: symmetric pattern rejected: %v", trial, err)
		}
		for r := 0; r < n; r++ {
			for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
				if kt, ok := m.Find(m.Col[k], r); !ok || perm[k] != kt {
					t.Fatalf("trial %d: perm[%d] = %d, search gives %d", trial, k, perm[k], kt)
				}
			}
		}
		if len(ts) == 0 {
			continue
		}
		drop := rng.Intn(len(ts))
		if ts[drop].Row == ts[drop].Col {
			continue // a diagonal entry is its own transpose
		}
		rest := append(append([]Triplet(nil), ts[:drop]...), ts[drop+1:]...)
		if _, err := mustCSR(t, n, n, rest).TransposePerm(); err == nil {
			t.Fatalf("trial %d: pattern missing the transpose of (%d,%d) accepted", trial, ts[drop].Col, ts[drop].Row)
		}
	}
}

func TestRowSumsAndScale(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, -4}, {2, 0, 10}})
	sums := make([]float64, 3)
	m.RowSumsRange(sums, 0, 3)
	want := []float64{3, -4, 10}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("row sum %d = %g, want %g", i, sums[i], want[i])
		}
	}
	m.ScaleRowsRange([]float64{2, 0, -1}, 0, 3)
	if m.At(0, 2) != 4 || m.At(1, 1) != 0 || m.At(2, 0) != -10 {
		t.Fatalf("scale wrong: %v", m.Val)
	}
}

func TestScaleRowsPartialRange(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}})
	m.ScaleRowsRange([]float64{5, 5, 5}, 1, 2)
	if m.At(0, 0) != 1 || m.At(1, 1) != 5 || m.At(2, 2) != 1 {
		t.Fatal("partial range scaled wrong rows")
	}
}

func TestClampAndBound(t *testing.T) {
	vals := []float64{-3, -0.2, 0, 0.7, 9}
	Clamp(vals, -0.5, 0.5, 0, len(vals))
	want := []float64{-0.5, -0.2, 0, 0.5, 0.5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("clamp[%d] = %g, want %g", i, vals[i], want[i])
		}
	}
	if Bound(-1, 0, 2) != 0 || Bound(3, 0, 2) != 2 || Bound(1, 0, 2) != 1 {
		t.Fatal("Bound wrong")
	}
}

func TestMulVec(t *testing.T) {
	m := mustCSR(t, 2, 3, []Triplet{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	x := []float64{1, 2, 3}
	dst := make([]float64, 2)
	m.MulVecRange(dst, x, 0, 2)
	if dst[0] != 7 || dst[1] != 6 {
		t.Fatalf("MulVec = %v", dst)
	}
}

func TestQuadForm(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{{0, 1, 2}, {1, 0, 2}, {1, 2, 5}, {2, 1, 5}})
	x := []float64{1, 1, 0}
	got := m.QuadFormRange(x, x, 0, 3)
	if got != 4 { // 2*x0*x1 twice
		t.Fatalf("QuadForm = %g, want 4", got)
	}
	y := []float64{0, 1, 1}
	got = m.QuadFormRange(x, y, 0, 3)
	// x'Ay = x0*A01*y1 + x1*A10*y0 + x1*A12*y2 = 2+0+5
	if got != 7 {
		t.Fatalf("QuadForm(x,y) = %g, want 7", got)
	}
}

func TestUpperMaskAndRowIndex(t *testing.T) {
	m := mustCSR(t, 3, 3, []Triplet{{0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {2, 0, 1}})
	mask := m.UpperMask()
	rows := m.RowIndex()
	for k := range mask {
		r, c := rows[k], m.Col[k]
		if mask[k] != (c > r) {
			t.Fatalf("mask[%d] wrong for (%d,%d)", k, r, c)
		}
	}
}

func TestDense(t *testing.T) {
	m := mustCSR(t, 2, 2, []Triplet{{0, 1, 3}, {1, 0, -2}})
	d := m.Dense()
	if d[0][0] != 0 || d[0][1] != 3 || d[1][0] != -2 || d[1][1] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

// Property: assembling random triplets and reading back through At
// agrees with a dense accumulation.
func TestQuickTripletRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%10 + 1
		cnt := int(mRaw) % 60
		rng := rand.New(rand.NewSource(seed))
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		ts := make([]Triplet, cnt)
		for i := range ts {
			r, c := rng.Intn(n), rng.Intn(n)
			v := float64(rng.Intn(9) - 4)
			ts[i] = Triplet{r, c, v}
			dense[r][c] += v
		}
		m, err := NewFromTriplets(n, n, ts)
		if err != nil || m.Validate() != nil {
			return false
		}
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if math.Abs(m.At(r, c)-dense[r][c]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: double transpose via the permutation is the identity, and
// single transpose matches the dense transpose.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%12 + 2
		rng := rand.New(rand.NewSource(seed))
		m, err := NewFromTriplets(n, n, randomSymmetric(rng, n, 0.3))
		if err != nil {
			return false
		}
		perm, err := m.TransposePerm()
		if err != nil {
			return false
		}
		once := make([]float64, m.NNZ())
		twice := make([]float64, m.NNZ())
		GatherPerm(once, m.Val, perm, 0, m.NNZ())
		GatherPerm(twice, once, perm, 0, m.NNZ())
		for k := range twice {
			if twice[k] != m.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTransposeGather(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewFromTriplets(400, 400, randomSymmetric(rng, 400, 0.05))
	if err != nil {
		b.Fatal(err)
	}
	perm, err := m.TransposePerm()
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, m.NNZ())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherPerm(dst, m.Val, perm, 0, m.NNZ())
	}
}
