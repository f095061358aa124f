// Package sparse implements the compressed-sparse-row matrix substrate
// used by the network-alignment iterations.
//
// The SC 2012 implementation keeps every matrix over the nonzero
// pattern of the overlap matrix S (S itself, the Lagrange multipliers
// U, the BP message matrix S^(k), the bound matrix F, and the row
// matching indicators S_L) on one fixed CSR pattern: "All non-zero
// patterns and structures remain fixed throughout iterations." Because
// S and U are structurally symmetric with the same structure, the
// paper realizes transposes by permuting the value array with a
// precomputed permutation instead of building a structural transpose;
// TransposePerm reproduces that trick. Sometimes the permutation array
// is used to pull elements from the transposed position directly with
// no intermediate write — GatherPerm supports that usage.
//
// All mutating kernels have serial semantics and are parallelized by
// the callers through internal/parallel range loops over the nonzero
// index space; the kernels in this package therefore expose [lo,hi)
// half-open nonzero ranges where profitable.
package sparse

import (
	"fmt"
	"sort"
)

// Triplet is one (row, col, value) entry used to assemble a CSR matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a sparse matrix in compressed sparse row format. Column
// indices within each row are strictly increasing. The pattern (Ptr,
// Col) is immutable after construction; Val may be mutated freely,
// which is how the alignment iterations reuse one pattern for many
// matrices.
type CSR struct {
	NumRows, NumCols int
	Ptr              []int     // length NumRows+1
	Col              []int     // length nnz
	Val              []float64 // length nnz
}

// NewFromTriplets assembles a CSR matrix, summing duplicate entries.
func NewFromTriplets(rows, cols int, entries []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimension %dx%d", rows, cols)
	}
	for _, t := range entries {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := append([]Triplet(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	// Merge duplicates.
	merged := sorted[:0]
	for _, t := range sorted {
		if n := len(merged); n > 0 && merged[n-1].Row == t.Row && merged[n-1].Col == t.Col {
			merged[n-1].Val += t.Val
			continue
		}
		merged = append(merged, t)
	}
	m := &CSR{
		NumRows: rows,
		NumCols: cols,
		Ptr:     make([]int, rows+1),
		Col:     make([]int, len(merged)),
		Val:     make([]float64, len(merged)),
	}
	for _, t := range merged {
		m.Ptr[t.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.Ptr[r+1] += m.Ptr[r]
	}
	for k, t := range merged {
		m.Col[k] = t.Col
		m.Val[k] = t.Val
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// RowRange returns the half-open nonzero index range [lo,hi) of row r.
func (m *CSR) RowRange(r int) (lo, hi int) { return m.Ptr[r], m.Ptr[r+1] }

// RowOf returns the row index owning nonzero k, by binary search on
// the row pointers. O(log rows); use only off the hot path.
func (m *CSR) RowOf(k int) int {
	return sort.Search(m.NumRows, func(r int) bool { return m.Ptr[r+1] > k })
}

// Find returns the nonzero index of entry (r, c) and whether it exists.
func (m *CSR) Find(r, c int) (int, bool) {
	lo, hi := m.RowRange(r)
	cols := m.Col[lo:hi]
	i := sort.SearchInts(cols, c)
	if i < len(cols) && cols[i] == c {
		return lo + i, true
	}
	return -1, false
}

// At returns the value of entry (r, c), zero if not stored.
func (m *CSR) At(r, c int) float64 {
	if k, ok := m.Find(r, c); ok {
		return m.Val[k]
	}
	return 0
}

// CloneValues returns a matrix sharing this matrix's pattern (Ptr and
// Col are aliased, by design) with an independent copy of the values.
func (m *CSR) CloneValues() *CSR {
	return &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		Ptr:     m.Ptr,
		Col:     m.Col,
		Val:     append([]float64(nil), m.Val...),
	}
}

// ZeroLike returns a matrix sharing this matrix's pattern with an
// all-zero value array.
func (m *CSR) ZeroLike() *CSR {
	return &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		Ptr:     m.Ptr,
		Col:     m.Col,
		Val:     make([]float64, len(m.Val)),
	}
}

// Validate checks CSR invariants: pointer monotonicity, in-range and
// strictly increasing column indices per row.
func (m *CSR) Validate() error {
	if len(m.Ptr) != m.NumRows+1 {
		return fmt.Errorf("sparse: ptr length %d != rows+1 = %d", len(m.Ptr), m.NumRows+1)
	}
	if m.Ptr[0] != 0 || m.Ptr[m.NumRows] != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("sparse: inconsistent array lengths")
	}
	for r := 0; r < m.NumRows; r++ {
		if m.Ptr[r] > m.Ptr[r+1] {
			return fmt.Errorf("sparse: row pointer decreases at row %d", r)
		}
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			if m.Col[k] < 0 || m.Col[k] >= m.NumCols {
				return fmt.Errorf("sparse: column %d out of range in row %d", m.Col[k], r)
			}
			if k > m.Ptr[r] && m.Col[k-1] >= m.Col[k] {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", r)
			}
		}
	}
	return nil
}

// StructurallySymmetric reports whether the matrix is square and for
// every stored (i,j) the entry (j,i) is also stored.
func (m *CSR) StructurallySymmetric() bool {
	if m.NumRows != m.NumCols {
		return false
	}
	for r := 0; r < m.NumRows; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			if _, ok := m.Find(m.Col[k], r); !ok {
				return false
			}
		}
	}
	return true
}

var errAsymmetric = fmt.Errorf("sparse: transpose permutation requires a structurally symmetric matrix")

// TransposePerm computes, for a structurally symmetric matrix, the
// permutation perm with perm[k] = index of entry (j,i) when k is the
// index of entry (i,j). Permuting the value array by perm realizes the
// transpose without touching the pattern — the paper's trick: "we just
// permute the values array according to the permutation", computed
// once because the structure never changes.
//
// It runs in O(nnz) with one cursor per row and no search: walking the
// rows in ascending order meets the transposes in row c in ascending
// column order (columns are strictly increasing, which Validate
// enforces), so the transpose of (r,c) must be the next unclaimed
// entry of row c. Any other entry there means the pattern is not
// symmetric.
func (m *CSR) TransposePerm() ([]int, error) {
	if m.NumRows != m.NumCols {
		return nil, errAsymmetric
	}
	next := append([]int(nil), m.Ptr[:m.NumRows]...)
	perm := make([]int, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			c := m.Col[k]
			kt := next[c]
			if kt == m.Ptr[c+1] || m.Col[kt] != r {
				return nil, errAsymmetric
			}
			perm[k] = kt
			next[c]++
		}
	}
	return perm, nil
}

// GatherPerm writes dst[k] = src[perm[k]] for k in [lo,hi). With perm
// from TransposePerm this reads transposed values "from appropriate
// memory locations without any intermediate write".
func GatherPerm(dst, src []float64, perm []int, lo, hi int) {
	for k := lo; k < hi; k++ {
		dst[k] = src[perm[k]]
	}
}

// RowSumsRange accumulates the row sums of rows [rlo,rhi) into dst.
// dst must have length NumRows; entries outside the range are
// untouched, so disjoint ranges may run concurrently.
func (m *CSR) RowSumsRange(dst []float64, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		s := 0.0
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			s += m.Val[k]
		}
		dst[r] = s
	}
}

// ScaleRowsRange multiplies each row r in [rlo,rhi) by scale[r]
// (A = diag(scale)·A restricted to the row range).
func (m *CSR) ScaleRowsRange(scale []float64, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		s := scale[r]
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			m.Val[k] *= s
		}
	}
}

// Clamp bounds every value in [lo,hi) of vals into [min,max]; it is
// the vectorized bound_{l,u} from the paper's Table I.
func Clamp(vals []float64, min, max float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		v := vals[k]
		if v < min {
			vals[k] = min
		} else if v > max {
			vals[k] = max
		}
	}
}

// Bound returns bound_{l,u}(x) from the paper's Table I.
func Bound(x, l, u float64) float64 {
	if x <= l {
		return l
	}
	if x >= u {
		return u
	}
	return x
}

// MulVecRange computes dst[r] = Σ_k val[k]·x[col[k]] for rows in
// [rlo,rhi) (sparse matrix–vector product restricted to a row range).
func (m *CSR) MulVecRange(dst, x []float64, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		s := 0.0
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			s += m.Val[k] * x[m.Col[k]]
		}
		dst[r] = s
	}
}

// QuadFormRange computes Σ over nonzeros of rows [rlo,rhi) of
// x[row]·val·y[col]; summing over all rows yields xᵀ·A·y. The caller
// combines per-range partial sums.
func (m *CSR) QuadFormRange(x, y []float64, rlo, rhi int) float64 {
	s := 0.0
	for r := rlo; r < rhi; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		rowSum := 0.0
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			rowSum += m.Val[k] * y[m.Col[k]]
		}
		s += xr * rowSum
	}
	return s
}

// UpperMask returns, for a square matrix, a boolean per nonzero that
// is true when the entry lies strictly above the diagonal. Combined
// with the transpose permutation this implements the triu/tril masked
// updates of Klau's multiplier step without forming new matrices.
func (m *CSR) UpperMask() []bool {
	mask := make([]bool, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			mask[k] = m.Col[k] > r
		}
	}
	return mask
}

// RowIndex returns, for each nonzero k, its row index. The alignment
// kernels iterate over the nonzero space [0,nnz) with dynamic
// scheduling; this array gives O(1) row lookup inside those loops.
func (m *CSR) RowIndex() []int {
	rows := make([]int, m.NNZ())
	for r := 0; r < m.NumRows; r++ {
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			rows[k] = r
		}
	}
	return rows
}

// Dense returns the dense form of the matrix; for tests and debugging
// on small instances only.
func (m *CSR) Dense() [][]float64 {
	d := make([][]float64, m.NumRows)
	for r := range d {
		d[r] = make([]float64, m.NumCols)
		for k := m.Ptr[r]; k < m.Ptr[r+1]; k++ {
			d[r][m.Col[k]] = m.Val[k]
		}
	}
	return d
}
