package pram

// Parallel Boolean matrix algorithms. Transitive closure by repeated
// squaring is the canonical NC² algorithm and backs the paper's Example 3:
// reachability queries are Π-tractable, and the closure itself can even be
// (re)computed in parallel polylog time.

// BoolMatrix is a dense n×n Boolean matrix in row-major order.
type BoolMatrix struct {
	N     int
	Cells []bool
}

// NewBoolMatrix returns an n×n all-false matrix.
func NewBoolMatrix(n int) *BoolMatrix {
	return &BoolMatrix{N: n, Cells: make([]bool, n*n)}
}

// At reports the cell (i, j).
func (a *BoolMatrix) At(i, j int) bool { return a.Cells[i*a.N+j] }

// Set assigns the cell (i, j).
func (a *BoolMatrix) Set(i, j int, v bool) { a.Cells[i*a.N+j] = v }

// Clone returns a deep copy.
func (a *BoolMatrix) Clone() *BoolMatrix {
	c := NewBoolMatrix(a.N)
	copy(c.Cells, a.Cells)
	return c
}

// Equal reports whether two matrices have identical dimensions and cells.
func (a *BoolMatrix) Equal(b *BoolMatrix) bool {
	if a.N != b.N {
		return false
	}
	for i, v := range a.Cells {
		if v != b.Cells[i] {
			return false
		}
	}
	return true
}

// boolMatSquareOr computes a ∨ (a × a) on the machine: first one round with
// n³ processors producing all AND terms is folded into n² processors doing a
// ⌈log n⌉-round OR-reduction over k. Total: O(log n) rounds, O(n³) work —
// the standard CREW schedule for Boolean matrix product.
//
// Memory layout: cells [0, n²) hold the current matrix; cells [n², n²+n³)
// hold the partial products p[i][j][k].
func boolMatSquareOr(m *Machine, n int) {
	nn := n * n
	base := nn
	m.Grow(nn + nn*n)
	// Round 1: p[i][j][k] = a[i][k] AND a[k][j], n³ processors.
	m.MustStep(nn*n, func(c Ctx) {
		p := c.Proc()
		k := p % n
		j := (p / n) % n
		i := p / nn
		v := int64(0)
		if c.Load(i*n+k) != 0 && c.Load(k*n+j) != 0 {
			v = 1
		}
		c.Store(base+p, v)
	})
	// OR-reduce over k in ⌈log2 n⌉ rounds with n² processors, then fold the
	// reduced bit into the matrix (a ∨ a²).
	for width := n; width > 1; width = (width + 1) / 2 {
		half := (width + 1) / 2
		w := width
		m.MustStep(nn*half, func(c Ctx) {
			p := c.Proc()
			k := p % half
			ij := p / half
			lo := c.Load(base + ij*n + k)
			if k+half < w {
				if c.Load(base+ij*n+k+half) != 0 {
					lo = 1
				}
			}
			c.Store(base+ij*n+k, lo)
		})
	}
	m.MustStep(nn, func(c Ctx) {
		p := c.Proc()
		if c.Load(p) != 0 || c.Load(base+p*n) != 0 {
			c.Store(p, 1)
		} else {
			c.Store(p, 0)
		}
	})
}

// ceilLog2 returns ⌈log2(n)⌉ for n ≥ 1, and 0 for n ≤ 1.
func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// TransitiveClosure computes the reflexive-transitive closure of adj by
// ⌈log2 n⌉ repeated squarings, each O(log n) rounds: O(log² n) rounds total
// with O(n³) processors — the NC² schedule quoted by the paper for
// reachability preprocessing.
func TransitiveClosure(m *Machine, adj *BoolMatrix) *BoolMatrix {
	n := adj.N
	if n == 0 {
		return NewBoolMatrix(0)
	}
	nn := n * n
	m.Grow(nn)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := int64(0)
			if i == j || adj.At(i, j) {
				v = 1
			}
			m.Store(i*n+j, v)
		}
	}
	for s := 0; s < ceilLog2(n); s++ {
		boolMatSquareOr(m, n)
	}
	out := NewBoolMatrix(n)
	for i := 0; i < nn; i++ {
		out.Cells[i] = m.Load(i) != 0
	}
	return out
}

// WarshallClosure is the sequential O(n³) Floyd–Warshall baseline used to
// cross-check the PRAM schedule and to serve as the "preprocess in PTIME"
// reference implementation.
func WarshallClosure(adj *BoolMatrix) *BoolMatrix {
	n := adj.N
	out := adj.Clone()
	for i := 0; i < n; i++ {
		out.Set(i, i, true)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !out.At(i, k) {
				continue
			}
			rowK := out.Cells[k*n : k*n+n]
			rowI := out.Cells[i*n : i*n+n]
			for j, v := range rowK {
				if v {
					rowI[j] = true
				}
			}
		}
	}
	return out
}
