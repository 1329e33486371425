package rmq

// FischerHeun implements the block-decomposition RMQ of Fischer & Heun
// (SICOMP 40(2), 2011), the structure the paper cites in §4(3).
//
// The array is cut into blocks of b ≈ (log2 n)/4 elements. Queries inside a
// block are answered from a lookup table indexed by the block's Cartesian
// tree, encoded as a ballot sequence of 2b bits; there are fewer than 4^b
// distinct trees, so the tables are small and shared between blocks of equal
// shape. Queries spanning blocks decompose into an in-block suffix, a run of
// whole blocks answered by a sparse table over block minima, and an in-block
// prefix. Every query costs O(1); the auxiliary space is o(n log n), the
// point of the construction.
type FischerHeun struct {
	a         []int64
	blockSize int
	// blockSig[k] is the Cartesian-tree signature of block k.
	blockSig []uint32
	// inBlock[sig] is a table T where T[i*b+j] is the argmin offset for the
	// in-block range [i, j]; built lazily per distinct signature.
	inBlock map[uint32][]int8
	// blockMinPos[k] is the absolute position of block k's minimum.
	blockMinPos []int32
	// summary answers RMQ over the block-minimum array.
	summary *Sparse
}

// NewFischerHeun preprocesses the array. The block size may be forced with
// blockSize > 0 (used by tests and ablations); pass 0 for the canonical
// (log2 n)/4 choice.
func NewFischerHeun(a []int64, blockSize int) *FischerHeun {
	n := len(a)
	b := blockSize
	if b <= 0 {
		b = 1
		for v := n; v > 1; v >>= 1 {
			b++
		}
		b /= 4
		if b < 1 {
			b = 1
		}
	}
	if b > 15 {
		b = 15 // the ballot signature occupies 2b bits of a uint32
	}
	f := &FischerHeun{a: a, blockSize: b, inBlock: make(map[uint32][]int8)}
	if n == 0 {
		f.summary = NewSparse(nil)
		return f
	}
	nBlocks := (n + b - 1) / b
	f.blockSig = make([]uint32, nBlocks)
	f.blockMinPos = make([]int32, nBlocks)
	mins := make([]int64, nBlocks)
	for k := 0; k < nBlocks; k++ {
		lo := k * b
		hi := lo + b
		if hi > n {
			hi = n
		}
		block := a[lo:hi]
		sig := cartesianSignature(block)
		f.blockSig[k] = sig
		if _, ok := f.inBlock[sig]; !ok {
			f.inBlock[sig] = buildInBlockTable(block, b)
		}
		best := 0
		for i := 1; i < len(block); i++ {
			if block[i] < block[best] {
				best = i
			}
		}
		f.blockMinPos[k] = int32(lo + best)
		mins[k] = block[best]
	}
	f.summary = NewSparse(mins)
	return f
}

// cartesianSignature returns the ballot-sequence encoding of the block's
// Cartesian tree: simulate the left-to-right stack construction, emitting a
// 1-bit per push and a 0-bit per pop. Blocks with equal signatures answer
// every in-block RMQ at the same offset, which is what lets the lookup
// tables be shared.
func cartesianSignature(block []int64) uint32 {
	var sig uint32
	var stack []int64
	for _, v := range block {
		for len(stack) > 0 && stack[len(stack)-1] > v {
			stack = stack[:len(stack)-1]
			sig <<= 1 // pop: 0 bit
		}
		stack = append(stack, v)
		sig = sig<<1 | 1 // push: 1 bit
	}
	return sig
}

// buildInBlockTable precomputes argmin offsets for all in-block ranges of a
// representative block. Offsets are relative to the block start; ranges
// beyond the (possibly short, final) block reuse the last valid offset and
// are never queried.
func buildInBlockTable(block []int64, b int) []int8 {
	table := make([]int8, b*b)
	for i := 0; i < len(block); i++ {
		best := i
		for j := i; j < len(block); j++ {
			if block[j] < block[best] {
				best = j
			}
			table[i*b+j] = int8(best)
		}
	}
	return table
}

// Query answers RMQ(i, j) in O(1).
func (f *FischerHeun) Query(i, j int) int {
	checkBounds(len(f.a), i, j)
	b := f.blockSize
	bi, bj := i/b, j/b
	if bi == bj {
		return f.inBlockQuery(bi, i-bi*b, j-bi*b)
	}
	best := f.inBlockQuery(bi, i-bi*b, b-1) // suffix of the left block
	right := f.inBlockQuery(bj, 0, j-bj*b)  // prefix of the right block
	if f.a[right] < f.a[best] {
		best = right
	}
	if bi+1 <= bj-1 {
		mid := int(f.blockMinPos[f.summary.Query(bi+1, bj-1)])
		if f.a[mid] < f.a[best] || (f.a[mid] == f.a[best] && mid < best) {
			best = mid
		}
	}
	return best
}

func (f *FischerHeun) inBlockQuery(block, i, j int) int {
	b := f.blockSize
	lo := block * b
	// Clamp to the (possibly short) final block.
	maxOff := len(f.a) - lo - 1
	if j > maxOff {
		j = maxOff
	}
	off := f.inBlock[f.blockSig[block]][i*b+j]
	return lo + int(off)
}

// Words reports the auxiliary memory footprint.
func (f *FischerHeun) Words() int {
	w := len(f.blockSig)/2 + len(f.blockMinPos)/2
	for _, t := range f.inBlock {
		w += len(t) / 8 // int8 entries
	}
	if f.summary != nil {
		w += f.summary.Words()
	}
	return w
}
