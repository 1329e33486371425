package schemes

// The sorted key file — Π of point selection, range selection and list
// membership — is one Elias–Fano sequence (Vigna, "Quasi-succinct indices",
// WSDM 2013) over the distinct keys, each biased to uint64(k)+2⁶³ so that
// unsigned order is key order:
//
//	header ‖ select samples ‖ high bits ‖ low bits
//
// The header is 32 big-endian bytes: the tag "KEF1", the low-bit width L, the
// key count n, and the smallest and the largest key, min and max (biased). L
// is ⌊log₂((max−min)/n)⌋. A key's offset from the origin — min rounded down to
// a multiple of 2^(L+8) — splits into a high part h and L low bits. Key i sets
// bit h+i of the high bits, n + nb of them for nb = (max−origin)>>L + 1
// buckets, so the keys of bucket j are the ones between the (j−1)-th and the
// j-th zero; the low bits are packed L to a key. Both are little-endian 64-bit
// words, bit b in word b/64. Sample k (4 bytes, little-endian) counts the keys
// whose high part is below 256·k, so a probe starts within 256 zeros of its
// bucket. nb ≤ 2n + 256, so a key costs at most L + 3 bits where a
// fixed-width record costs 64.
//
// Given L, a bucket is a fixed range of 2^L keys and a sample a fixed range of
// 2^(L+8): the origin moves by whole sample ranges only. Every field is a
// function of the key set, so a maintained Π is byte-equal to Preprocess of the
// edited data, and an edit that keeps L leaves every other key's bucket and
// low bits alone — it only moves them, which is what lets maintenance splice
// (keyWriter.splice). The layout is its own index: the probe (nextGEQ) reads
// it in place, so Prepare checks the header and the sample table and copies
// nothing.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pitract/internal/core"
	"pitract/internal/parts"
)

const (
	keyFileTag     = "KEF1"
	keyHeaderLen   = 32
	keySampleShift = 8   // one select sample per 2⁸ buckets
	keyBlock       = 256 // keys a stream moves per call
)

// errKeyFileCorrupt is a key file whose header holds but whose high bits do
// not: a probe or a stream walked off the vectors, or found keys out of order.
var errKeyFileCorrupt = errors.New("schemes: corrupt sorted key file: its high bits disagree with its header")

// biasKey maps a key to the order-preserving unsigned form the file stores.
func biasKey(k int64) uint64 { return uint64(k) ^ 1<<63 }

// keyFile is a sorted key file whose header has been checked against its
// length: every section offset lies inside pd.
type keyFile struct {
	pd             []byte
	n, min, max, l uint64
	// origin is the first key of bucket 0: min rounded down to a multiple of
	// 2^(L+8).
	origin uint64
	// nbits is the length of the high bits, n + nb.
	nbits uint64
	// Byte offsets of the sections: the samples run from keyHeaderLen to
	// high, the high words from high to low, the low words from low to size.
	high, low, size int
}

// layout sizes f as the file of n keys from kmin to kmax — the one place the
// layout is computed, for the parser and the writer alike.
func (f *keyFile) layout(n, kmin, kmax uint64) {
	f.n, f.min, f.max = n, kmin, kmax
	buckets := uint64(0)
	if n > 0 {
		if q := (kmax - kmin) / n; q > 0 {
			f.l = uint64(bits.Len64(q) - 1)
		}
		f.origin = kmin &^ (1<<(f.l+keySampleShift) - 1)
		buckets = (kmax-f.origin)>>f.l + 1
	}
	f.nbits = n + buckets
	f.high = keyHeaderLen + 4*int((buckets+1<<keySampleShift-1)>>keySampleShift)
	f.low = f.high + 8*int((f.nbits+63)/64)
	f.size = f.low + 8*int((n*f.l+63)/64)
}

// parseKeyFile checks the header against the length in O(1). A Π without the
// tag was written by an earlier version — fixed-width 8-byte records — and is
// refused as a core.LayoutError, never read.
func parseKeyFile(pd []byte) (keyFile, error) {
	if len(pd) < len(keyFileTag) || string(pd[:len(keyFileTag)]) != keyFileTag {
		return keyFile{}, &core.LayoutError{Msg: fmt.Sprintf("schemes: sorted key file (%d bytes) is not in the Elias–Fano layout this version reads; re-register the dataset", len(pd))}
	}
	if len(pd) < keyHeaderLen {
		return keyFile{}, fmt.Errorf("schemes: corrupt sorted key file header (%d bytes)", len(pd))
	}
	l := uint64(binary.BigEndian.Uint32(pd[4:]))
	n := binary.BigEndian.Uint64(pd[8:])
	kmin, kmax := binary.BigEndian.Uint64(pd[16:]), binary.BigEndian.Uint64(pd[24:])
	// A key costs at least one high bit, and the samples count keys in 32
	// bits: n is bounded before any size is computed from it.
	ok := n <= 8*uint64(len(pd)) && n <= math.MaxUint32 && kmin <= kmax &&
		(n > 0 || kmin|kmax|l == 0) && (n == 0 || n-1 <= kmax-kmin)
	var f keyFile
	if ok {
		f.layout(n, kmin, kmax)
		if f.pd = pd; f.l == l && f.size == len(pd) && f.ends() {
			return f, nil
		}
	}
	return keyFile{}, fmt.Errorf("schemes: sorted key file is %d bytes, header claims n=%d, L=%d over [%#x, %#x]", len(pd), n, l, kmin, kmax)
}

// ends checks, in O(1), the bits the header pins down beyond the length: the
// high bits open with min's bucket — min is key 0 — and close with max's one
// and the last bucket's zero, the two keys' low bits are min's and max's, and
// the padding past either vector is zero. So no header field can lie even by
// less than a word.
func (f *keyFile) ends() bool {
	if f.n == 0 {
		return true
	}
	highs, lows := f.pd[f.high:f.low], f.pd[f.low:]
	// Key 0's bucket, h0 < 256, is the first with a one.
	h0 := (f.min - f.origin) >> f.l
	for s := uint64(0); s <= h0; s += 64 {
		c, want := min(64, h0+1-s), uint64(0)
		if s+c > h0 {
			want = 1 << (c - 1)
		}
		if bitsAt(highs, s, c) != want {
			return false
		}
	}
	mask := uint64(1)<<f.l - 1
	return bitsAt(highs, f.nbits-2, 2) == 1 && padding(highs, f.nbits) &&
		f.lowAt(0) == f.min&mask && f.lowAt(f.n-1) == f.max&mask && padding(lows, f.n*f.l)
}

// padding reports whether the bits of the word vector v past its first n are
// zero.
func padding(v []byte, n uint64) bool {
	return n&63 == 0 || binary.LittleEndian.Uint64(v[8*int(n>>6):])>>(n&63) == 0
}

// checkSamples validates the sample table — Prepare's one pass over Π: the
// first sample is 0, and none decreases or exceeds n.
func (f *keyFile) checkSamples() error {
	prev := uint64(0)
	for off := keyHeaderLen; off < f.high; off += 4 {
		s := uint64(binary.LittleEndian.Uint32(f.pd[off:]))
		if s < prev || s > f.n || off == keyHeaderLen && s != 0 {
			return fmt.Errorf("schemes: corrupt sorted key file: sample %d is %d (previous %d, n=%d)", (off-keyHeaderLen)/4, s, prev, f.n)
		}
		prev = s
	}
	return nil
}

func (f *keyFile) highWord(w uint64) uint64 {
	return binary.LittleEndian.Uint64(f.pd[f.high+8*int(w):])
}

// lowAt reads key i's low bits, i < n.
func (f *keyFile) lowAt(i uint64) uint64 {
	if f.l == 0 {
		return 0
	}
	return bitsAt(f.pd[f.low:], i*f.l, f.l)
}

// bitsAt returns the k bits, 0 < k ≤ 64, of the little-endian word vector v
// from bit s on.
func bitsAt(v []byte, s, k uint64) uint64 {
	off, sh := 8*int(s>>6), s&63
	x := binary.LittleEndian.Uint64(v[off:]) >> sh
	if sh+k > 64 {
		x |= binary.LittleEndian.Uint64(v[off+8:]) << (64 - sh)
	}
	return x & (^uint64(0) >> (64 - k))
}

// orBits ORs x, k bits wide (0 < k ≤ 64), into the word vector v at bit d.
func orBits(v []byte, d, k, x uint64) {
	off, sh := 8*int(d>>6), d&63
	binary.LittleEndian.PutUint64(v[off:], binary.LittleEndian.Uint64(v[off:])|x<<sh)
	if sh+k > 64 {
		binary.LittleEndian.PutUint64(v[off+8:], binary.LittleEndian.Uint64(v[off+8:])|x>>(64-sh))
	}
}

// copyBits copies the k bits of src from bit s on into dst at bit d, where
// dst's bits from d on are all still zero: the part of a word before the
// first word boundary is ORed in, whole words after it are stored.
func copyBits(dst []byte, d uint64, src []byte, s, k uint64) {
	if head := min(-d&63, k); head > 0 {
		orBits(dst, d, head, bitsAt(src, s, head))
		d, s, k = d+head, s+head, k-head
	}
	off, sw, sh := 8*int(d>>6), 8*int(s>>6), s&63
	for ; k >= 64; k -= 64 {
		x := binary.LittleEndian.Uint64(src[sw:])
		if sh > 0 {
			x = x>>sh | binary.LittleEndian.Uint64(src[sw+8:])<<(64-sh)
		}
		binary.LittleEndian.PutUint64(dst[off:], x)
		off, sw = off+8, sw+8
	}
	if k > 0 {
		orBits(dst, uint64(off)*8, k, bitsAt(src, uint64(sw)*8+sh, k))
	}
}

// copyWindow is copyBits of k bits where either run may start before bit 0 or
// end past its vector's length (dn and sn bits): only the part both vectors
// hold is copied. What is cut off is zeros — buckets one side does not have.
func copyWindow(dst []byte, d, dn int64, src []byte, s, sn, k int64) {
	if lo, hi := max(0, -d, -s), min(k, dn-d, sn-s); hi > lo {
		copyBits(dst, uint64(d+lo), src, uint64(s+lo), uint64(hi-lo))
	}
}

// afterZeros returns the position just past the r-th zero of the high bits at
// or after pos, or pos itself when r is 0.
func (f *keyFile) afterZeros(pos, r uint64) (uint64, error) {
	if r == 0 {
		return pos, nil
	}
	if pos >= f.nbits {
		return 0, errKeyFileCorrupt
	}
	w := pos >> 6
	zeros := ^f.highWord(w) &^ (1<<(pos&63) - 1)
	for c := uint64(bits.OnesCount64(zeros)); r > c; c = uint64(bits.OnesCount64(zeros)) {
		r -= c
		if w++; w<<6 >= f.nbits {
			return 0, errKeyFileCorrupt
		}
		zeros = ^f.highWord(w)
	}
	p := w<<6 + select64(zeros, r-1)
	if p >= f.nbits {
		return 0, errKeyFileCorrupt
	}
	return p + 1, nil
}

// nextOne returns the position of the first one of the high bits at or after
// pos.
func (f *keyFile) nextOne(pos uint64) (uint64, error) {
	if pos >= f.nbits {
		return 0, errKeyFileCorrupt
	}
	w := pos >> 6
	ones := f.highWord(w) &^ (1<<(pos&63) - 1)
	for ones == 0 {
		if w++; w<<6 >= f.nbits {
			return 0, errKeyFileCorrupt
		}
		ones = f.highWord(w)
	}
	p := w<<6 + uint64(bits.TrailingZeros64(ones))
	if p >= f.nbits {
		return 0, errKeyFileCorrupt
	}
	return p, nil
}

// select64 returns the position of the r-th (from 0) set bit of w, which has
// more than r.
func select64(w, r uint64) uint64 {
	at := uint64(0)
	for c := uint64(bits.OnesCount8(uint8(w))); r >= c; c = uint64(bits.OnesCount8(uint8(w))) {
		r -= c
		w >>= 8
		at += 8
	}
	for ; r > 0; r-- {
		w &= w - 1
	}
	return at + uint64(bits.TrailingZeros64(w))
}

// nextGEQ returns the index i of the smallest key ≥ x and that key v, both
// biased; i is n when every key is below x. It reads Π in place: one sample,
// the high words from there to x's bucket, and the low bits of the keys a
// binary search over that bucket touches. Every read is bounds-checked against
// the header, so a file whose high bits lie is an error here, never a read
// outside pd.
func (f *keyFile) nextGEQ(x uint64) (i, v uint64, err error) {
	if f.n == 0 || x > f.max {
		return f.n, 0, nil
	}
	if x <= f.min {
		return 0, f.min, nil
	}
	y := x - f.origin
	hb := y >> f.l
	k := hb >> keySampleShift
	start := uint64(binary.LittleEndian.Uint32(f.pd[keyHeaderLen+4*int(k):])) + k<<keySampleShift
	pos, err := f.afterZeros(start, hb&(1<<keySampleShift-1))
	if err != nil {
		return 0, 0, err
	}
	end, err := f.afterZeros(pos, 1)
	if err != nil {
		return 0, 0, err
	}
	// The bucket's keys are [first, stop): its ones lie in [pos, end−1).
	first, stop := pos-hb, end-1-hb
	if stop > f.n {
		return 0, 0, errKeyFileCorrupt
	}
	lowY := y & (1<<f.l - 1)
	i, j := first, stop
	for i < j {
		if m := i + (j-i)/2; f.lowAt(m) < lowY {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < stop {
		return i, f.origin + (hb<<f.l | f.lowAt(i)), nil
	}
	// Every key of the bucket is below x, and max ≥ x: the answer is the
	// first key of a later bucket.
	if stop == f.n {
		return 0, 0, errKeyFileCorrupt
	}
	one, err := f.nextOne(end)
	if err != nil {
		return 0, 0, err
	}
	return stop, f.origin + ((one-stop)<<f.l | f.lowAt(stop)), nil
}

// keyReader streams a key file's keys in ascending order, each checked to
// rise within [min, max]: a file whose high bits disagree with its header
// ends the stream with an error, never feeding a writer a key it has no room
// for.
type keyReader struct {
	f    *keyFile
	i    uint64 // index of the next key
	w    uint64 // high word being read
	ones uint64 // its ones not yet read
	prev uint64
	// The low bits are read a word at a time: lw is the next word, lbuf holds
	// lbits bits not yet read.
	lw, lbuf, lbits uint64
}

func (f *keyFile) reader() *keyReader {
	r := &keyReader{f: f}
	if f.nbits > 0 {
		r.ones = f.highWord(0)
	}
	return r
}

// read fills out with the next len(out) keys; the caller reads at most n. It
// makes three passes over out — high parts, low parts, then the checks — each
// keeping its few variables in registers.
func (r *keyReader) read(out []uint64) error {
	f := r.f
	l := f.l
	// Key i's high part is the position of the i-th one, less i.
	highs, nbits, hmax := f.pd[f.high:f.low], f.nbits, (f.max-f.origin)>>l
	i, w, ones := r.i, r.w, r.ones
	for j := range out {
		for ones == 0 {
			if w++; w<<6 >= nbits {
				return errKeyFileCorrupt
			}
			ones = binary.LittleEndian.Uint64(highs[8*int(w):])
		}
		h := w<<6 + uint64(bits.TrailingZeros64(ones)) - i
		if h > hmax {
			return errKeyFileCorrupt
		}
		out[j] = h << l
		ones &= ones - 1
		i++
	}
	r.w, r.ones = w, ones
	if l > 0 {
		lows, lw, lbuf, lbits := f.pd[f.low:], r.lw, r.lbuf, r.lbits
		for j := range out {
			if lbits >= l {
				out[j] |= lbuf & (1<<l - 1)
				lbuf >>= l
				lbits -= l
				continue
			}
			word := binary.LittleEndian.Uint64(lows[8*int(lw):])
			lw++
			out[j] |= (lbuf | word<<lbits) & (1<<l - 1)
			lbuf = word >> (l - lbits)
			lbits += 64 - l
		}
		r.lw, r.lbuf, r.lbits = lw, lbuf, lbits
	}
	origin, prev := f.origin, r.prev
	for j, y := range out {
		v := origin + y
		if v < f.min || v > f.max || (r.i > 0 || j > 0) && v <= prev {
			return errKeyFileCorrupt
		}
		out[j], prev = v, v
	}
	r.i, r.prev = i, prev
	return nil
}

// firstKey returns the smallest key keep accepts; ok is false when it accepts
// none.
func (f *keyFile) firstKey(keep func(uint64) bool) (v uint64, ok bool, err error) {
	r := f.reader()
	var one [1]uint64
	for range f.n {
		if err := r.read(one[:]); err != nil || keep(one[0]) {
			return one[0], err == nil, err
		}
	}
	return 0, false, nil
}

// lastKey returns the largest key keep accepts, walking the high bits down
// from the end; ok is false when it accepts none.
func (f *keyFile) lastKey(keep func(uint64) bool) (v uint64, ok bool, err error) {
	p := f.nbits
	for i := f.n; i > 0; {
		i--
		w := (p - 1) >> 6
		ones := f.highWord(w) & (1<<((p-1)&63+1) - 1)
		for ones == 0 {
			if w == 0 {
				return 0, false, errKeyFileCorrupt
			}
			w--
			ones = f.highWord(w)
		}
		p = w<<6 + 63 - uint64(bits.LeadingZeros64(ones))
		if p < i || p-i > (f.max-f.origin)>>f.l {
			return 0, false, errKeyFileCorrupt
		}
		if v = f.origin + ((p-i)<<f.l | f.lowAt(i)); keep(v) {
			return v, true, nil
		}
	}
	return 0, false, nil
}

// keyWriter lays out the file of n keys from min to max, sized exactly before
// the first key, and takes the keys in ascending order.
type keyWriter struct {
	keyFile
	i    uint64 // keys written
	prev uint64
	// Words are filled in registers and stored whole: hw is the high word
	// being filled and hbuf its bits; lw the low word, lbuf its first lbits
	// bits.
	hw, hbuf, lw, lbuf, lbits uint64
}

func newKeyWriter(n, kmin, kmax uint64) *keyWriter {
	w := &keyWriter{}
	w.layout(n, kmin, kmax)
	w.pd = make([]byte, w.size)
	copy(w.pd, keyFileTag)
	binary.BigEndian.PutUint32(w.pd[4:], uint32(w.l))
	binary.BigEndian.PutUint64(w.pd[8:], n)
	binary.BigEndian.PutUint64(w.pd[16:], kmin)
	binary.BigEndian.PutUint64(w.pd[24:], kmax)
	return w
}

// push appends keys (biased), ascending. A key out of order, outside
// [min, max] or beyond the n-th is refused before anything is written, so the
// writer never writes outside its buffer. Past the checks it makes two passes
// over xs — high bits, then low bits — each keeping its few variables in
// registers.
func (w *keyWriter) push(xs ...uint64) error {
	if uint64(len(xs)) > w.n-w.i {
		return errKeyFileCorrupt
	}
	prev := w.prev
	for j, x := range xs {
		if x < w.min || x > w.max || (w.i > 0 || j > 0) && x <= prev {
			return errKeyFileCorrupt
		}
		prev = x
	}
	highs, l, origin := w.pd[w.high:w.low], w.l, w.origin
	i, hw, hbuf := w.i, w.hw, w.hbuf
	for _, x := range xs {
		if p := (x-origin)>>l + i; p>>6 == hw {
			hbuf |= 1 << (p & 63)
		} else {
			binary.LittleEndian.PutUint64(highs[8*int(hw):], hbuf)
			hw, hbuf = p>>6, 1<<(p&63)
		}
		i++
	}
	w.i, w.hw, w.hbuf, w.prev = i, hw, hbuf, prev
	if l == 0 {
		return nil
	}
	// The origin is a multiple of 2^L: a key's low bits are its own.
	lows, lw, lbuf, lbits := w.pd[w.low:], w.lw, w.lbuf, w.lbits
	for _, x := range xs {
		lo := x & (1<<l - 1)
		lbuf |= lo << lbits
		if lbits += l; lbits >= 64 {
			binary.LittleEndian.PutUint64(lows[8*int(lw):], lbuf)
			lw++
			lbits -= 64
			lbuf = lo >> (l - lbits)
		}
	}
	w.lw, w.lbuf, w.lbits = lw, lbuf, lbits
	return nil
}

// bytes merges the words still in registers, counts the samples and returns
// the file, once all n keys are in.
func (w *keyWriter) bytes() ([]byte, error) {
	if w.i != w.n {
		return nil, errKeyFileCorrupt
	}
	w.flush()
	w.fillSamples()
	return w.pd, nil
}

// flush ORs the high and the low word still in registers into the file: a
// writer stores a word whole only once it has moved past it, so the words it
// ends in may also hold the bits of the part after it (keyFileParts).
func (w *keyWriter) flush() {
	if w.n > 0 {
		orBits(w.pd[w.high:], 64*w.hw, 64, w.hbuf)
	}
	if w.lbits > 0 {
		orBits(w.pd[w.low:], 64*w.lw, 64, w.lbuf)
	}
}

// seek places w at key a of keys, the keys its file is laid out over: the
// key before it for the order check, and the words key a's high bit and low
// bits go in, with nothing in them yet. So w stores no word before key a's
// and none holding bits of a key before it.
func (w *keyWriter) seek(keys []int64, a int) {
	w.i = uint64(a)
	if a > 0 {
		w.prev = biasKey(keys[a-1])
	}
	w.hw, w.hbuf = ((biasKey(keys[a])-w.origin)>>w.l+w.i)>>6, 0
	w.lw, w.lbits, w.lbuf = w.i*w.l>>6, w.i*w.l&63, 0
}

// fillSamples writes the sample table from the finished high bits: sample k
// counts the ones before zero 256k−1 (from 0), which ends bucket 256k−1.
func (f *keyFile) fillSamples() {
	samples, highs := f.pd[keyHeaderLen:f.high], f.pd[f.high:f.low]
	k, count, zeros := uint64(1), uint64(len(samples)/4), uint64(0)
	for off := 0; k < count && off < len(highs); off += 8 {
		word := ^binary.LittleEndian.Uint64(highs[off:])
		c := uint64(bits.OnesCount64(word))
		for ; k < count && zeros+c >= k<<keySampleShift; k++ {
			t := k<<keySampleShift - 1
			p := uint64(8*off) + select64(word, t-zeros)
			binary.LittleEndian.PutUint32(samples[4*k:], uint32(p-t))
		}
		zeros += c
	}
}

// keyFileBytes lays out Π over keys, ascending and distinct, in parts for
// many keys (keyFileParts).
func keyFileBytes(keys []int64) ([]byte, error) {
	return keyFileParts(keys, parts.For(8*len(keys)))
}

// keyFileParts is keyFileBytes with the keys cut into k parts by index. Part
// j writes the high and low words of its keys straight into the file —
// every word it moves past, which no other part stores — and keeps the two
// it ends in, which the next part may share; those are ORed in after the
// join, then the samples are counted from the finished high bits.
func keyFileParts(keys []int64, k int) ([]byte, error) {
	if err := checkKeyCount(uint64(len(keys))); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return newKeyWriter(0, 0, 0).bytes()
	}
	w := newKeyWriter(uint64(len(keys)), biasKey(keys[0]), biasKey(keys[len(keys)-1]))
	k = min(k, len(keys))
	kl := keyLayout{w: w, keys: keys, k: k, ends: make([]keyWriter, k)}
	if !parts.Fold(k, kl, writeKeyPart, both) {
		return nil, errKeyFileCorrupt
	}
	for j := range kl.ends {
		kl.ends[j].flush()
	}
	w.i = w.n
	w.fillSamples()
	return w.pd, nil
}

// keyLayout is a key file being written in k parts; ends[j] is part j's
// writer once it has pushed its last key.
type keyLayout struct {
	w    *keyWriter
	keys []int64
	k    int
	ends []keyWriter
}

// writeKeyPart pushes part j of kl's keys, a block at a time, through a copy
// of the writer sought to the part's first key, and reports whether every
// key was in order.
func writeKeyPart(kl keyLayout, j int) bool {
	a, b := parts.Cut(len(kl.keys), kl.k, j), parts.Cut(len(kl.keys), kl.k, j+1)
	w := &kl.ends[j]
	*w = *kl.w
	w.seek(kl.keys, a)
	var block [keyBlock]uint64
	for keys := kl.keys[a:b]; len(keys) > 0; {
		blk := block[:min(len(keys), keyBlock)]
		for i := range blk {
			blk[i] = biasKey(keys[i])
		}
		if w.push(blk...) != nil {
			return false
		}
		keys = keys[len(blk):]
	}
	return true
}

func both(a, b bool) bool { return a && b }

// radixMin is the length below which dedupSorted leaves the sort to
// slices.Sort: a radix pass costs a 256-entry count whatever n is.
const radixMin = 256

// dedupSorted sorts keys in place and returns their distinct values in
// ascending order, a prefix of keys. The caller's slice is reordered and its
// elements past the result are zeroed: a caller that still needs its keys
// passes a copy. It is the one sort in front of every key file — a relation's
// key column, a list, a delta's keys, an arc file's ids.
//
// From radixMin keys on, one pass finds the smallest and the largest key and
// the bits in which some key differs from the first. A dense set — its span
// hi−lo under 64 values a key, as 2²⁰ keys below 2²² are — is sorted through a
// bitmap over the span (dedupDense), in parts for many keys. Any
// other set is an LSD radix sort over the biased key, a byte a pass, with a
// pass only for the bytes in which some two keys differ, so it costs O(n) per
// varying byte and no input takes more than eight; the passes alternate
// between keys and one scratch slice of the same length. Either way the
// scratch is at most len(keys) words.
func dedupSorted(keys []int64) []int64 {
	return dedupSortedParts(keys, parts.For(8*len(keys)))
}

// dedupSortedParts is dedupSorted with a dense set's bitmap built and read in
// k parts.
func dedupSortedParts(keys []int64, k int) []int64 {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	k = min(k, len(keys))
	sp := parts.Fold(k, keySpan{keys: keys, k: k}, readKeySpan, joinKeySpans)
	lo, hi, diff := sp.lo, sp.hi, sp.diff
	if span := uint64(hi) - uint64(lo); span/64 < uint64(len(keys)) {
		return dedupDense(keys, lo, span, k)
	}
	src, dst := keys, make([]int64, len(keys))
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, k := range src {
			at[byte(biasKey(k)>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, k := range src {
			b := byte(biasKey(k) >> shift)
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] { // an odd number of passes ended in the scratch
		copy(keys, src)
	}
	return slices.Compact(keys)
}

// keySpan is the first pass of dedupSorted over keys in k parts: the
// smallest and the largest key, and the bits in which some key differs from
// keys[0].
type keySpan struct {
	keys   []int64
	k      int
	lo, hi int64
	diff   uint64
}

// readKeySpan is part j's keySpan.
func readKeySpan(sp keySpan, j int) keySpan {
	part := sp.keys[parts.Cut(len(sp.keys), sp.k, j):parts.Cut(len(sp.keys), sp.k, j+1)]
	first := sp.keys[0]
	lo, hi, diff := part[0], part[0], uint64(0)
	for _, k := range part {
		lo, hi = min(lo, k), max(hi, k)
		diff |= uint64(k ^ first)
	}
	return keySpan{lo: lo, hi: hi, diff: diff}
}

func joinKeySpans(a, b keySpan) keySpan {
	return keySpan{lo: min(a.lo, b.lo), hi: max(a.hi, b.hi), diff: a.diff | b.diff}
}

// dedupDense is dedupSorted over keys in [lo, lo+span], span/64 < len(keys),
// in k parts: part j sets bit x−lo of a private bitmap of span/64+1 words for
// each key x of its share of keys; the k bitmaps are ORed into the first, and
// the set bits written back over keys in ascending order, each part reading
// a range of bitmap words from the offset the popcounts of the ranges before
// it give. Offsets are taken in uint64, so a span that crosses zero or
// reaches either end of int64 wraps back exactly. A part is given at least
// four keys a bitmap word, so that its share of the keys outweighs the
// bitmap it allocates and ORs in, and the bitmaps together are a quarter of
// len(keys) words at most; at k = 1 — and for a span of more than 8 values
// a key, whatever k was asked — there is one bitmap, no merge, and the
// bitmap is the one allocation.
func dedupDense(keys []int64, lo int64, span uint64, k int) []int64 {
	words := int(span/64 + 1)
	k = max(1, min(k, len(keys)/(4*words)))
	ds := denseSort{keys: keys, lo: lo, words: words, k: k, set: make([]uint64, k*words)}
	parts.Run(k, ds, setDenseBits)
	if k > 1 {
		ds.counts = make([]int, k)
		parts.Run(k, ds, mergeDenseBits)
	}
	n := parts.Fold(k, ds, readDenseBits, add)
	clear(keys[n:])
	return keys[:n]
}

// denseSort is a dense sort in k parts: set holds k bitmaps of words words,
// and counts[j] the keys in part j's range of the merged one.
type denseSort struct {
	keys     []int64
	lo       int64
	words, k int
	set      []uint64
	counts   []int
}

// setDenseBits sets the bits of part j's share of the keys in bitmap j.
func setDenseBits(ds denseSort, j int) {
	set := ds.set[j*ds.words : (j+1)*ds.words]
	for _, k := range ds.keys[parts.Cut(len(ds.keys), ds.k, j):parts.Cut(len(ds.keys), ds.k, j+1)] {
		x := uint64(k) - uint64(ds.lo)
		set[x/64] |= 1 << (x % 64)
	}
}

// mergeDenseBits ORs part j's range of words of every bitmap into the first
// and counts its keys.
func mergeDenseBits(ds denseSort, j int) {
	a, b := parts.Cut(ds.words, ds.k, j), parts.Cut(ds.words, ds.k, j+1)
	merged := ds.set[a:b]
	for i := 1; i < ds.k; i++ {
		for w, x := range ds.set[i*ds.words+a : i*ds.words+b] {
			merged[w] |= x
		}
	}
	n := 0
	for _, x := range merged {
		n += bits.OnesCount64(x)
	}
	ds.counts[j] = n
}

// readDenseBits writes the keys of part j's range of the merged bitmap over
// keys, from the offset the ranges before it fill, and returns how many.
func readDenseBits(ds denseSort, j int) int {
	a, b := parts.Cut(ds.words, ds.k, j), parts.Cut(ds.words, ds.k, j+1)
	n := 0
	for _, c := range ds.counts[:j] {
		n += c
	}
	start := n
	for w, word := range ds.set[a:b] {
		for base := uint64(ds.lo) + 64*uint64(a+w); word != 0; word &= word - 1 {
			ds.keys[n] = int64(base + uint64(bits.TrailingZeros64(word)))
			n++
		}
	}
	return n - start
}

func add(a, b int) int { return a + b }

// checkKeyCount refuses a key set the 32-bit samples cannot count.
func checkKeyCount(n uint64) error {
	if n > math.MaxUint32 {
		return fmt.Errorf("schemes: %d distinct keys; a sorted key file holds at most %d", n, uint64(math.MaxUint32))
	}
	return nil
}

// prepareKeys is the Prepare of the key schemes: the header and the sample
// table checked once, over Π's own bytes.
func prepareKeys(pd []byte) (core.Answerer, error) {
	f, err := parseKeyFile(pd)
	if err != nil {
		return nil, err
	}
	if err := f.checkSamples(); err != nil {
		return nil, err
	}
	return &keysAnswerer{f: f}, nil
}

// keysAnswerer is a key file's prepared form. It answers both queries of
// Example 1 over the one file, by one probe: is the first key ≥ lo at most
// hi (a point query c is the range [c, c]).
type keysAnswerer struct{ f keyFile }

// Answer implements core.Answerer.
func (a *keysAnswerer) Answer(q []byte) (bool, error) {
	lo, hi, err := DecodeSelection(q)
	if err != nil || hi < lo {
		return false, err
	}
	i, v, err := a.f.nextGEQ(biasKey(lo))
	return i < a.f.n && v <= biasKey(hi), err
}

// keyEdit is one key a delta adds or removes (biased), with its place in the
// old file: the index it goes in at, or the index it is at.
type keyEdit struct{ x, at uint64 }

// applyKeysDelta is the ApplyDelta of the key schemes. It probes the delta's
// keys to learn the new n and bounds, then writes a file of exactly the new
// size from the old one: a merge for an insert (a present key is a no-op), a
// filter for a delete (an absent key is a no-op). Π is never expanded into a
// key slice, and an edit that changes nothing returns pd itself: a streamed
// O(|Π| + |∆D|·b) merge or filter against an O(|D|·b) re-sort, b the key
// bytes that vary. The selection and list schemes share the key file, so
// this one function maintains both.
func applyKeysDelta(pd, delta []byte) ([]byte, error) {
	f, err := parseKeyFile(pd)
	if err != nil {
		return nil, err
	}
	kind, payload, err := core.DeltaParts(delta)
	if err != nil {
		return nil, err
	}
	keys, err := DecodeList(payload)
	if err != nil {
		return nil, err
	}
	insert := kind == core.DeltaInsert
	var edits []keyEdit
	for _, k := range dedupSorted(keys) {
		x := biasKey(k)
		i, v, err := f.nextGEQ(x)
		if err != nil {
			return nil, err
		}
		if present := i < f.n && v == x; present != insert {
			edits = append(edits, keyEdit{x, i})
		}
	}
	if len(edits) == 0 {
		return pd, nil
	}
	return f.edit(edits, insert)
}

// edit writes a file of exactly the new size from f with the edits added
// (insert) or removed — each absent or present, as nextGEQ found it: spliced
// when L is unchanged, merged key by key when it is not.
func (f *keyFile) edit(edits []keyEdit, insert bool) ([]byte, error) {
	m := uint64(len(edits))
	var n, kmin, kmax uint64
	if insert {
		n, kmin, kmax = f.n+m, edits[0].x, edits[m-1].x
		if f.n > 0 {
			kmin, kmax = min(kmin, f.min), max(kmax, f.max)
		}
		if err := checkKeyCount(n); err != nil {
			return nil, err
		}
	} else {
		if m > f.n {
			return nil, errKeyFileCorrupt
		}
		if n = f.n - m; n == 0 {
			return newKeyWriter(0, 0, 0).bytes()
		}
		keep := func(v uint64) bool {
			_, dropped := slices.BinarySearchFunc(edits, v, func(e keyEdit, v uint64) int { return cmp.Compare(e.x, v) })
			return !dropped
		}
		var okMin, okMax bool
		var err error
		if kmin, okMin, err = f.firstKey(keep); err != nil {
			return nil, err
		}
		if kmax, okMax, err = f.lastKey(keep); err != nil {
			return nil, err
		}
		if !okMin || !okMax {
			return nil, errKeyFileCorrupt
		}
	}
	w := newKeyWriter(n, kmin, kmax)
	if f.n > 0 && w.l == f.l {
		return w.splice(f, edits, insert)
	}
	return w.merge(f, edits, insert)
}

// merge writes f's keys, with the edits added (insert) or left out, block by
// block: the path for an edit that changes L, and so how every key splits into
// high and low bits.
func (w *keyWriter) merge(f *keyFile, edits []keyEdit, insert bool) ([]byte, error) {
	r := f.reader()
	var block [keyBlock]uint64
	for left := f.n; left > 0; {
		b := block[:min(left, keyBlock)]
		left -= uint64(len(b))
		if err := r.read(b); err != nil {
			return nil, err
		}
		// Push the block in runs between the edits that fall inside it.
		for len(edits) > 0 && len(b) > 0 && edits[0].x <= b[len(b)-1] {
			e := edits[0]
			edits = edits[1:]
			at, _ := slices.BinarySearch(b, e.x)
			if err := w.push(b[:at]...); err != nil {
				return nil, err
			}
			if b = b[at:]; insert {
				if err := w.push(e.x); err != nil {
					return nil, err
				}
			} else if len(b) > 0 && b[0] == e.x {
				b = b[1:]
			}
		}
		if err := w.push(b...); err != nil {
			return nil, err
		}
	}
	for ; insert && len(edits) > 0; edits = edits[1:] {
		if err := w.push(edits[0].x); err != nil {
			return nil, err
		}
	}
	return w.bytes()
}

// splice is merge for an edit that keeps L, the common one. Then every old key
// keeps its bucket, in absolute terms, and its low bits: in the new high bits
// it moves by the buckets the origin gained or lost in front and by one per
// edit before it, in the new low bits by one field per edit. So the runs
// between edits are copied a word at a time, each edit's bit and field set or
// skipped, and the samples counted from the result.
func (w *keyWriter) splice(f *keyFile, edits []keyEdit, insert bool) ([]byte, error) {
	oldHigh, oldLow := f.pd[f.high:f.low], f.pd[f.low:f.size]
	high, low, l := w.pd[w.high:w.low], w.pd[w.low:w.size], f.l
	dn, sn := int64(w.nbits), int64(f.nbits)
	// Old high bit src lands at src + shift: the buckets the new origin adds
	// in front (or drops), plus one per insert and less one per delete so far.
	shift := int64((f.origin - w.origin) >> l)
	if f.origin < w.origin {
		shift = -int64((w.origin - f.origin) >> l)
	}
	// New bit 0 is old bit −shift; buckets added in front have no old bits.
	src := min(0, -shift)
	var srcKey, dstKey uint64 // old and new index of the next old key
	for _, e := range edits {
		var q int64 // the edit's place among the old high bits
		if insert {
			q = int64((e.x-w.origin)>>l+dstKey+e.at-srcKey) - shift
		} else {
			q = int64((e.x-f.origin)>>l + e.at)
		}
		if q < src || e.at < srcKey || e.at > f.n || !insert && (e.at == f.n || q >= sn) {
			return nil, errKeyFileCorrupt
		}
		copyWindow(high, src+shift, dn, oldHigh, src, sn, q-src)
		copyBits(low, dstKey*l, oldLow, srcKey*l, (e.at-srcKey)*l)
		dstKey, srcKey, src = dstKey+e.at-srcKey, e.at, q
		if !insert {
			src, srcKey, shift = src+1, srcKey+1, shift-1
			continue
		}
		orBits(high, uint64(q+shift), 1, 1)
		if l > 0 {
			orBits(low, dstKey*l, l, e.x&(1<<l-1))
		}
		dstKey, shift = dstKey+1, shift+1
	}
	if dstKey+f.n-srcKey != w.n {
		return nil, errKeyFileCorrupt
	}
	copyWindow(high, src+shift, dn, oldHigh, src, sn, sn-src)
	copyBits(low, dstKey*l, oldLow, srcKey*l, (f.n-srcKey)*l)
	w.i = w.n
	w.fillSamples()
	return w.pd, nil
}
