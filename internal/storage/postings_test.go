package storage

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"sjos/internal/xmltree"
)

// rawBlock encodes a block the writer never would: any count, first ID and
// deltas, each varint padded to width bytes (1 = canonical) so a small value
// can be made to take the multi-byte path.
func rawBlock(width int, count, first uint64, deltas ...uint64) []byte {
	put := func(b []byte, v uint64) []byte {
		b = binary.AppendUvarint(b, v)
		for pad := width - 1; pad > 0 && v < 0x80; pad-- {
			b[len(b)-1] |= 0x80
			b = append(b, 0)
		}
		return b
	}
	b := put(put(nil, count), first)
	for _, d := range deltas {
		b = put(b, d)
	}
	return b
}

// referenceDecodeBlock is the block format read the plain way: one
// binary.Uvarint per field, every check spelled out.
func referenceDecodeBlock(b []byte, n int) ([]xmltree.NodeID, bool) {
	count, w := binary.Uvarint(b)
	if w <= 0 || n == 0 || count != uint64(n) {
		return nil, false
	}
	b = b[w:]
	cur, w := binary.Uvarint(b)
	if w <= 0 || cur > math.MaxUint32 {
		return nil, false
	}
	b = b[w:]
	ids := []xmltree.NodeID{xmltree.NodeID(cur)}
	for k := 1; k < n; k++ {
		d, w := binary.Uvarint(b)
		if w <= 0 || d == 0 || d > math.MaxUint32-cur {
			return nil, false
		}
		b = b[w:]
		cur += d
		ids = append(ids, xmltree.NodeID(cur))
	}
	return ids, true
}

// TestDecodeBlockRejectsOverflow is the regression test for IDs that leave
// the NodeID range: a delta of 1<<32 used to truncate to zero and
// (1<<32)-5 to wrap, so {10, +1<<32, +(1<<32)-5} decoded to [10 10 5] with a
// nil error. The one-byte delta path must refuse a wrap as well.
func TestDecodeBlockRejectsOverflow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block []byte
		n     uint16
	}{
		{"uvarint delta truncates and wraps", rawBlock(1, 3, 10, 1<<32, 1<<32-5), 3},
		{"uvarint delta past the last id", rawBlock(1, 2, 10, math.MaxUint32-5), 2},
		{"one-byte delta wraps", rawBlock(1, 2, math.MaxUint32-3, 5), 2},
		{"padded small delta wraps", rawBlock(2, 2, math.MaxUint32-3, 5), 2},
		{"first id does not fit", rawBlock(1, 1, 1<<32+7), 1},
	} {
		var dst [3]xmltree.NodeID
		if err := decodeBlock(tc.block, blockRef{page: 9, n: tc.n}, dst[:tc.n]); err == nil {
			t.Errorf("%s: decoded %v with a nil error", tc.name, dst[:tc.n])
		}
	}
	// The last representable ID is still reachable on both paths.
	for _, width := range []int{1, 2} {
		var dst [2]xmltree.NodeID
		if err := decodeBlock(rawBlock(width, 2, math.MaxUint32-5, 5), blockRef{n: 2}, dst[:]); err != nil || dst[1] != math.MaxUint32 {
			t.Errorf("width %d: id MaxUint32 decoded as %v, %v", width, dst, err)
		}
	}
}

// FuzzDecodeBlock: arbitrary payload, offset and count never panic and never
// write past the postings asked for; whatever decodes without error is
// strictly increasing and is what the reference loop reads, and what the
// reference refuses decodeBlock refuses.
func FuzzDecodeBlock(f *testing.F) {
	var enc [maxBlockBytes]byte
	f.Add(enc[:encodeBlock(enc[:], []xmltree.NodeID{3, 4, 9, 200, 70000})], uint16(0), uint16(5))
	f.Add(append([]byte{0xff, 0xff}, rawBlock(1, 3, 10, 1<<32, 1<<32-5)...), uint16(2), uint16(3))
	f.Add(rawBlock(2, 4, 1, 1, 127, 128), uint16(0), uint16(4))
	f.Add(rawBlock(1, 2, math.MaxUint32-3, 5), uint16(0), uint16(2))
	f.Add(rawBlock(1, 3, 7, 1, 0), uint16(0), uint16(3))
	f.Add(rawBlock(1, 3, 7, 1), uint16(0), uint16(3))
	f.Add([]byte{}, uint16(1), uint16(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, payload []byte, off, n uint16) {
		const sentinel = xmltree.NodeID(0xdeadbeef)
		var buf [postingsBlockLen + 1]xmltree.NodeID
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[:min(int(n), postingsBlockLen)]
		err := decodeBlock(payload, blockRef{off: off, n: n}, dst)
		if buf[len(dst)] != sentinel {
			t.Fatalf("wrote past the %d postings asked for", len(dst))
		}
		var want []xmltree.NodeID
		ok := int(off) <= len(payload) && int(n) <= postingsBlockLen
		if ok {
			want, ok = referenceDecodeBlock(payload[off:], int(n))
		}
		if ok != (err == nil) {
			t.Fatalf("decodeBlock: %v; reference accepts: %v", err, ok)
		}
		if err != nil {
			return
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("decoded %v, reference %v", dst, want)
		}
		for k := 1; k < len(dst); k++ {
			if dst[k] <= dst[k-1] {
				t.Fatalf("postings not strictly increasing at %d: %v", k, dst)
			}
		}
	})
}
