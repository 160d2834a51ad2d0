package main

import (
	"context"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"sjos"
)

// queryTail is the part of the /query JSON payload that follows the row
// data: small, fixed-shape, and left to encoding/json.
type queryTail struct {
	Plan   string `json:"plan"`
	Cached bool   `json:"cached_plan"`
	// Algorithm is the algorithm that produced the plan: the server's
	// -method default unless the request named one.
	Algorithm string `json:"algorithm"`
	// OptimizeNs and ExecuteNs split the latency in nanoseconds.
	OptimizeNs int64         `json:"optimize_ns"`
	ExecuteNs  int64         `json:"execute_ns"`
	Shards     int           `json:"shards_queried"`
	Trace      *sjos.OpTrace `json:"trace,omitempty"`
}

// encodeFlushAt is the write quantum: how many buffered bytes trigger a
// write to the client. Each write is a chunk header, a copy into the kernel
// and a wake-up of the reader, so at 32 KB the 15 MB body of a bulk query
// spent an eighth of the server's CPU in write(2). Sized on bulk_results
// (qps at 32 / 64 / 128 / 256 KB / 1 MB: 65 / 70 / 80 / 70 / 80, the last for
// 8 MB more peak RSS): 128 KB is where the curve tops out (DESIGN.md §5i).
// Pooled buffers keep some slack past it so a row rarely forces growth.
const encodeFlushAt = 128 << 10

// memoMinCells is the direct-render threshold: a segment with fewer cells
// than this (a limit=3 point query) is rendered cell by cell, touching no
// memo table — there is nothing to reuse and a fresh buffer would have to
// grow the table to the document's size first.
const memoMinCells = 64

// memoMaxBytes bounds what a pooled encodeBuf may keep of its memo; past it
// the table and the literals are dropped, so one huge document does not pin
// its size in the pool.
const memoMaxBytes = 4 << 20

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// encodeBuf is the pooled state of one render: the output buffer, a cell
// scratch buffer, and the memo of finished cells for the segment being
// rendered.
//
// A bulk result repeats its nodes — Q.Pers.4.d's 134 k rows × 6 cells name
// at most 40 k distinct nodes, ~20 renders a node — so a cell is labelled,
// formatted and JSON-escaped once per distinct node per segment and copied
// from lits afterwards. slots is indexed by the segment's document-local
// NodeID (dense from 0, grown on demand) and stamped with the epoch of the
// segment that filled it, so moving to the next segment clears nothing. The
// memo never outlives a segment: two documents reuse node numbers with
// different labels, and a segment pins its own snapshot.
type encodeBuf struct {
	out, cell []byte

	epoch uint32
	slots []memoSlot
	lits  []byte // the current segment's finished cells, JSON-escaped and quoted
}

// memoSlot locates one node's literal in lits; it is valid when epoch is the
// buffer's current one (0 is never current).
type memoSlot struct {
	off   int
	n     uint32
	epoch uint32
}

// nextSegment invalidates every memoized cell.
func (eb *encodeBuf) nextSegment() {
	eb.lits = eb.lits[:0]
	if eb.epoch++; eb.epoch == 0 {
		clear(eb.slots)
		eb.epoch = 1
	}
}

// literal returns node id's cell as a JSON string literal, rendering it on
// the segment's first use of the node.
func (eb *encodeBuf) literal(seg *sjos.DocSegment, id sjos.NodeID) []byte {
	if int(id) >= len(eb.slots) {
		eb.slots = slices.Grow(eb.slots, int(id)+1-len(eb.slots))
		eb.slots = eb.slots[:cap(eb.slots)]
	}
	s := &eb.slots[id]
	if s.epoch != eb.epoch {
		off := len(eb.lits)
		eb.lits = appendCellJSON(eb.lits, &eb.cell, seg, id)
		*s = memoSlot{off: off, n: uint32(len(eb.lits) - off), epoch: eb.epoch}
	}
	return eb.lits[s.off : s.off+int(s.n)]
}

// appendCellJSON appends node id's cell — tag="value" or tag#id, labelled
// through the segment, i.e. against the document version the query ran on —
// to dst as a JSON string literal; cell is scratch space.
func appendCellJSON(dst []byte, cell *[]byte, seg *sjos.DocSegment, id sjos.NodeID) []byte {
	*cell = sjos.AppendCell((*cell)[:0], seg.TagName(id), seg.Value(id), id)
	return appendJSONString(dst, *cell)
}

// writeQueryBody streams the /query JSON payload to w:
//
//	{"count":N,"matches":[["tag=\"v\"","tag#7"],...],"docs":["id",...],<tail>}
//
// "matches" renders each match as tag="value" / tag#id strings, one per
// pattern node, and "docs" gives each match's document ID, index-parallel
// with it; both are omitted when rows is false or there are none. The bytes
// are exactly what encoding/json produces for the same payload, but rows go
// from the result's segments into a pooled buffer that is written out every
// encodeFlushAt bytes — no per-cell strings, no reflection, never the whole
// body in memory — and a node that recurs in a segment is rendered once
// (encodeBuf). ctx is polled between segments and after every write, so a
// disconnected client stops the render within one quantum.
func writeQueryBody(ctx context.Context, w io.Writer, res *sjos.CorpusQueryResult, rows bool) error {
	tail, err := json.Marshal(queryTail{
		Plan:       res.PlanText,
		Cached:     res.CachedPlan,
		Algorithm:  res.Algorithm,
		OptimizeNs: res.OptimizeTime.Nanoseconds(),
		ExecuteNs:  res.ExecuteTime.Nanoseconds(),
		Shards:     res.ShardsQueried,
		Trace:      res.Trace,
	})
	if err != nil {
		return err
	}
	eb := encodeBufs.Get().(*encodeBuf)
	out := eb.out[:0]
	defer func() {
		eb.out = out
		if cap(eb.slots)*int(unsafe.Sizeof(memoSlot{}))+cap(eb.lits) > memoMaxBytes {
			eb.slots, eb.lits = nil, nil
		}
		encodeBufs.Put(eb)
	}()
	// flush hands a full buffer to w and looks whether anyone still listens.
	flush := func(out []byte) ([]byte, error) {
		if _, err := w.Write(out); err != nil {
			return out[:0], err
		}
		return out[:0], ctx.Err()
	}

	out = strconv.AppendInt(append(out, `{"count":`...), int64(res.Count), 10)
	if rows && res.Count > 0 {
		out = append(out, `,"matches":`...)
		sep := byte('[')
		for si := range res.Segments {
			if err := ctx.Err(); err != nil {
				return err
			}
			seg := &res.Segments[si]
			n := seg.Len()
			memo := n > 0 && n*len(seg.Row(0)) >= memoMinCells
			if memo {
				eb.nextSegment()
			}
			for i := 0; i < n; i++ {
				out, sep = append(out, sep), ','
				lead := byte('[')
				for _, id := range seg.Row(i) {
					out, lead = append(out, lead), ','
					if memo {
						out = append(out, eb.literal(seg, id)...)
					} else {
						out = appendCellJSON(out, &eb.cell, seg, id)
					}
				}
				out = append(out, ']')
				if len(out) >= encodeFlushAt {
					if out, err = flush(out); err != nil {
						return err
					}
				}
			}
		}
		out = append(out, `],"docs":`...)
		sep = '['
		for si := range res.Segments {
			if err := ctx.Err(); err != nil {
				return err
			}
			seg := &res.Segments[si]
			// One document's matches are one ID n times over, escaped once.
			eb.cell = appendJSONString(eb.cell[:0], []byte(seg.DocID))
			for i, n := 0, seg.Len(); i < n; i++ {
				out, sep = append(append(out, sep), eb.cell...), ','
				if len(out) >= encodeFlushAt {
					if out, err = flush(out); err != nil {
						return err
					}
				}
			}
		}
		out = append(out, ']')
	}
	out = append(append(append(out, ','), tail[1:]...), '\n')
	_, err = w.Write(out)
	return err
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string literal
// unescaped in its default (HTML-safe) mode.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends src as a JSON string literal with exactly
// encoding/json's default escaping: ", \ and control bytes; <, > and & (its
// HTML-safe mode); U+2028/U+2029; invalid UTF-8 as U+FFFD.
func appendJSONString(dst, src []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(src[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, src[start:i]...), `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, src[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, src[start:]...), '"')
}
