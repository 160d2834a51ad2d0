package main

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"slices"
	"sort"
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

// chunkCells is the unit of work of the "matches" section: a chunk is the
// rows of about this many cells, in result order (8 192 pers cells are
// ~160 KB of JSON). Chunks are rendered in parallel and written in order.
// A render buffer is bounded in bytes, not cells: it is handed over after the
// row that takes it to encodeFlushAt, so a chunk of huge cells reaches the
// handler in many parts of a quantum and a row each (DESIGN.md §5i).
const chunkCells = 8192

// lookAhead is how many rendered parts a render worker may hold that the
// handler has not taken yet: a worker runs ahead of the socket by this much
// and no further. On bulk_results 4 parts (~512 KB) doubled 2's qps gain.
const lookAhead = 4

// bufMaxBytes bounds the output buffers the pools keep. A buffer holds at
// most a quantum and a row, and append's growth leaves it under this unless
// the row alone is near a quantum; such a buffer is dropped, not pooled.
const bufMaxBytes = 2 * encodeFlushAt

// memoMinCells is the direct-render threshold: a segment with fewer cells
// than this (a limit=3 point query) is rendered cell by cell, touching no
// memo table — there is nothing to reuse and a fresh buffer would have to
// grow the table to the document's size first.
const memoMinCells = 64

// memoMaxBytes bounds what a pooled encodeBuf may keep of its memo; past it
// the table and the literals are dropped, so one huge document does not pin
// its size in the pool.
const memoMaxBytes = 4 << 20

var (
	encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}
	parts      = sync.Pool{New: func() any { return new(part) }}
)

// encodeBuf is the pooled state of one render goroutine: the output buffer,
// a cell scratch buffer, and the memo of finished cells for the segment
// being rendered.
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

	seg   int // index of the result segment the memo holds, -1 for none
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

// getEncodeBuf takes a buffer from the pool with an empty memo.
func getEncodeBuf() *encodeBuf {
	eb := encodeBufs.Get().(*encodeBuf)
	eb.seg = -1
	return eb
}

// putEncodeBuf returns eb to the pool, without its memo if that has grown
// past memoMaxBytes and without its output buffer past bufMaxBytes.
func putEncodeBuf(eb *encodeBuf) {
	if cap(eb.slots)*int(unsafe.Sizeof(memoSlot{}))+cap(eb.lits) > memoMaxBytes {
		eb.slots, eb.lits = nil, nil
	}
	if cap(eb.out) > bufMaxBytes {
		eb.out = nil
	}
	encodeBufs.Put(eb)
}

// enterSegment points the memo at segment si, invalidating every memoized
// cell unless it already holds that segment's.
func (eb *encodeBuf) enterSegment(si int) {
	if eb.seg == si {
		return
	}
	eb.seg = si
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

// matchRows is the "matches" section of a result cut into chunks: rows
// numbered across the segments in result order, per rows to a chunk. A chunk
// may span a segment boundary, so a result of many small documents renders in
// as few chunks as one large document of the same size.
type matchRows struct {
	segs   []sjos.DocSegment
	starts []int // segment i's rows are [starts[i], starts[i+1])
	per    int
}

func newMatchRows(segs []sjos.DocSegment) *matchRows {
	m := &matchRows{segs: segs, starts: make([]int, len(segs)+1), per: 1}
	for i := range segs {
		m.starts[i+1] = m.starts[i] + segs[i].Len()
		if segs[i].Len() > 0 {
			m.per = max(1, chunkCells/len(segs[i].Row(0)))
		}
	}
	return m
}

func (m *matchRows) rows() int   { return m.starts[len(m.segs)] }
func (m *matchRows) chunks() int { return (m.rows() + m.per - 1) / m.per }

// appendRows appends rows [g, hi) to dst, each row after the result's first
// led by a comma, but stops after the row that takes dst to encodeFlushAt
// bytes; it returns dst and the first row it did not append. Unless ends is
// nil, the offset in dst where each row ends is appended to it. Cells of a
// segment with at least memoMinCells go through eb's memo, which carries
// over between calls on one segment.
func (m *matchRows) appendRows(dst []byte, ends *[]int, eb *encodeBuf, g, hi int) ([]byte, int) {
	si := sort.Search(len(m.segs), func(i int) bool { return m.starts[i+1] > g })
	for ; g < hi; si++ {
		seg := &m.segs[si]
		memo := seg.Len() > 0 && seg.Len()*len(seg.Row(0)) >= memoMinCells
		if memo {
			eb.enterSegment(si)
		}
		for end := min(hi, m.starts[si+1]); g < end; {
			if g > 0 {
				dst = append(dst, ',')
			}
			lead := byte('[')
			for _, id := range seg.Row(g - m.starts[si]) {
				dst, lead = append(dst, lead), ','
				if memo {
					dst = append(dst, eb.literal(seg, id)...)
				} else {
					dst = appendCellJSON(dst, &eb.cell, seg, id)
				}
			}
			dst, g = append(dst, ']'), g+1
			if ends != nil {
				*ends = append(*ends, len(dst))
			}
			if len(dst) >= encodeFlushAt {
				return dst, g
			}
		}
	}
	return dst, g
}

// part is a run of rendered rows on its way from a render worker to the
// handler: at most a quantum and a row of JSON, with the offset where each
// row ends so the handler can write at row boundaries; last marks a chunk's
// final part.
type part struct {
	buf  []byte
	ends []int
	last bool
}

func getPart() *part {
	p := parts.Get().(*part)
	p.buf, p.ends = p.buf[:0], p.ends[:0]
	return p
}

// putPart returns p to the pool, without its buffer past bufMaxBytes.
func putPart(p *part) {
	if cap(p.buf) > bufMaxBytes {
		p.buf = nil
	}
	parts.Put(p)
}

// renderers renders a matchRows' chunks on w goroutines: worker k renders
// chunks k, k+w, … with its own encodeBuf, each into pooled parts, and hands
// them over through its own channel, so the handler takes chunk j's parts
// from channel j%w and writes the chunks in order. A channel holds lookAhead
// parts; a worker that is that far ahead waits for the handler.
type renderers struct {
	chans []chan *part
	stop  chan struct{}
	wg    sync.WaitGroup
	// panics[k] is what worker k panicked with; it is read after the worker
	// closed its channel, and re-raised on the handler.
	panics []any
}

func startRenderers(m *matchRows, w int) *renderers {
	r := &renderers{chans: make([]chan *part, w), stop: make(chan struct{}), panics: make([]any, w)}
	n := m.chunks()
	r.wg.Add(w)
	for k := range r.chans {
		r.chans[k] = make(chan *part, lookAhead)
		go func() {
			defer r.wg.Done()
			defer close(r.chans[k])
			defer func() { r.panics[k] = recover() }()
			eb := getEncodeBuf()
			defer putEncodeBuf(eb)
			for j := k; j < n; j += w {
				for g, hi := j*m.per, min((j+1)*m.per, m.rows()); g < hi; {
					p := getPart()
					p.buf, g = m.appendRows(p.buf, &p.ends, eb, g, hi)
					p.last = g == hi
					select {
					case r.chans[k] <- p:
					case <-r.stop:
						putPart(p)
						return
					}
				}
			}
		}()
	}
	return r
}

// take returns the next part of chunk j, waiting for its worker to render it.
func (r *renderers) take(j int) *part {
	k := j % len(r.chans)
	p, ok := <-r.chans[k]
	if !ok {
		panic(r.panics[k])
	}
	return p
}

// close stops the workers, waits for them to exit and returns every part
// they rendered and the handler did not take to the pool.
func (r *renderers) close() {
	close(r.stop)
	r.wg.Wait()
	for _, ch := range r.chans {
		for p := range ch {
			putPart(p)
		}
	}
}

// writeQueryBody streams the /query JSON payload to w:
//
//	{"count":N,"matches":[["tag=\"v\"","tag#7"],...],"docs":["id",...],<tail>}
//
// "matches" renders each match as tag="value" / tag#id strings, one per
// pattern node, and "docs" gives each match's document ID, index-parallel
// with it; both are omitted when rows is false or there are none. The bytes
// are exactly what encoding/json produces for the same payload, but rows go
// from the result's segments into pooled buffers, and the body is written
// after every row that completes encodeFlushAt bytes — no per-cell strings,
// no reflection, never the whole body in memory — and a node that recurs in
// a segment is rendered once per render goroutine (encodeBuf).
//
// A result of two chunks or more is rendered on min(GOMAXPROCS, chunks)
// goroutines (renderers); otherwise, or with GOMAXPROCS 1, the handler
// renders the rows itself, with the same appendRows. Either way only the
// calling goroutine writes to w, the writes are the same, and no goroutine or
// pooled buffer of the render outlives the call. ctx is polled after every
// write, so a disconnected client stops the render within one quantum.
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
	eb := getEncodeBuf()
	out := eb.out[:0]
	defer func() {
		eb.out = out
		putEncodeBuf(eb)
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
		out = append(out, `,"matches":[`...)
		m := newMatchRows(res.Segments)
		if workers := min(runtime.GOMAXPROCS(0), m.chunks()); workers > 1 {
			r := startRenderers(m, workers)
			defer r.close()
			for j := 0; j < m.chunks(); {
				p := r.take(j)
				if p.last {
					j++
				}
				// Write after the row that completes a quantum, as appendRows
				// stops the serial render there.
				start := 0
				for _, e := range p.ends {
					if len(out)+e-start >= encodeFlushAt {
						out, start = append(out, p.buf[start:e]...), e
						if out, err = flush(out); err != nil {
							putPart(p)
							return err
						}
					}
				}
				out = append(out, p.buf[start:]...)
				putPart(p)
			}
		} else {
			for g := 0; g < m.rows(); {
				if out, g = m.appendRows(out, nil, eb, g, m.rows()); len(out) >= encodeFlushAt {
					if out, err = flush(out); err != nil {
						return err
					}
				}
			}
		}
		out = append(out, `],"docs":`...)
		sep := byte('[')
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
