package main

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

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

// encodeFlushAt is how many buffered bytes trigger a write to the client;
// pooled buffers keep some slack past it so a row rarely forces growth.
const encodeFlushAt = 32 << 10

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

type encodeBuf struct{ out, cell []byte }

// writeQueryBody streams the /query JSON payload to w:
//
//	{"count":N,"matches":[["tag=\"v\"","tag#7"],...],"docs":["id",...],<tail>}
//
// "matches" renders each match as tag="value" / tag#id strings, one per
// pattern node, and "docs" gives each match's document ID, index-parallel
// with it; both are omitted when rows is false or there are none. The bytes
// are exactly what encoding/json produces for the same payload, but rows go
// from the result's segments into a pooled buffer that is flushed every
// encodeFlushAt bytes — no per-cell strings, no reflection, never the whole
// body in memory. Cells are labelled through the segment, i.e. against the
// document version the query ran on. ctx is polled between segments so a
// disconnected client stops the render.
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
	out, cell := eb.out[:0], eb.cell
	defer func() {
		eb.out, eb.cell = out, cell
		encodeBufs.Put(eb)
	}()
	// flush hands the buffer to w once it is full enough.
	flush := func() error {
		if len(out) < encodeFlushAt {
			return nil
		}
		_, err := w.Write(out)
		out = out[:0]
		return err
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
			for i, n := 0, seg.Len(); i < n; i++ {
				out, sep = append(out, sep), ','
				lead := byte('[')
				for _, id := range seg.Row(i) {
					cell = sjos.AppendCell(cell[:0], seg.TagName(id), seg.Value(id), id)
					out, lead = appendJSONString(append(out, lead), cell), ','
				}
				out = append(out, ']')
				if err := flush(); err != nil {
					return err
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
			cell = appendJSONString(cell[:0], []byte(seg.DocID))
			for i, n := 0, seg.Len(); i < n; i++ {
				out, sep = append(append(out, sep), cell...), ','
				if err := flush(); err != nil {
					return err
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
