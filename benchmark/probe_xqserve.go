package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sjos"
)

// probeXQServe measures what cmd/xqserve adds around the corpus, against the
// live server: the cost of rendering and encoding a row (the same query with
// and without count=1), the size of a row on the wire, and what a PUT costs
// beyond the in-process replace it performs. The in-process side logs to
// disk files too, so fsync is on both sides of that difference.
func probeXQServe(h *harness, docs []*document) error {
	full, counted := request{query: qPers1a}, request{query: qPers1a, countOnly: true}
	var rows uint64
	var size int64
	var err error
	get := func(r *request) func() {
		return func() {
			if n, s, e := h.cl.query(r.path()); e != nil {
				err = e
			} else if !r.countOnly {
				rows, size = n, s
			}
		}
	}
	get(&full)() // plan cached, pages resident
	fullT := medianOf(5, get(&full))
	countT := medianOf(5, get(&counted))
	if !h.op("render probe", err) || rows == 0 {
		return fmt.Errorf("render probe got no rows: %v", err)
	}
	h.layer["xqserve.render_ns_per_row"] = float64(fullT-countT) / float64(rows)
	h.layer["xqserve.resp_bytes_per_row"] = float64(size) / float64(rows)

	dir := filepath.Join(h.tmp, "twin-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := make([]sjos.PageFile, serverShards)
	for s := range files {
		if files[s], err = sjos.CreatePageFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", s))); err != nil {
			return err
		}
	}
	twin, err := newLocalCorpus(docs, func(shard int) sjos.PageFile { return files[shard] })
	if err != nil {
		return err
	}
	var overHTTP, inProcess []float64
	for i := 0; i < 5; i++ {
		d := docs[i%len(docs)] // replaced by itself: the corpus stays what it was
		t0 := time.Now()
		if !h.op("PUT "+d.id, h.cl.mutate(d.id, d.xml)) {
			return fmt.Errorf("PUT probe failed")
		}
		overHTTP = append(overHTTP, ms(time.Since(t0)))
		t0 = time.Now()
		if !h.op("in-process replace "+d.id, twin.ReplaceString(d.id, d.xml)) {
			return fmt.Errorf("PUT probe failed")
		}
		inProcess = append(inProcess, ms(time.Since(t0)))
	}
	h.layer["xqserve.put_overhead_ms"] = median(overHTTP) - median(inProcess)
	return nil
}
