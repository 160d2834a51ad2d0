package main

import (
	"time"

	"sjos"
)

// probeIngest measures the root package's write path in process, on a
// freshly loaded corpus with in-memory logs: one whole-document insert, replace and delete, five times
// over, and how many log pages a document costs.
func probeIngest(h *harness, c *sjos.Corpus, docs []*document) error {
	h.layer["storage.wal_pages_per_doc"] = float64(c.IngestStats().WALPages) / float64(len(docs))
	var ins, rep, del []float64
	timed := func(into *[]float64, fn func() error) error {
		t0 := time.Now()
		err := fn()
		*into = append(*into, ms(time.Since(t0)))
		return err
	}
	for i := 0; i < 5; i++ {
		a, b := docs[i%len(docs)].xml, docs[(i+1)%len(docs)].xml
		if err := timed(&ins, func() error { return c.InsertString("probe", a) }); err != nil {
			return err
		}
		if err := timed(&rep, func() error { return c.ReplaceString("probe", b) }); err != nil {
			return err
		}
		if err := timed(&del, func() error { return c.Delete("probe") }); err != nil {
			return err
		}
	}
	h.layer["ingest.insert_ms"], h.layer["ingest.replace_ms"], h.layer["ingest.delete_ms"] = median(ins), median(rep), median(del)
	return nil
}
