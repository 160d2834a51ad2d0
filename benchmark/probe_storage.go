package main

import (
	"fmt"
	"path/filepath"
	"time"

	"sjos"
	"sjos/internal/pattern"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// walProbeTxns is the length of the log the append and replay probes use.
const walProbeTxns = 100

// probeStorage measures internal/storage on one generated document: building
// its store, scanning every tag's postings through the default buffer pool
// and through one of 8 frames (the larger-than-cache case no HTTP workload
// reaches), one value-index probe, and the write-ahead log on a disk file —
// appending document-sized transactions, fsync included, and reading them
// back as recovery does.
func probeStorage(h *harness, docs []*document) error {
	doc := docs[0].tree
	var store *storage.Store
	var err error
	build := medianOf(5, func() {
		if s, e := storage.BuildStore(doc, 0); e != nil {
			err = e
		} else {
			store = s
		}
	})
	if err != nil {
		return err
	}
	h.layer["storage.build_ms"] = ms(build)

	scanAll := func(s *storage.Store) (postings int, err error) {
		for t := 0; t < doc.NumTags(); t++ {
			sc := s.ScanTag(xmltree.TagID(t))
			for {
				_, _, ok, err := sc.Next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				postings++
			}
		}
		return postings, nil
	}
	perPosting := func(s *storage.Store) (float64, error) {
		if _, err := scanAll(s); err != nil { // first touch of every page
			return 0, err
		}
		var n int
		var err error
		d := medianOf(9, func() { n, err = scanAll(s) })
		return float64(d) / float64(n), err
	}
	if h.layer["storage.scan_warm_ns_per_posting"], err = perPosting(store); err != nil {
		return err
	}
	small, err := storage.BuildStore(doc, 8)
	if err != nil {
		return err
	}
	if h.layer["storage.scan_cold_ns_per_posting"], err = perPosting(small); err != nil {
		return err
	}

	names, err := rowsByName(docs[:1], `//employee[name]`)
	if err != nil {
		return err
	}
	var probes []float64
	for v := range names {
		if len(probes) == 64 {
			break
		}
		t0 := time.Now()
		sc, ok := store.ProbeValue("name", pattern.CmpEq, v)
		if !ok {
			return fmt.Errorf("value index refused name=%q", v)
		}
		for {
			_, _, more, err := sc.Next()
			if err != nil {
				return err
			}
			if !more {
				break
			}
		}
		probes = append(probes, float64(time.Since(t0))/1e3)
	}
	h.layer["storage.probe_us"] = median(probes)

	// A transaction the size of one document's: its text as the image, and
	// as many page images as its store has pages.
	images := make([]storage.WALPageImage, store.File().NumPages())
	for i := range images {
		images[i].Page = storage.PageID(i)
	}
	txn := []storage.WALDoc{{ID: "probe", Image: []byte(docs[0].xml)}}
	path := filepath.Join(h.tmp, "probe.wal")
	file, err := sjos.CreatePageFile(path)
	if err != nil {
		return err
	}
	wal, _, err := storage.OpenWAL(file)
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < walProbeTxns; i++ {
		t0 := time.Now()
		if _, err := wal.Append(storage.WALInsert, txn, images); err != nil {
			return err
		}
		appends = append(appends, float64(time.Since(t0))/1e3)
	}
	h.layer["storage.wal_append_us"] = median(appends)
	var replayed int
	replay := medianOf(3, func() {
		_, txns, e := storage.OpenWAL(file)
		replayed, err = len(txns), e
	})
	if err != nil {
		return err
	}
	if replayed != walProbeTxns {
		return fmt.Errorf("log replay returned %d of %d transactions", replayed, walProbeTxns)
	}
	h.layer["storage.wal_replay_ms"] = ms(replay)
	return nil
}
