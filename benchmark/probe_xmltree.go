package main

import "sjos/internal/xmltree"

// probeXMLTree times parsing one generated document (≈105 KB of XML).
func probeXMLTree(h *harness, docs []*document) error {
	var err error
	d := medianOf(9, func() { _, err = xmltree.ParseString(docs[0].xml) })
	h.layer["xmltree.parse_ms"] = ms(d)
	return err
}
