package main

import (
	"strings"
	"testing"
)

func TestScanResponse(t *testing.T) {
	body := `{"count":3,"matches":[["manager#1","name=\"a]\\\"b\""],["manager#9","name=\"c\""],["manager#2","name=\"[d\""]],` +
		`"docs":["doc-00","doc-00","doc-03"],"plan":"STJ [x] {y}","cached_plan":true,"optimize_ns":12,"execute_ns":34,"shards_queried":4}` + "\n"
	got, err := scanResponse(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got.count != 3 || got.rows != 3 || got.cells != 6 || got.docIDs != 3 {
		t.Errorf("scanned %+v", got)
	}
	if got.perDoc["doc-00"] != 2 || got.perDoc["doc-03"] != 1 || len(got.perDoc) != 2 {
		t.Errorf("per document: %v", got.perDoc)
	}
	counted, err := scanResponse(strings.NewReader(`{"count":4551,"plan":"p","cached_plan":false}`))
	if err != nil || counted.count != 4551 || counted.rows != 0 {
		t.Errorf("count-only: %+v, %v", counted, err)
	}
	for _, bad := range []string{`{"count":3,"matches":[["a"]`, `{"plan":"p"}`, ``} {
		if _, err := scanResponse(strings.NewReader(bad)); err == nil {
			t.Errorf("%q scanned without error", bad)
		}
	}
}
