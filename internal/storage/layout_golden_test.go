package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"sjos/internal/datagen"
	"sjos/internal/xmltree"
)

// updateLayoutGolden rewrites testdata/store_layout_golden.json from the
// builders under test. The committed file was recorded on the commit that
// still had a build-once layout beside the segmented one, so a plain run
// proves the one builder lays every document down on the same pages with the
// same bytes; pass the flag only from a commit whose layout you trust.
var updateLayoutGolden = flag.Bool("update-layout-golden", false, "rewrite testdata/store_layout_golden.json")

const layoutGoldenPath = "testdata/store_layout_golden.json"

// layoutGolden is one store's page file and content counters: the page
// count, a SHA-256 over every page (its id, little endian, then its bytes)
// and ContentStats.
type layoutGolden struct {
	Case    string
	Pages   int
	SHA256  string
	Content ContentStats
}

func layoutOf(t *testing.T, name string, st *Store) layoutGolden {
	t.Helper()
	h := sha256.New()
	var pg Page
	var id [4]byte
	for p := 0; p < st.File().NumPages(); p++ {
		if err := st.File().ReadPage(PageID(p), &pg); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(id[:], uint32(p))
		h.Write(id[:])
		h.Write(pg[:])
	}
	return layoutGolden{Case: name, Pages: st.File().NumPages(), SHA256: fmt.Sprintf("%x", h.Sum(nil)), Content: st.ContentStats()}
}

// TestStoreLayoutGolden holds the store builder to the recorded page files:
// a store over each data set and a forest
// store after its root, three appended members and one dropped.
func TestStoreLayoutGolden(t *testing.T) {
	var got []layoutGolden
	for _, name := range []string{datagen.NameMbench, datagen.NameDBLP, datagen.NamePers} {
		doc, err := datagen.Generate(datagen.Config{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		st, err := BuildStoreOn(NewMemFile(), doc, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The label keeps the suffix it was recorded under, when stores
		// could also be built without the value index.
		got = append(got, layoutOf(t, name+"/novidx=false", st))
	}

	forest := xmltree.NewForest()
	st, err := BuildStoreOn(NewMemFile(), forest, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var span xmltree.DocSpan
		if forest, span, err = xmltree.AppendMember(forest, datagen.Pers(1, int64(1+i))); err != nil {
			t.Fatal(err)
		}
		stage, err := st.StageSegment(forest, span)
		if err != nil {
			t.Fatal(err)
		}
		if st, err = st.CommitStage(stage); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = st.DropSegment(forest, 2); err != nil {
		t.Fatal(err)
	}
	got = append(got, layoutOf(t, "forest/3-appends-1-drop", st))

	if *updateLayoutGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(layoutGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(layoutGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []layoutGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d stores, golden has %d", len(got), len(want))
	}
	var diffs []string
	for i := range got {
		if got[i] != want[i] {
			diffs = append(diffs, fmt.Sprintf(" got %+v\nwant %+v", got[i], want[i]))
		}
	}
	if diffs != nil {
		t.Fatalf("%d of %d stores differ from the golden:\n%s", len(diffs), len(got), strings.Join(diffs, "\n"))
	}
}
