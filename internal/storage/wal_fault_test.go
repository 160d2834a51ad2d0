package storage_test

import (
	"errors"
	"fmt"
	"testing"

	"sjos/internal/faultfs"
	. "sjos/internal/storage"
)

// A page of the log that cannot be read is not the end of the log. The open
// fails with the read error — still marked transient when it was, so a retry
// heals it — instead of returning a history cut at that page, whose next
// append would overwrite the committed transactions behind it.
func TestWALReadErrorFailsOpen(t *testing.T) {
	inner := NewMemFile()
	w, _, err := OpenWAL(inner)
	if err != nil {
		t.Fatal(err)
	}
	const txns = 5
	for i := 0; i < txns; i++ {
		if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: fmt.Sprint(i), Image: []byte("image")}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for nth := 1; nth <= inner.NumPages(); nth++ {
		for _, transient := range []bool{true, false} {
			file := faultfs.Wrap(inner, faultfs.Policy{FailNthRead: nth, Transient: transient})
			w, got, err := OpenWAL(file)
			if !errors.Is(err, faultfs.ErrInjected) || w != nil || got != nil {
				t.Fatalf("read %d failing (transient %v): OpenWAL returned %v, %d txns, %v; want the read error alone", nth, transient, w, len(got), err)
			}
			if IsTransient(err) != transient {
				t.Fatalf("read %d failing: error %v is transient %v, want %v", nth, err, IsTransient(err), transient)
			}
			// A blip is gone on the second attempt; a dead device is not.
			_, got, err = OpenWAL(file)
			if transient && (err != nil || len(got) != txns) {
				t.Fatalf("retry after a transient failure of read %d: %d txns, %v", nth, len(got), err)
			}
			if !transient && err == nil {
				t.Fatalf("retry after a permanent failure of read %d succeeded", nth)
			}
		}
	}
	if _, got, err := OpenWAL(inner); err != nil || len(got) != txns {
		t.Fatalf("the log itself: %d txns, %v", len(got), err)
	}
}
