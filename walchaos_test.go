package sjos

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
)

// The kill-point chaos matrix: one scripted mutation history is run with a
// crash (or torn write) injected at every write ordinal of the WAL file in
// turn, then recovered from the surviving bytes. The invariant under test
// is the write path's atomicity: whatever the kill point, the recovered
// corpus equals a state of the committed history — never a torn blend —
// and every optimization method agrees on it in both execution modes.

// chaosScript is the mutation history; chaosStates[i] is the expected state
// after the first i mutations (distinct match counts, so a count identifies
// the state).
var chaosScript = []struct {
	op string
	id string
	n  int
}{
	{"ins", "a", 3}, {"ins", "b", 4}, {"del", "a", 0}, {"ins", "c", 5}, {"rep", "b", 6},
}

var chaosStates = []struct {
	count int
	ids   string
}{
	{0, "[]"},
	{3, "[a]"},
	{7, "[a b]"},
	{4, "[b]"},
	{9, "[b c]"},
	// Replace drops the old member and appends the new one, so b moves to
	// the end of span order.
	{11, "[c b]"},
}

const chaosQuery = "//order//item/name"

// chaosCount runs the probe query and returns its match count.
func chaosCount(c *Corpus, opts ExecOptions) (int, error) {
	res, err := c.QueryContext(context.Background(), chaosQuery, QueryOptions{ExecOptions: opts})
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// chaosOpen builds a corpus logging to wal with its primary store on store
// (nil: memory) — or, when wal already holds committed transactions,
// recovers it: the recovery entry point.
type chaosOpen func(wal, store PageFile, compactThr float64) (*Corpus, error)

// chaosFacades are the matrix inputs.
var chaosFacades = []struct {
	name string
	open chaosOpen
}{
	// One shard, so the one WAL sees every mutation — the single writable
	// store; two replicas, so the follower apply path rides along on every
	// commit.
	{"corpus-1x2", func(wal, store PageFile, compactThr float64) (*Corpus, error) {
		return NewCorpusBuilder(&CorpusOptions{
			Shards:           1,
			ReplicasPerShard: 2,
			ShardWALFile:     func(int) PageFile { return wal },
			ShardPageFile: func(_, replica int) PageFile {
				if replica == 0 {
					return store
				}
				return nil
			},
			CompactThreshold: compactThr,
		}).Build()
	}},
}

// applyChaosScript runs the script until the first error, returning how
// many mutations reported success.
func applyChaosScript(db *Corpus) int {
	for i, s := range chaosScript {
		var err error
		switch s.op {
		case "ins":
			err = db.InsertString(s.id, orderXML(s.n))
		case "del":
			err = db.Delete(s.id)
		case "rep":
			err = db.ReplaceString(s.id, orderXML(s.n))
		}
		if err != nil {
			return i
		}
	}
	return len(chaosScript)
}

// chaosStateOf maps an observed match count back to the history state it
// represents (-1: no committed state has this count — a torn blend).
func chaosStateOf(count int) int {
	for i, st := range chaosStates {
		if st.count == count {
			return i
		}
	}
	return -1
}

// chaosStateNow reads the handle's current history state off its count.
func chaosStateNow(t *testing.T, db *Corpus, label string) int {
	t.Helper()
	n, err := chaosCount(db, ExecOptions{Method: MethodDPP})
	if err != nil {
		t.Fatalf("%s: count query: %v", label, err)
	}
	return chaosStateOf(n)
}

// verifyChaosState checks the handle is exactly chaosStates[want] under all
// five paper methods.
func verifyChaosState(t *testing.T, db *Corpus, want int, label string) {
	t.Helper()
	if got := fmt.Sprint(db.DocIDs()); got != chaosStates[want].ids {
		t.Fatalf("%s: members %s, want %s", label, got, chaosStates[want].ids)
	}
	for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP} {
		n, err := chaosCount(db, ExecOptions{Method: m})
		if err != nil {
			t.Fatalf("%s: %v: %v", label, m, err)
		}
		if n != chaosStates[want].count {
			t.Fatalf("%s: %v: %d matches, want %d", label, m, n, chaosStates[want].count)
		}
	}
}

// forEachChaosFacade runs one matrix against every facade.
func forEachChaosFacade(t *testing.T, fn func(t *testing.T, open chaosOpen)) {
	for _, f := range chaosFacades {
		t.Run(f.name, func(t *testing.T) { fn(t, f.open) })
	}
}

// chaosWriteBudget measures how many writes the full script costs the file
// under test (the WAL, or with faultStore the store file), so a matrix can
// enumerate every ordinal.
func chaosWriteBudget(t *testing.T, open chaosOpen, faultStore bool) int {
	t.Helper()
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	wal, store := PageFile(ff), PageFile(nil)
	if faultStore {
		wal, store = storage.NewMemFile(), ff
	}
	db, err := open(wal, store, -1)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetPolicy(faultfs.Policy{}) // reset counters past the bootstrap
	if n := applyChaosScript(db); n != len(chaosScript) {
		t.Fatalf("fault-free script stopped at %d", n)
	}
	w := int(ff.Stats().Writes)
	if w == 0 {
		t.Fatal("script wrote nothing to the file under test")
	}
	return w
}

// TestWALChaosKillPointMatrix crashes the WAL file after every write
// ordinal in turn: the surviving mutation must report failure (or, when the
// commit record landed before the lost fsync acknowledgement, may have
// committed), and recovery must land exactly on the committed prefix —
// either fully pre- or fully post-commit of the interrupted transaction.
func TestWALChaosKillPointMatrix(t *testing.T) {
	forEachChaosFacade(t, func(t *testing.T, open chaosOpen) {
		writes := chaosWriteBudget(t, open, false)
		t.Logf("script costs %d WAL writes; crashing after each", writes)
		for k := 1; k <= writes; k++ {
			ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			db, err := open(ff, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetPolicy(faultfs.Policy{CrashAfterNWrites: k})
			committed := applyChaosScript(db)
			label := fmt.Sprintf("kill-point %d (committed %d)", k, committed)
			if committed == len(chaosScript) {
				t.Fatalf("%s: script survived the crash", label)
			}

			// The pre-crash handle must keep serving reads on its last
			// published snapshot, whatever state the write path is in.
			if got := chaosStateNow(t, db, label); got < committed || got > committed+1 {
				t.Fatalf("%s: live handle shows state %d", label, got)
			}

			rec, err := open(ff.Inner(), nil, 0)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			got := chaosStateNow(t, rec, label)
			if got != committed && got != committed+1 {
				t.Fatalf("%s: recovered state %d, want %d or %d", label, got, committed, committed+1)
			}
			verifyChaosState(t, rec, got, label)

			// The recovered handle accepts new work.
			if err := rec.InsertString("fresh", orderXML(2)); err != nil {
				t.Fatalf("%s: post-recovery insert: %v", label, err)
			}
			if n, err := chaosCount(rec, ExecOptions{Method: MethodDPP}); err != nil || n != chaosStates[got].count+2 {
				t.Fatalf("%s: post-recovery insert not visible (count %d, err %v)", label, n, err)
			}
		}
	})
}

// TestWALChaosTornWriteMatrix tears every WAL write ordinal in turn: the
// torn page persists a prefix and reports success, so the running process
// never notices — recovery must detect the damage by checksum and land on
// the longest intact committed prefix, never a torn blend.
func TestWALChaosTornWriteMatrix(t *testing.T) {
	forEachChaosFacade(t, func(t *testing.T, open chaosOpen) {
		writes := chaosWriteBudget(t, open, false)
		for k := 1; k <= writes; k++ {
			ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			db, err := open(ff, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetPolicy(faultfs.Policy{TornWrite: k, Seed: int64(k)})
			committed := applyChaosScript(db)
			label := fmt.Sprintf("torn write %d (committed %d)", k, committed)
			if committed != len(chaosScript) {
				t.Fatalf("%s: torn write was visible to the writer", label)
			}
			rec, err := open(ff.Inner(), nil, 0)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			got := chaosStateNow(t, rec, label)
			if got < 0 || got > committed {
				t.Fatalf("%s: recovered state %d not a committed prefix", label, got)
			}
			verifyChaosState(t, rec, got, label)
		}
	})
}

// TestWALChaosStoreCrash crashes the (primary) store file, not the WAL, at
// every write ordinal: the WAL commit always precedes store writes, so the
// failing mutation is durably committed but unapplied — the handle must
// poison its write path (ErrBroken), keep serving the last snapshot, and
// recovery must show the interrupted mutation applied.
func TestWALChaosStoreCrash(t *testing.T) {
	forEachChaosFacade(t, func(t *testing.T, open chaosOpen) {
		writes := chaosWriteBudget(t, open, true)
		for k := 1; k <= writes; k++ {
			wal := storage.NewMemFile()
			sf := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			db, err := open(wal, sf, -1)
			if err != nil {
				t.Fatal(err)
			}
			sf.SetPolicy(faultfs.Policy{CrashAfterNWrites: k})
			committed := applyChaosScript(db)
			label := fmt.Sprintf("store kill-point %d (committed %d)", k, committed)
			if committed == len(chaosScript) {
				t.Fatalf("%s: script survived the crash", label)
			}
			if db.IngestStats().BrokenShards == 0 {
				t.Fatalf("%s: write path not poisoned after post-commit failure", label)
			}
			if err := db.InsertString("more", orderXML(1)); !errors.Is(err, ErrBroken) {
				t.Fatalf("%s: poisoned handle answered a mutation with %v, want ErrBroken", label, err)
			}

			rec, err := open(wal, nil, 0)
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", label, err)
			}
			got := chaosStateNow(t, rec, label)
			if got != committed+1 {
				t.Fatalf("%s: recovered state %d, want %d (the committed-but-unapplied mutation)",
					label, got, committed+1)
			}
			verifyChaosState(t, rec, got, label)
		}
	})
}
