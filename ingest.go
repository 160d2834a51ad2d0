package sjos

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// The Database write facade. An ingestion-enabled database (Options.WALFile)
// sits on a forest engine; every mutation passes the service's write
// envelope, runs the engine's commit protocol (see engine.go), and re-merges
// the statistics over the members' parts — the stats-version bump
// invalidates every cached plan.

// SeedDocID is the member ID under which a document passed to LoadXML /
// OpenImage / GenerateDataset is registered when ingestion is enabled.
const SeedDocID = "doc"

// DefaultCompactThreshold is the dead-node fraction past which a delete or
// replace triggers automatic compaction (see Options.CompactThreshold).
const DefaultCompactThreshold = 0.5

// ErrNoWAL is returned by the mutation entry points of a database built
// without Options.WALFile.
var ErrNoWAL = errors.New("sjos: write path disabled (database built without Options.WALFile)")

// ErrBroken means a mutation failed after its WAL commit (or with an
// unknowable fsync outcome): the in-memory state may trail the durable log,
// so the write path is poisoned. Reads continue on the last published
// snapshot; reopening from the WAL recovers the committed state.
var ErrBroken = errors.New("sjos: write path broken after a committed mutation; reopen from the WAL to recover")

// OpenDatabase opens an ingestion-enabled database from its write-ahead log:
// with an empty WAL it starts empty (the log is seeded with an empty base
// snapshot); with a WAL holding committed transactions it recovers the exact
// committed state — the crash-recovery entry point. opts.WALFile (or the
// WALPath convenience) is required; the store file (Options.PageFile /
// DiskPath / memory) must be fresh, as recovery rebuilds it from the log.
func OpenDatabase(opts *Options) (*Database, error) {
	if opts == nil || (opts.WALFile == nil && opts.WALPath == "") {
		return nil, fmt.Errorf("sjos: OpenDatabase requires Options.WALFile or Options.WALPath")
	}
	return fromDocument(nil, opts)
}

// parseMutation parses the document a mutation carries (a delete carries
// none: nil r).
func parseMutation(r io.Reader) (*xmltree.Document, error) {
	if r == nil {
		return nil, nil
	}
	return xmltree.Parse(r)
}

// mutate commits one mutation through the write envelope.
func (db *Database) mutate(op storage.WALOp, id string, r io.Reader) error {
	doc, err := parseMutation(r)
	if err != nil {
		return err
	}
	return db.svc.write(db.eng, op, func() error { return db.eng.apply(op, id, doc) }, db.refreshStats)
}

// Insert parses an XML document from r and commits it under id. The
// document is queryable exactly when Insert returns nil; on error the
// database is unchanged (unless the error wraps ErrBroken — see ErrBroken).
func (db *Database) Insert(id string, r io.Reader) error {
	return db.mutate(storage.WALInsert, id, r)
}

// InsertString is Insert over a string.
func (db *Database) InsertString(id, src string) error {
	return db.Insert(id, strings.NewReader(src))
}

// Delete commits the removal of the document with the given id. Its
// segment's postings leave every index view; the pages are reclaimed by the
// next compaction (automatic past the dead-fraction threshold).
func (db *Database) Delete(id string) error {
	return db.mutate(storage.WALDelete, id, nil)
}

// Replace atomically substitutes the document under id: one committed
// transaction removes the old version and inserts the new one — readers see
// either both or neither.
func (db *Database) Replace(id string, r io.Reader) error {
	return db.mutate(storage.WALReplace, id, r)
}

// ReplaceString is Replace over a string.
func (db *Database) ReplaceString(id, src string) error {
	return db.Replace(id, strings.NewReader(src))
}

// Compact rewrites the store without its dead segments: the live members are
// re-logged as a fresh WAL base snapshot (bounding recovery replay), then
// rebuilt into a fresh store file through the same staging path as normal
// appends. Published snapshots in flight stay valid; the new snapshot's
// member spans are renumbered.
func (db *Database) Compact() error {
	return db.svc.write(db.eng, storage.WALSnapshot, db.eng.compact, db.refreshStats)
}

// IngestEnabled reports whether the database was built with a write path
// (Options.WALFile): whether its engine has a log.
func (db *Database) IngestEnabled() bool { return db.eng.wal != nil }

// NumMembers returns the number of live member documents (1 for a static
// database — its single document).
func (db *Database) NumMembers() int { return len(db.eng.view().members) }

// MemberIDs returns the live member document IDs in node-range order (the
// order their matches appear in query results). Static databases return nil.
func (db *Database) MemberIDs() []string {
	if !db.IngestEnabled() {
		return nil
	}
	sn := db.eng.view()
	out := make([]string, len(sn.members))
	for i, m := range sn.members {
		out[i] = m.id
	}
	return out
}

// HasMember reports whether a live member with the given ID exists (never,
// for a static database).
func (db *Database) HasMember(id string) bool {
	_, ok := db.eng.view().memberIdx[id]
	return ok && db.IngestEnabled()
}

// MemberOf returns the ID of the live member document owning a matched
// node, for attributing query matches to documents. ok is false for static
// databases and for nodes of no live member (the synthetic root).
func (db *Database) MemberOf(id NodeID) (string, bool) {
	if !db.IngestEnabled() {
		return "", false
	}
	for _, m := range db.eng.view().members {
		if m.span.Contains(id) {
			return m.id, true
		}
	}
	return "", false
}

// IngestStats is a snapshot of the write path's state.
type IngestStats struct {
	// Members is the live member count; DeadFraction the fraction of stored
	// nodes belonging to deleted members (compaction reclaims them).
	Members      int
	DeadFraction float64
	// WALPages is the write-ahead log's current length in pages.
	WALPages int
	// Compactions counts store rewrites (explicit and automatic).
	Compactions int
	// StatsVersion is the statistics version mutations bump (plan-cache
	// entries are keyed by it).
	StatsVersion uint64
	// Broken reports a poisoned write path (see ErrBroken).
	Broken bool
	// RecoveredTxns is how many logged transactions the last open replayed —
	// the last base snapshot and everything after it — and RecoverySeconds how
	// long it spent reading the log and replaying them. Both are zero for a
	// database opened on an empty log.
	RecoveredTxns   int
	RecoverySeconds float64
}

// IngestStats returns a snapshot of the write path's state (zero value for
// databases without one).
func (db *Database) IngestStats() IngestStats {
	if !db.IngestEnabled() {
		return IngestStats{}
	}
	db.svc.wmu.Lock()
	defer db.svc.wmu.Unlock()
	st := db.eng.ingestStats()
	_, st.StatsVersion = db.svc.snapshot()
	return st
}
