package sjos

import (
	"errors"
	"io"
	"strings"

	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// The write path. A corpus built with CorpusOptions.ShardWALFile routes
// each mutation to the owning shard (by consistent hashing of the document
// ID, exactly like Build): the shard's primary engine commits it through its
// own WAL (see engine.go), follower engines apply the already-committed
// mutation without logging, and the corpus then publishes a fresh
// membership directory and re-merges the statistics — once, whatever the
// replica count; the stats-version bump invalidates every cached plan.
// Queries pin one directory and one snapshot per shard, so they always
// observe committed states. A one-shard corpus is the single writable store.
//
// Durability is per shard: recovering a crashed corpus means rebuilding it
// with the same ShardWALFile mapping (and shard count — the hash ring must
// route IDs identically), which replays every shard's committed log.

// DefaultCompactThreshold is the dead-node fraction past which a delete or
// replace triggers automatic compaction of a shard (see
// CorpusOptions.CompactThreshold).
const DefaultCompactThreshold = 0.5

// ErrNoWAL is returned by the mutation entry points of a corpus built
// without CorpusOptions.ShardWALFile.
var ErrNoWAL = errors.New("sjos: write path disabled (corpus built without CorpusOptions.ShardWALFile)")

// ErrBroken means a mutation failed after its WAL commit (or with an
// unknowable fsync outcome): the shard's in-memory state may trail its
// durable log, so its write path is poisoned. Reads continue on the last
// published snapshot; rebuilding the corpus from its logs recovers the
// committed state.
var ErrBroken = errors.New("sjos: write path broken after a committed mutation; rebuild from the WAL to recover")

// parseMutation parses the document a mutation carries (a delete carries
// none: nil r).
func parseMutation(r io.Reader) (*xmltree.Document, error) {
	if r == nil {
		return nil, nil
	}
	return xmltree.Parse(r)
}

// IngestEnabled reports whether the corpus was built with a write path
// (CorpusOptions.ShardWALFile).
func (c *Corpus) IngestEnabled() bool { return c.ingest }

// Insert parses an XML document from r and commits it under id on the
// owning shard. The document is visible to queries exactly when Insert
// returns nil; on error the corpus is unchanged (unless the error wraps
// ErrBroken).
func (c *Corpus) Insert(id string, r io.Reader) error {
	return c.mutate(storage.WALInsert, id, r)
}

// InsertString is Insert over a string.
func (c *Corpus) InsertString(id, src string) error {
	return c.Insert(id, strings.NewReader(src))
}

// Delete commits the removal of the document with the given id. Its
// segment's postings leave every index view; the pages are reclaimed by the
// shard's next compaction (past CorpusOptions.CompactThreshold).
func (c *Corpus) Delete(id string) error {
	return c.mutate(storage.WALDelete, id, nil)
}

// Replace atomically substitutes the document under id: one committed
// transaction removes the old version and inserts the new one — readers see
// either both or neither.
func (c *Corpus) Replace(id string, r io.Reader) error {
	return c.mutate(storage.WALReplace, id, r)
}

// ReplaceString is Replace over a string.
func (c *Corpus) ReplaceString(id, src string) error {
	return c.Replace(id, strings.NewReader(src))
}

// mutate routes one mutation to its shard through the write envelope and
// publishes the outcome.
func (c *Corpus) mutate(op storage.WALOp, id string, r io.Reader) error {
	doc, err := parseMutation(r)
	if err != nil {
		return err
	}
	var primary *engine
	sh := c.shards[c.ring.Shard(id)]
	if sh != nil {
		primary = sh.meta()
	}
	// The primary decides the mutation's fate: until its WAL commit
	// succeeds, nothing changed anywhere.
	return c.svc.write(primary, op, func() error { return primary.apply(op, id, doc) }, func() {
		// Followers apply the committed mutation; one that cannot has
		// diverged from the shard and leaves routing for good.
		for _, rep := range sh.replicas[1:] {
			if !rep.down.Load() && rep.eng.apply(op, id, doc) != nil {
				rep.down.Store(true)
			}
		}
		// Publish the new membership directory. Views already pinned keep
		// working: their per-shard snapshots were published by the replica
		// mutations above, and the gather tolerates directory/snapshot skew.
		cv := c.view()
		nv := &corpusView{byID: make(map[string]int, len(cv.byID)+1)}
		for _, d := range cv.ids {
			if d != id {
				nv.ids = append(nv.ids, d)
				nv.byID[d] = cv.byID[d]
			}
		}
		// An inserted or replaced document goes to the end of the directory,
		// where its shard lays down the new segment: within every shard,
		// directory order stays node order, which a Limit's per-shard prefix
		// and a recovered shard both rely on.
		if op != storage.WALDelete {
			nv.ids = append(nv.ids, id)
			nv.byID[id] = sh.id
		}
		c.live.Store(nv)
		c.refreshStats()
	})
}

// CorpusIngestStats aggregates the write-path state across shards.
type CorpusIngestStats struct {
	// Docs is the live document count; Shards the ring size.
	Docs   int
	Shards int
	// Compactions sums the shards' store rewrites; WALPages their log
	// lengths.
	Compactions int
	WALPages    int
	// BrokenShards counts shards whose primary write path is poisoned;
	// DownReplicas counts followers removed from routing.
	BrokenShards int
	DownReplicas int
	// RecoveredTxns sums the logged transactions the shards replayed when
	// the corpus was built (each shard's last base snapshot and everything
	// after it); RecoverySeconds is how long the build took to bring all of
	// them back, side by side. Both are zero when every log was empty.
	RecoveredTxns   int
	RecoverySeconds float64
}

// IngestStats returns the corpus write path's aggregated state (zero value
// for a read-only corpus).
func (c *Corpus) IngestStats() CorpusIngestStats {
	if !c.ingest {
		return CorpusIngestStats{}
	}
	c.svc.wmu.Lock()
	defer c.svc.wmu.Unlock()
	st := CorpusIngestStats{Docs: c.NumDocs(), Shards: len(c.shards), RecoverySeconds: c.recoverTook.Seconds()}
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		sh.meta().addIngestStats(&st)
		for _, rep := range sh.replicas[1:] {
			if rep.down.Load() {
				st.DownReplicas++
			}
		}
	}
	return st
}
