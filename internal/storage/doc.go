// Package storage is the paged storage manager underneath the XML store —
// the stand-in for the SHORE storage manager that Timber uses in the paper.
//
// It provides:
//
//   - PageFile: a page-addressed file abstraction (an in-memory backend is
//     provided; all access is counted so experiments can report physical
//     reads),
//   - BufferPool: a fixed-capacity LRU buffer with pin counts, in the style
//     of a classic database buffer manager (the paper uses a 16 MB SHORE
//     pool; ours defaults to the equivalent number of 8 KB frames),
//   - Store: a list of segments (a built document is segment 0, an appended
//     forest member one more), each a contiguous NodeID range whose element
//     nodes are serialised as fixed-width records into pages, followed by
//     its postings,
//   - TagIndex: the element-tag index that query plans use for leaf access
//     ("index access" in the paper's cost model, cost f_I × n): per-tag
//     postings of NodeIDs in document order, stored in pages.
//
// All reads go through the buffer pool, so its statistics (hits, misses)
// reflect the physical behaviour the cost model's f_IO factor abstracts.
package storage
