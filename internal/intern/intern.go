// Package intern provides a small string intern table. XML documents repeat
// text values heavily (categorical fields, enumerations, numeric codes), so
// the document builder and the content index canonicalise value strings
// through a Table: equal values share one backing allocation, cutting both
// retained memory and the per-value allocations on the load path.
package intern

// Table deduplicates strings. It is not safe for concurrent use; the
// builders that own one run single-threaded.
type Table struct {
	m          map[string]string
	hits       uint64
	misses     uint64
	bytesSaved uint64
}

// New returns an empty intern table.
func New() *Table { return NewSized(0) }

// NewSized returns an empty intern table with room for n distinct strings,
// for builders that can estimate their output: the table then fills without
// rehashing.
func NewSized(n int) *Table {
	return &Table{m: make(map[string]string, n)}
}

// Intern returns the canonical copy of s, registering s itself on first
// sight. The empty string is always canonical.
func (t *Table) Intern(s string) string {
	if s == "" {
		return ""
	}
	if c, ok := t.m[s]; ok {
		t.hits++
		t.bytesSaved += uint64(len(s))
		return c
	}
	t.misses++
	t.m[s] = s
	return s
}

// InternBytes is Intern for a byte slice: a hit costs no allocation at all
// (the map lookup does not materialise the key), so repeated values read
// from a parser or an image stream are deduplicated for free.
func (t *Table) InternBytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if c, ok := t.m[string(b)]; ok {
		t.hits++
		t.bytesSaved += uint64(len(b))
		return c
	}
	t.misses++
	s := string(b)
	t.m[s] = s
	return s
}

// Stats is a point-in-time snapshot of a Table's behaviour.
type Stats struct {
	// Strings is the number of distinct strings held.
	Strings uint64
	// Hits and Misses count Intern calls that found / registered a string.
	Hits   uint64
	Misses uint64
	// BytesSaved is the total length of deduplicated (hit) strings — the
	// allocation volume interning avoided retaining.
	BytesSaved uint64
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() Stats {
	return Stats{
		Strings:    uint64(len(t.m)),
		Hits:       t.hits,
		Misses:     t.misses,
		BytesSaved: t.bytesSaved,
	}
}
