package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client talks to one server over one keep-alive connection.
type client struct {
	http *http.Client
	base string
}

// requestTimeout bounds every single HTTP request; the heaviest one takes
// about 6 s at the seed commit, so a request that needs a minute has hung.
const requestTimeout = 60 * time.Second

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

const countPrefix = `{"count":`

// query sends one GET and returns the response's "count" and size. The body
// is read and thrown away: only its first bytes, where xqserve puts the
// count, are looked at, so the timed path does no JSON decoding — that would
// take the core the server needs.
func (c *client) query(path string) (count uint64, size int64, err error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var head [32]byte
	n, err := io.ReadFull(resp.Body, head[:])
	if err != nil && err != io.ErrUnexpectedEOF {
		return 0, 0, err
	}
	rest, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(head[:n]))
	}
	digits, ok := bytes.CutPrefix(head[:n], []byte(countPrefix))
	if !ok {
		return 0, 0, fmt.Errorf("GET %s: body starts %q, want %s", path, head[:n], countPrefix)
	}
	end := 0
	for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
		end++
	}
	count, err = strconv.ParseUint(string(digits[:end]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("GET %s: no count in %q", path, head[:n])
	}
	return count, int64(n) + rest, nil
}

// mutate sends a PUT (body != "") or DELETE for one document.
func (c *client) mutate(id, body string) error {
	method, rd := http.MethodDelete, io.Reader(nil)
	if body != "" {
		method, rd = http.MethodPut, strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+"/docs/"+id, rd)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /docs/%s: status %d: %s", method, id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// verify fetches the request once more and checks the whole response against
// the oracle: count, number of match rows, cells per row, and how the rows
// split over documents. width is the pattern's node count.
func (c *client) verify(r *request, width int) error {
	resp, err := c.http.Get(c.base + r.path())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	got, err := scanResponse(resp.Body)
	if err != nil {
		return err
	}
	want := r.wantCount()
	if got.count != want {
		return fmt.Errorf("count %d, oracle says %d", got.count, want)
	}
	if r.countOnly {
		if got.rows != 0 {
			return fmt.Errorf("count=1 response carries %d rows", got.rows)
		}
		return nil
	}
	if got.rows != want || got.cells != want*uint64(width) || got.docIDs != want {
		return fmt.Errorf("%d rows, %d cells, %d doc IDs; want %d rows of %d", got.rows, got.cells, got.docIDs, want, width)
	}
	for id, n := range got.perDoc {
		// Under a limit the rows are some prefix; any document may supply them.
		if w, ok := r.want.perDoc[id]; !ok || (r.limit == 0 && n != w) || n > w {
			return fmt.Errorf("document %q has %d rows, oracle says %d", id, n, w)
		}
	}
	if r.limit == 0 && len(got.perDoc) != len(r.want.perDoc) {
		return fmt.Errorf("rows from %d documents, oracle says %d", len(got.perDoc), len(r.want.perDoc))
	}
	return nil
}

// scanned is what scanResponse reads off a /query body.
type scanned struct {
	count  uint64
	rows   uint64 // arrays inside "matches"
	cells  uint64 // strings inside those arrays
	docIDs uint64 // strings inside "docs"
	perDoc map[string]uint64
}

// scanResponse walks a /query response without building it: a 121 MB body
// decoded into [][]string costs seconds and a gigabyte; counting brackets and
// strings costs neither. It tracks nesting depth, string state and the current
// top-level key, which is all the checks above need.
func scanResponse(body io.Reader) (scanned, error) {
	out := scanned{perDoc: map[string]uint64{}}
	var (
		depth    int
		inString bool
		escaped  bool
		str      []byte // current string, kept only at depth ≤ 2
		key      string // current top-level key
		last     string // last depth-1 string, a key if ':' follows
		number   []byte
		sawCount bool
	)
	br := bufio.NewReaderSize(body, 1<<18)
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		if inString {
			switch {
			case escaped:
				escaped = false
			case b == '\\':
				escaped = true
			case b == '"':
				inString = false
				switch {
				case depth == 1:
					last = string(str)
				case key == "matches" && depth == 3:
					out.cells++
				case key == "docs" && depth == 2:
					out.docIDs++
					out.perDoc[string(str)]++
				}
				continue
			}
			if depth <= 2 {
				str = append(str, b)
			}
			continue
		}
		if key == "count" && depth == 1 && b >= '0' && b <= '9' {
			number = append(number, b)
			continue
		}
		switch b {
		case '"':
			inString, str = true, str[:0]
		case ':':
			if depth == 1 {
				key = last
			}
		case '[', '{':
			depth++
			if key == "matches" && depth == 3 {
				out.rows++
			}
		case ']', '}':
			depth--
		case ',':
			if key == "count" && depth == 1 && !sawCount {
				n, err := strconv.ParseUint(string(number), 10, 64)
				if err != nil {
					return out, fmt.Errorf("bad count %q", number)
				}
				out.count, sawCount = n, true
			}
		}
	}
	if depth != 0 || inString || !sawCount {
		return out, fmt.Errorf("malformed response (depth %d, count seen %v)", depth, sawCount)
	}
	return out, nil
}

// counters scrapes /metrics into name → value (the sjos_ prefix dropped).
func (c *client) counters() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[strings.TrimPrefix(name, "sjos_")] = v
		}
	}
	return out, sc.Err()
}

// ingestStats is the part of GET /ingest the benchmark reads.
type ingestStats struct {
	Docs         int
	Compactions  int
	WALPages     int
	BrokenShards int
}

func (c *client) ingest() (ingestStats, error) {
	var st ingestStats
	resp, err := c.http.Get(c.base + "/ingest")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}
