package xmltree

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r and builds its Document representation.
// Element text content (trimmed, first chunk only) becomes the node Value;
// attributes are exposed as child elements named "@attr" so that attribute
// predicates can be expressed as ordinary pattern nodes, which is how Timber
// models them in its tree algebra.
//
// The input is read whole and scanned once (see scanner); a failed read
// surfaces wrapped, so callers can still match the reader's own error.
func Parse(r io.Reader) (*Document, error) {
	var src bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		src.Grow(l.Len() + bytes.MinRead) // one allocation for an in-memory reader
	}
	if _, err := src.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	s := scanner{src: src.Bytes(), b: NewBuilder(), pending: InvalidNode}
	if err := s.scan(); err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return s.b.Finish()
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// Serialize writes the document back out as XML. Attribute pseudo-elements
// ("@name") are rendered as real attributes, so Parse(Serialize(d)) is
// structurally identical to d. Output is deterministic.
func Serialize(d *Document, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var walk func(n NodeID) error
	walk = func(n NodeID) error {
		name := d.TagName(d.Tag(n))
		if _, err := fmt.Fprintf(bw, "<%s", name); err != nil {
			return err
		}
		children := d.Children(n)
		var real []NodeID
		for _, c := range children {
			cn := d.TagName(d.Tag(c))
			if strings.HasPrefix(cn, "@") {
				// Escaped as XML, like text: & < and the quote as references,
				// tab, CR and LF as numeric ones (a parser would otherwise
				// normalise them away).
				fmt.Fprintf(bw, ` %s="`, cn[1:])
				if err := xml.EscapeText(bw, []byte(d.Value(c))); err != nil {
					return err
				}
				bw.WriteByte('"')
			} else {
				real = append(real, c)
			}
		}
		bw.WriteString(">")
		if v := d.Value(n); v != "" {
			if err := xml.EscapeText(bw, []byte(v)); err != nil {
				return err
			}
		}
		for _, c := range real {
			if err := walk(c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(bw, "</%s>", name)
		return err
	}
	if err := walk(d.Root()); err != nil {
		return err
	}
	return bw.Flush()
}

// SerializeString is Serialize into a string; intended for tests and tools.
func SerializeString(d *Document) (string, error) {
	var sb strings.Builder
	if err := Serialize(d, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
