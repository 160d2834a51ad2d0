package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// scanner is the XML reader behind Parse: one forward pass over the whole
// input that drives the Builder directly — no token values, no string per
// element. It accepts what encoding/xml's strict decoder accepts and
// delivers names, attribute values and character data exactly as the loop
// over that decoder did (parse_diff_test.go holds it to the old loop, kept
// there as the oracle), which fixes the rules below: whitespace inside tags
// is space, tab, CR and LF; an end tag repeats the start tag's prefixed name
// byte for byte; only the five predefined entities and numeric character
// references are known; CR and CRLF in data read as LF; data must be valid
// UTF-8 in XML's character range; "]]>" may not appear in plain text;
// comments, processing instructions and <!…> declarations are skipped, text
// outside the root is checked and dropped.
//
// Two departures, both towards accepting more. Multi-byte name characters
// are checked against XML 1.0 fifth edition, a superset of the fourth
// edition tables encoding/xml carries. And an attribute is dropped as a
// namespace declaration only when it is spelled xmlns, xmlns:p or p:xmlns;
// the old loop also dropped the attributes of any prefix bound to the
// namespace name "xmlns", an accident of testing the name after prefix
// translation.
type scanner struct {
	src []byte
	pos int
	b   *Builder

	// open holds the prefixed name of every open element, as slices of src.
	open [][]byte
	// pending is the element still waiting for its first non-blank text
	// chunk: the innermost open element, until one of its children closes.
	pending NodeID

	text []byte // scratch for character data that needed rewriting
	key  []byte // scratch for "@name" tag lookups
}

var errUnexpectedEOF = errors.New("unexpected end of input")

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

func (s *scanner) scan() error {
	// An element written as a start and an end tag is two '<': exact for
	// such input (the data generators' and Serialize's), and the columns
	// grow as they always did for attributes and self-closing tags.
	s.b.reserve(bytes.Count(s.src, []byte("<")) / 2)
	for s.pos < len(s.src) {
		var err error
		switch {
		case s.src[s.pos] != '<':
			end := len(s.src)
			if i := bytes.IndexByte(s.src[s.pos:], '<'); i >= 0 {
				end = s.pos + i
			}
			err = s.charData(s.src[s.pos:end], inText)
			s.pos = end
		case s.pos+1 == len(s.src):
			err = errUnexpectedEOF
		case s.src[s.pos+1] == '/':
			err = s.endTag()
		case s.src[s.pos+1] == '?':
			err = s.procInst()
		case s.src[s.pos+1] == '!':
			err = s.declaration()
		default:
			err = s.startTag()
		}
		if err != nil {
			return err
		}
	}
	if len(s.open) > 0 {
		return s.errorf("element <%s> is not closed", s.open[len(s.open)-1])
	}
	return nil
}

// startTag scans "<name attr="value"… >" or its self-closing form.
func (s *scanner) startTag() error {
	s.pos++
	name, err := s.name()
	if err != nil {
		return err
	}
	_, local, ok := splitName(name)
	if !ok {
		return s.errorf("element name %q has more than one colon", name)
	}
	if len(s.open) == 0 && s.b.doc.NumNodes() > 0 {
		return s.errorf("second root element <%s>", name)
	}
	s.pending = s.b.openNode(s.b.tagBytes(local), "")
	for {
		c, err := s.afterSpace()
		if err != nil {
			return err
		}
		switch c {
		case '>':
			s.pos++
			s.open = append(s.open, name)
			return nil
		case '/':
			if s.pos+1 >= len(s.src) {
				return errUnexpectedEOF
			}
			if s.src[s.pos+1] != '>' {
				return s.errorf("expected /> in element <%s>", name)
			}
			s.pos += 2
			s.b.Close()
			s.pending = InvalidNode
			return nil
		}
		if err := s.attribute(); err != nil {
			return err
		}
	}
}

// attribute scans one name="value" pair into an "@name" leaf under the
// element just opened; namespace declarations are checked and dropped.
func (s *scanner) attribute() error {
	name, err := s.name()
	if err != nil {
		return err
	}
	prefix, local, ok := splitName(name)
	if !ok {
		return s.errorf("attribute name %q has more than one colon", name)
	}
	if c, err := s.afterSpace(); err != nil {
		return err
	} else if c != '=' {
		return s.errorf("attribute %s without a value", name)
	}
	s.pos++
	quote, err := s.afterSpace()
	if err != nil {
		return err
	}
	if quote != '"' && quote != '\'' {
		return s.errorf("unquoted value of attribute %s", name)
	}
	s.pos++
	n := bytes.IndexByte(s.src[s.pos:], quote)
	if n < 0 {
		return errUnexpectedEOF
	}
	value, err := s.data(s.src[s.pos:s.pos+n], inAttr)
	if err != nil {
		return err
	}
	s.pos += n + 1
	if string(prefix) == "xmlns" || string(local) == "xmlns" {
		return nil
	}
	s.key = append(append(s.key[:0], '@'), local...)
	s.b.openNode(s.b.tagBytes(s.key), s.b.InternValue(value))
	s.b.Close()
	return nil
}

// endTag scans "</name >", which must close the innermost open element.
func (s *scanner) endTag() error {
	s.pos += 2
	if len(s.open) == 0 {
		return s.errorf("end tag with no element open")
	}
	want := s.open[len(s.open)-1]
	rest := s.src[s.pos:]
	if !bytes.HasPrefix(rest, want) || (len(rest) > len(want) && isNameByte(rest[len(want)])) {
		return s.errorf("element <%s> closed by another end tag", want)
	}
	s.pos += len(want)
	if c, err := s.afterSpace(); err != nil {
		return err
	} else if c != '>' {
		return s.errorf("invalid characters between </%s and >", want)
	}
	s.pos++
	s.open = s.open[:len(s.open)-1]
	s.b.Close()
	s.pending = InvalidNode
	return nil
}

// procInst skips "<?target … ?>". An XML declaration — anywhere, as the
// old decoder had it — may only announce version 1.0 and UTF-8: the scanner
// reads bytes as UTF-8 and transcodes nothing.
func (s *scanner) procInst() error {
	s.pos += 2
	target, err := s.name()
	if err != nil {
		return err
	}
	s.skipSpace()
	n := bytes.Index(s.src[s.pos:], []byte("?>"))
	if n < 0 {
		return errUnexpectedEOF
	}
	if string(target) == "xml" {
		content := s.src[s.pos : s.pos+n]
		if v := declParam(content, "version"); len(v) != 0 && string(v) != "1.0" {
			return s.errorf("unsupported XML version %q", v)
		}
		if enc := declParam(content, "encoding"); len(enc) != 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return s.errorf("unsupported encoding %q: only UTF-8 input is read", enc)
		}
	}
	s.pos += n + 2
	return nil
}

// declParam finds param="value" (either quote) in an XML declaration's
// content, by the old decoder's lenient rule: the first param= that a quote
// follows.
func declParam(content []byte, param string) []byte {
	key := []byte(param + "=")
	for i := 0; i < len(content); {
		k := bytes.Index(content[i:], key)
		if k < 0 || i+k+len(key) >= len(content) {
			return nil
		}
		i += k + len(key) + 1
		if q := content[i-1]; q == '"' || q == '\'' {
			if n := bytes.IndexByte(content[i:], q); n >= 0 {
				return content[i : i+n]
			}
			return nil
		}
	}
	return nil
}

// declaration handles the three things "<!" opens: a comment, a CDATA
// section (character data like any other) and a <!DOCTYPE …>-style
// declaration, which is skipped.
func (s *scanner) declaration() error {
	rest := s.src[s.pos+2:]
	switch {
	case len(rest) == 0:
		return errUnexpectedEOF
	case rest[0] == '-':
		if len(rest) < 2 {
			return errUnexpectedEOF
		}
		if rest[1] != '-' {
			return s.errorf("<!- is not the start of a comment")
		}
		// The first "--" ends the comment and must be followed by '>'.
		n := bytes.Index(rest[2:], []byte("--"))
		if n < 0 || 2+n+2 >= len(rest) {
			return errUnexpectedEOF
		}
		if rest[2+n+2] != '>' {
			return s.errorf(`"--" inside a comment`)
		}
		s.pos += 2 + 2 + n + 3
		return nil
	case rest[0] == '[':
		const open = "[CDATA["
		if !bytes.HasPrefix(rest, []byte(open)) {
			return s.errorf("<![ is not the start of a CDATA section")
		}
		n := bytes.Index(rest[len(open):], []byte("]]>"))
		if n < 0 {
			return errUnexpectedEOF
		}
		err := s.charData(rest[len(open):len(open)+n], inCDATA)
		s.pos += 2 + len(open) + n + 3
		return err
	}
	// Skip to the '>' that is neither quoted nor nested. The byte after
	// "<!" is never examined (the old decoder's rule); a "<!--" inside
	// opens a comment that runs to its "-->" whatever it holds.
	i := s.pos + 3
	quote, depth := byte(0), 0
	for i < len(s.src) {
		c := s.src[i]
		i++
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>':
			if depth == 0 {
				s.pos = i
				return nil
			}
			depth--
		case c == '<':
			if !bytes.HasPrefix(s.src[i:], []byte("!--")) {
				depth++
				continue
			}
			n := bytes.Index(s.src[i+3:], []byte("-->"))
			if n < 0 {
				return errUnexpectedEOF
			}
			i += 3 + n + 3
		}
	}
	return errUnexpectedEOF
}

// charData checks one chunk of character data and gives it to the pending
// element if it is the first that is not blank.
func (s *scanner) charData(raw []byte, kind dataKind) error {
	data, err := s.data(raw, kind)
	if err != nil {
		return err
	}
	if s.pending != InvalidNode && s.b.doc.value[s.pending] == "" {
		if trimmed := bytes.TrimSpace(data); len(trimmed) != 0 {
			s.b.doc.value[s.pending] = s.b.InternValue(trimmed)
		}
	}
	return nil
}

// dataKind says where a run of character data stands, which decides what
// may appear in it.
type dataKind uint8

const (
	inText  dataKind = iota // references; no "]]>"
	inCDATA                 // everything literal
	inAttr                  // references; no '<'
)

// plainByte marks the bytes that stand for themselves in any kind of data:
// printable ASCII, tab and LF, less the ones a rule mentions ('&' starts a
// reference, '<' is barred from attribute values, ']' may start "]]>").
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	t['&'], t['<'], t[']'] = false, false, false
	return t
}()

// data returns the character data raw stands for: references replaced, CR
// and CRLF turned into LF, everything checked. The result is raw itself
// when nothing needed rewriting, else scratch that the next call reuses.
func (s *scanner) data(raw []byte, kind dataKind) ([]byte, error) {
	i := 0
	for i < len(raw) && plainByte[raw[i]] {
		i++
	}
	if i == len(raw) {
		return raw, nil
	}
	out := append(s.text[:0], raw[:i]...)
	for i < len(raw) {
		switch c := raw[i]; {
		case c == '&' && kind != inCDATA:
			r, n := reference(raw[i:])
			if n == 0 {
				return nil, s.errorf("invalid character or entity reference")
			}
			out = utf8.AppendRune(out, r)
			i += n
		case c == '<' && kind == inAttr:
			return nil, s.errorf("unescaped < inside an attribute value")
		case c == '\r':
			out = append(out, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			out = append(out, c)
			i++
		}
	}
	s.text = out
	if kind == inText && bytes.Contains(raw, []byte("]]>")) {
		return nil, s.errorf("unescaped ]]> outside a CDATA section")
	}
	for rest := out; len(rest) > 0; {
		r, size := utf8.DecodeRune(rest)
		if r == utf8.RuneError && size == 1 {
			return nil, s.errorf("invalid UTF-8")
		}
		if !isChar(r) {
			return nil, s.errorf("illegal character code %U", r)
		}
		rest = rest[size:]
	}
	return out, nil
}

// reference decodes the reference raw starts with — &lt; &gt; &amp; &apos;
// &quot; &#N; or &#xN; — and returns the character and the reference's
// length, 0 when it is none of these. A number past the Unicode range is
// refused; a surrogate reads as U+FFFD, as string(rune(n)) always has.
func reference(raw []byte) (rune, int) {
	if len(raw) > 1 && raw[1] == '#' {
		i, base := 2, rune(10)
		if i < len(raw) && raw[i] == 'x' {
			i, base = 3, 16
		}
		first, n := i, rune(0)
		for ; i < len(raw); i++ {
			var d rune
			switch c := raw[i]; {
			case '0' <= c && c <= '9':
				d = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = rune(c-'A') + 10
			default:
				d = -1
			}
			if d < 0 {
				break
			}
			if n = n*base + d; n > unicode.MaxRune {
				n = unicode.MaxRune + 1 // stays out of range, cannot overflow
			}
		}
		if i == first || i == len(raw) || raw[i] != ';' || n > unicode.MaxRune {
			return 0, 0
		}
		return n, i + 1
	}
	for _, e := range [...]struct {
		name string
		r    rune
	}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}} {
		if bytes.HasPrefix(raw[1:], []byte(e.name)) {
			return e.r, 1 + len(e.name)
		}
	}
	return 0, 0
}

// isChar reports whether r is in XML's Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// afterSpace skips whitespace and returns the byte it stops at, without
// consuming it. Inside a tag the input may not end.
func (s *scanner) afterSpace() (byte, error) {
	s.skipSpace()
	if s.pos >= len(s.src) {
		return 0, errUnexpectedEOF
	}
	return s.src[s.pos], nil
}

// isNameByte reports whether c can continue a name: an ASCII name character
// or any byte of a multi-byte one.
func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-' || c >= utf8.RuneSelf
}

// name scans the name at the scanner's position.
func (s *scanner) name() ([]byte, error) {
	i, ascii := s.pos, true
	for i < len(s.src) && isNameByte(s.src[i]) {
		ascii = ascii && s.src[i] < utf8.RuneSelf
		i++
	}
	name := s.src[s.pos:i]
	if len(name) == 0 {
		if i == len(s.src) {
			return nil, errUnexpectedEOF
		}
		return nil, s.errorf("expected a name")
	}
	valid := true
	if ascii {
		c := name[0]
		valid = c != '-' && c != '.' && (c < '0' || c > '9')
	} else {
		for j := 0; j < len(name) && valid; {
			r, size := utf8.DecodeRune(name[j:])
			valid = (r != utf8.RuneError || size != 1) && isNameRune(r, j == 0)
			j += size
		}
	}
	if !valid {
		return nil, s.errorf("invalid XML name %q", name)
	}
	s.pos = i
	return name, nil
}

// isNameRune is XML 1.0 fifth edition's NameStartChar (first) or NameChar.
func isNameRune(r rune, first bool) bool {
	switch {
	case r == ':' || r == '_' || 'A' <= r && r <= 'Z' || 'a' <= r && r <= 'z':
		return true
	case r == '-' || r == '.' || '0' <= r && r <= '9' || r == 0xB7 ||
		0x0300 <= r && r <= 0x036F || 0x203F <= r && r <= 0x2040:
		return !first
	}
	return 0xC0 <= r && r <= 0xD6 || 0xD8 <= r && r <= 0xF6 || 0xF8 <= r && r <= 0x2FF ||
		0x370 <= r && r <= 0x37D || 0x37F <= r && r <= 0x1FFF || 0x200C <= r && r <= 0x200D ||
		0x2070 <= r && r <= 0x218F || 0x2C00 <= r && r <= 0x2FEF || 0x3001 <= r && r <= 0xD7FF ||
		0xF900 <= r && r <= 0xFDCF || 0xFDF0 <= r && r <= 0xFFFD || 0x10000 <= r && r <= 0xEFFFF
}

// splitName splits a prefixed name at its colon. A name with no colon, or
// with nothing on one side of it, is all local part; two colons are an
// error.
func splitName(name []byte) (prefix, local []byte, ok bool) {
	i := bytes.IndexByte(name, ':')
	if i < 0 {
		return nil, name, true
	}
	if bytes.IndexByte(name[i+1:], ':') >= 0 {
		return nil, nil, false
	}
	if i == 0 || i == len(name)-1 {
		return nil, name, true
	}
	return name[:i], name[i+1:], true
}
