package pattern

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse builds a Pattern from a small XPath-like twig syntax:
//
//	path       := ("/" | "//")? step ( ("/" | "//") step )*
//	step       := name marker? predicate*
//	predicate  := "[" ( path | valuetest ) "]"
//	valuetest  := ("." | "@" name) op literal
//	op         := "=" | "!=" | "<" | "<=" | ">" | ">=" | "~"   ("~" = contains)
//	literal    := '"' chars '"' | bareword     (in chars, \" is a quote and \\ a
//	                                            backslash; see ScanLiteral)
//	marker     := "#"    (at most one; requests the result be ordered by
//	                      this node's document position)
//
// Examples:
//
//	//manager[.//employee/name]//department/name
//	/db/item[@id = "42"]/price
//	//manager#[employee][department]
//
// A leading "/" or "//" is permitted and ignored for the first step (the
// pattern root is simply the first named node). Attribute tests "@x op v"
// become child pattern nodes with tag "@x", matching how the document model
// stores attributes.
func Parse(s string) (*Pattern, error) {
	p := &parser{in: s}
	pat, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("pattern: parse %q: %w", s, err)
	}
	return pat, nil
}

// MustParse is Parse that panics on error; for tests and examples with
// static pattern strings.
func MustParse(s string) *Pattern {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	in  string
	pos int
	pat Pattern
}

func (p *parser) parse() (*Pattern, error) {
	p.pat = Pattern{OrderBy: NoNode}
	if _, err := p.path(NoNode); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("unexpected %q at offset %d", p.rest(), p.pos)
	}
	if err := p.pat.Validate(); err != nil {
		return nil, err
	}
	return &p.pat, nil
}

// path parses a step chain attached under parent (NoNode for the pattern
// root) and returns the index of the chain's last node.
func (p *parser) path(parent int) (int, error) {
	cur := parent
	first := true
	for {
		p.skipSpace()
		ax := Child
		switch {
		case p.eat("//"):
			ax = Descendant
		case p.eat("/"):
		case first:
			// A relative first step is fine.
		default:
			if cur == parent {
				return 0, fmt.Errorf("expected step at offset %d", p.pos)
			}
			return cur, nil
		}
		p.skipSpace()
		name := p.name()
		if name == "" {
			if first {
				return 0, fmt.Errorf("expected element name at offset %d", p.pos)
			}
			return cur, nil
		}
		idx, err := p.addNode(cur, name, ax, first && parent == NoNode)
		if err != nil {
			return 0, err
		}
		if p.eat("#") {
			if p.pat.OrderBy != NoNode {
				return 0, fmt.Errorf("duplicate order-by marker at offset %d", p.pos)
			}
			p.pat.OrderBy = idx
		}
		for {
			p.skipSpace()
			if !p.eat("[") {
				break
			}
			if err := p.predicate(idx); err != nil {
				return 0, err
			}
			p.skipSpace()
			if !p.eat("]") {
				return 0, fmt.Errorf("expected ] at offset %d", p.pos)
			}
		}
		cur = idx
		first = false
	}
}

func (p *parser) addNode(parent int, tag string, ax Axis, isRoot bool) (int, error) {
	if isRoot {
		if len(p.pat.Nodes) != 0 {
			return 0, fmt.Errorf("internal: duplicate root")
		}
		p.pat.Nodes = append(p.pat.Nodes, Node{Tag: tag})
		p.pat.Parent = append(p.pat.Parent, NoNode)
		p.pat.Axis = append(p.pat.Axis, Child)
		return 0, nil
	}
	p.pat.Nodes = append(p.pat.Nodes, Node{Tag: tag})
	p.pat.Parent = append(p.pat.Parent, parent)
	p.pat.Axis = append(p.pat.Axis, ax)
	return len(p.pat.Nodes) - 1, nil
}

func (p *parser) predicate(owner int) error {
	p.skipSpace()
	switch {
	case p.peek("./") || p.peek(".//"):
		p.eat(".") // ".//x" and "./x" are the same as "//x" and "/x" here
		_, err := p.path(owner)
		return err
	case p.peek("."):
		p.eat(".")
		return p.valueTest(owner)
	case p.peek("@"):
		p.eat("@")
		name := p.name()
		if name == "" {
			return fmt.Errorf("expected attribute name at offset %d", p.pos)
		}
		idx, err := p.addNode(owner, "@"+name, Child, false)
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.peekOp() == CmpNone {
			return nil // existence test only
		}
		return p.valueTest(idx)
	default:
		last, err := p.path(owner)
		if err != nil {
			return err
		}
		// A trailing comparison applies to the predicate path's last
		// node: [salary >= 40000] ≡ [salary[. >= 40000]].
		p.skipSpace()
		if p.peekOp() != CmpNone {
			return p.valueTest(last)
		}
		return nil
	}
}

func (p *parser) valueTest(owner int) error {
	p.skipSpace()
	op := p.peekOp()
	if op == CmpNone {
		return fmt.Errorf("expected comparison operator at offset %d", p.pos)
	}
	p.eatOp(op)
	p.skipSpace()
	lit, err := p.literal()
	if err != nil {
		return err
	}
	if p.pat.Nodes[owner].Op != CmpNone {
		return fmt.Errorf("node %d already has a value predicate", owner)
	}
	p.pat.Nodes[owner].Op = op
	p.pat.Nodes[owner].Value = lit
	return nil
}

func (p *parser) literal() (string, error) {
	if p.peek(`"`) {
		s, n, ok := ScanLiteral(p.in[p.pos:])
		if !ok {
			return "", fmt.Errorf("unterminated string literal at offset %d", p.pos+1)
		}
		p.pos += n
		return s, nil
	}
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == ']' || c == '[' || c == ' ' || c == '/' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected literal at offset %d", p.pos)
	}
	return p.in[start:p.pos], nil
}

// QuoteLiteral renders v as the quoted literal that ScanLiteral reads back as
// v: the bytes as they are, a backslash put before each quote and backslash.
func QuoteLiteral(v string) string { return `"` + literalEscaper.Replace(v) + `"` }

var literalEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// ScanLiteral reads the quoted literal at the head of src (src[0] is its
// opening quote) for both query front ends: it returns the value, the number
// of bytes the literal spans, and whether its closing quote was found. \" is
// a quote and \\ a backslash; every other byte — a backslash before anything
// else included — stands for itself, so "C:\temp" and "a\d" mean what they
// say.
func ScanLiteral(src string) (v string, n int, ok bool) {
	if end := strings.IndexByte(src[1:], '"'); end >= 0 && strings.IndexByte(src[1:1+end], '\\') < 0 {
		return src[1 : 1+end], end + 2, true
	}
	var sb strings.Builder
	for i := 1; i < len(src); i++ {
		switch c := src[i]; {
		case c == '"':
			return sb.String(), i + 1, true
		case c == '\\' && i+1 < len(src) && (src[i+1] == '"' || src[i+1] == '\\'):
			i++
			sb.WriteByte(src[i])
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String(), len(src), false
}

func (p *parser) peekOp() CmpOp {
	r := p.in[p.pos:]
	switch {
	case strings.HasPrefix(r, "!="):
		return CmpNe
	case strings.HasPrefix(r, "<="):
		return CmpLe
	case strings.HasPrefix(r, ">="):
		return CmpGe
	case strings.HasPrefix(r, "="):
		return CmpEq
	case strings.HasPrefix(r, "<"):
		return CmpLt
	case strings.HasPrefix(r, ">"):
		return CmpGt
	case strings.HasPrefix(r, "~"):
		return CmpContains
	}
	return CmpNone
}

func (p *parser) eatOp(op CmpOp) {
	switch op {
	case CmpNe, CmpLe, CmpGe:
		p.pos += 2
	default:
		p.pos++
	}
}

func (p *parser) name() string {
	start := p.pos
	for p.pos < len(p.in) {
		r := rune(p.in[p.pos])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' && p.pos > start {
			p.pos++
			continue
		}
		break
	}
	return p.in[start:p.pos]
}

func (p *parser) eat(tok string) bool {
	if strings.HasPrefix(p.in[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) peek(tok string) bool { return strings.HasPrefix(p.in[p.pos:], tok) }

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) rest() string {
	r := p.in[p.pos:]
	if len(r) > 12 {
		r = r[:12] + "…"
	}
	return r
}
