package xquery

import (
	"fmt"
	"strings"
	"unicode"

	"sjos/internal/pattern"
)

// parse builds the AST for the FLWOR subset. The grammar:
//
//	query    := "for" bind ("," bind)*
//	            ("where" cond ("and" cond)*)?
//	            ("order" "by" varpath)?
//	            "return" varpath ("," varpath)*
//	bind     := "$" name "in" varpath
//	varpath  := "$" name steps? | steps
//	steps    := (("/" | "//") name)+
//	cond     := varpath (op literal)?
//	op       := "=" | "!=" | "<" | "<=" | ">" | ">=" | "~"
//	literal  := '"' chars '"' | bareword
func parse(src string) (*ast, error) {
	p := &qparser{toks: lex(src)}
	return p.query()
}

// ---- lexer ----

type token struct {
	kind tokKind
	text string
	pos  int
}

type tokKind int

const (
	tokEOF  tokKind = iota
	tokWord         // identifiers and keywords
	tokVar          // $name
	tokSlash
	tokDSlash
	tokComma
	tokOp     // comparison operator
	tokString // quoted literal (text without quotes)
	tokNumber
)

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '$':
			j := i + 1
			for j < len(src) && isNameByte(src[j]) {
				j++
			}
			toks = append(toks, token{kind: tokVar, text: src[i+1 : j], pos: i})
			i = j
		case c == '/':
			if i+1 < len(src) && src[i+1] == '/' {
				toks = append(toks, token{kind: tokDSlash, text: "//", pos: i})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSlash, text: "/", pos: i})
				i++
			}
		case c == ',':
			toks = append(toks, token{kind: tokComma, text: ",", pos: i})
			i++
		case c == '"':
			// The pattern syntax's literal, escapes and all; one that is
			// never closed runs to the end of the query.
			v, n, _ := pattern.ScanLiteral(src[i:])
			toks = append(toks, token{kind: tokString, text: v, pos: i})
			i += n
		case strings.ContainsRune("=!<>~", rune(c)):
			j := i + 1
			if j < len(src) && src[j] == '=' {
				j++
			}
			toks = append(toks, token{kind: tokOp, text: src[i:j], pos: i})
			i = j
		case unicode.IsDigit(rune(c)) || c == '-' && i+1 < len(src) && unicode.IsDigit(rune(src[i+1])):
			j := i + 1
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: src[i:j], pos: i})
			i = j
		case isNameByte(c):
			j := i
			for j < len(src) && isNameByte(src[j]) {
				j++
			}
			toks = append(toks, token{kind: tokWord, text: src[i:j], pos: i})
			i = j
		default:
			// Unknown byte: emit as a word so the parser reports it.
			toks = append(toks, token{kind: tokWord, text: string(c), pos: i})
			i++
		}
	}
	return append(toks, token{kind: tokEOF, pos: len(src)})
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '@' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// ---- parser ----

type qparser struct {
	toks []token
	i    int
}

func (p *qparser) peek() token { return p.toks[p.i] }

// next consumes a token; the EOF token that ends every token list stays put,
// so a query that stops short is read as EOF however often it is asked.
func (p *qparser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *qparser) word(s string) bool {
	if p.peek().kind == tokWord && p.peek().text == s {
		p.i++
		return true
	}
	return false
}

func (p *qparser) errf(format string, args ...any) error {
	return fmt.Errorf(format+" (at offset %d)", append(args, p.peek().pos)...)
}

func (p *qparser) query() (*ast, error) {
	a := &ast{}
	if !p.word("for") {
		return nil, p.errf("expected 'for'")
	}
	for {
		b, err := p.binding()
		if err != nil {
			return nil, err
		}
		a.bindings = append(a.bindings, *b)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if p.word("where") {
		for {
			c, err := p.condition()
			if err != nil {
				return nil, err
			}
			a.wheres = append(a.wheres, *c)
			if !p.word("and") {
				break
			}
		}
	}
	if p.word("order") {
		if !p.word("by") {
			return nil, p.errf("expected 'by' after 'order'")
		}
		vp, err := p.varPath()
		if err != nil {
			return nil, err
		}
		a.orderBy = vp
	}
	if !p.word("return") {
		return nil, p.errf("expected 'return'")
	}
	for {
		vp, err := p.varPath()
		if err != nil {
			return nil, err
		}
		a.returns = append(a.returns, *vp)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after query", p.peek().text)
	}
	return a, nil
}

func (p *qparser) binding() (*binding, error) {
	if p.peek().kind != tokVar {
		return nil, p.errf("expected variable")
	}
	name := p.next().text
	if name == "" {
		return nil, p.errf("empty variable name")
	}
	if !p.word("in") {
		return nil, p.errf("expected 'in'")
	}
	vp, err := p.varPath()
	if err != nil {
		return nil, err
	}
	return &binding{name: name, path: *vp}, nil
}

func (p *qparser) condition() (*condition, error) {
	vp, err := p.varPath()
	if err != nil {
		return nil, err
	}
	c := &condition{path: *vp, op: pattern.CmpNone}
	if p.peek().kind == tokOp {
		opText := p.next().text
		op, err := parseOp(opText)
		if err != nil {
			return nil, err
		}
		lit := p.next()
		if lit.kind != tokString && lit.kind != tokNumber && lit.kind != tokWord {
			return nil, p.errf("expected literal after %q", opText)
		}
		c.op, c.value = op, lit.text
	}
	return c, nil
}

func parseOp(s string) (pattern.CmpOp, error) {
	switch s {
	case "=", "==":
		return pattern.CmpEq, nil
	case "!=":
		return pattern.CmpNe, nil
	case "<":
		return pattern.CmpLt, nil
	case "<=":
		return pattern.CmpLe, nil
	case ">":
		return pattern.CmpGt, nil
	case ">=":
		return pattern.CmpGe, nil
	case "~":
		return pattern.CmpContains, nil
	}
	return pattern.CmpNone, fmt.Errorf("xquery: unknown operator %q", s)
}

func (p *qparser) varPath() (*varPath, error) {
	vp := &varPath{}
	switch p.peek().kind {
	case tokVar:
		vp.root = p.next().text
	case tokSlash, tokDSlash:
		// absolute
	default:
		return nil, p.errf("expected variable or path")
	}
	for {
		var ax pattern.Axis
		switch p.peek().kind {
		case tokSlash:
			ax = pattern.Child
		case tokDSlash:
			ax = pattern.Descendant
		default:
			if vp.root == "" && len(vp.steps) == 0 {
				return nil, p.errf("expected path step")
			}
			return vp, nil
		}
		p.next()
		if p.peek().kind != tokWord {
			return nil, p.errf("expected element name after %q", ax.String())
		}
		vp.steps = append(vp.steps, step{axis: ax, tag: p.next().text})
	}
}
