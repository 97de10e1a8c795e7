package mso

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Parse reads an MSO formula. Syntax (ASCII):
//
//	exists x (...)    forall x (...)     — element quantifier (x lower-case)
//	exists X (...)    forall X (...)     — set quantifier (X upper-case)
//	~φ   φ & ψ   φ | ψ   φ -> ψ   φ <-> ψ
//	pred(x, y)   x = y   x != y   x in X   x notin X   X sub Y   X psub Y
//	true   false
//
// Precedence (loosest to tightest): <->, ->, |, &, ~/quantifiers.
// Implication is right-associative; quantifiers scope as far right as
// possible. "X sub Y" and "X psub Y" desugar to quantified formulas, so
// they contribute to the quantifier depth exactly as in the paper's
// definitions; "X sub Y" becomes "forall z_xy (z_xy in X -> z_xy in Y)".
// Errors carry 1-based line:column positions. A bug in the parser (or
// in the Formula constructors it calls) is recovered and returned as an
// error rather than escaping as a panic, so untrusted input can never
// crash a caller.
func Parse(src string) (f *Formula, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mso: internal parser error: %v", r)
		}
	}()
	p := &parser{src: src}
	p.next()
	f, err = p.parseIff()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("mso: unexpected %q at %s", p.tok.text, p.at(p.tok.pos))
	}
	return f, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokNot  // ~ or !
	tokAnd  // &
	tokOr   // |
	tokImpl // ->
	tokIff  // <->
	tokEq   // =
	tokNeq  // !=
)

type tok struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src string
	pos int
	tok tok
}

func (p *parser) next() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if c == '%' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		break
	}
	if p.pos >= len(p.src) {
		p.tok = tok{kind: tokEOF, pos: p.pos}
		return
	}
	start := p.pos
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.tok = tok{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = tok{tokRParen, ")", start}
	case c == ',':
		p.pos++
		p.tok = tok{tokComma, ",", start}
	case c == '~':
		p.pos++
		p.tok = tok{tokNot, "~", start}
	case c == '&':
		p.pos++
		p.tok = tok{tokAnd, "&", start}
	case c == '|':
		p.pos++
		p.tok = tok{tokOr, "|", start}
	case c == '=':
		p.pos++
		p.tok = tok{tokEq, "=", start}
	case c == '!':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '=' {
			p.pos += 2
			p.tok = tok{tokNeq, "!=", start}
		} else {
			p.pos++
			p.tok = tok{tokNot, "!", start}
		}
	case c == '-':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '>' {
			p.pos += 2
			p.tok = tok{tokImpl, "->", start}
		} else {
			p.tok = tok{tokEOF, "-", start} // force an error upstream
			p.pos++
		}
	case c == '<':
		if p.pos+2 < len(p.src) && p.src[p.pos+1] == '-' && p.src[p.pos+2] == '>' {
			p.pos += 3
			p.tok = tok{tokIff, "<->", start}
		} else {
			p.tok = tok{tokEOF, "<", start}
			p.pos++
		}
	default:
		// Decode proper runes: an invalid UTF-8 byte must not be mistaken
		// for a letter (bytewise rune(c) would map e.g. 0xC4 to 'Ä').
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if (r == utf8.RuneError && size <= 1) || !isIdent(r) {
			p.tok = tok{tokEOF, string(c), start}
			p.pos++
			return
		}
		j := p.pos
		for j < len(p.src) {
			r, size := utf8.DecodeRuneInString(p.src[j:])
			if (r == utf8.RuneError && size <= 1) || !isIdent(r) {
				break
			}
			j += size
		}
		p.tok = tok{tokIdent, p.src[p.pos:j], start}
		p.pos = j
	}
}

// at renders a byte offset as a 1-based "line L, col C" position.
func (p *parser) at(off int) string {
	line, col := 1, 1
	for i := 0; i < off && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("line %d, col %d", line, col)
}

func isIdent(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

func isSetVar(name string) bool {
	r, _ := utf8.DecodeRuneInString(name)
	return name != "" && unicode.IsUpper(r)
}

func (p *parser) parseIff() (*Formula, error) {
	f, err := p.parseImpl()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokIff {
		p.next()
		g, err := p.parseImpl()
		if err != nil {
			return nil, err
		}
		f = Iff(f, g)
	}
	return f, nil
}

func (p *parser) parseImpl() (*Formula, error) {
	f, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokImpl {
		p.next()
		g, err := p.parseImpl() // right-associative
		if err != nil {
			return nil, err
		}
		return Impl(f, g), nil
	}
	return f, nil
}

func (p *parser) parseOr() (*Formula, error) {
	f, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	args := []*Formula{f}
	for p.tok.kind == tokOr {
		p.next()
		g, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		args = append(args, g)
	}
	return Or(args...), nil
}

func (p *parser) parseAnd() (*Formula, error) {
	f, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	args := []*Formula{f}
	for p.tok.kind == tokAnd {
		p.next()
		g, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		args = append(args, g)
	}
	return And(args...), nil
}

func (p *parser) parseUnary() (*Formula, error) {
	switch p.tok.kind {
	case tokNot:
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(f), nil
	case tokLParen:
		p.next()
		f, err := p.parseIff()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("mso: expected ')' at %s", p.at(p.tok.pos))
		}
		p.next()
		return f, nil
	case tokIdent:
		switch p.tok.text {
		case "true":
			p.next()
			return True(), nil
		case "false":
			p.next()
			return False(), nil
		case "exists", "forall":
			kw := p.tok.text
			p.next()
			if p.tok.kind != tokIdent {
				return nil, fmt.Errorf("mso: expected variable after %s at %s", kw, p.at(p.tok.pos))
			}
			v := p.tok.text
			p.next()
			// The quantifier scopes as far right as possible.
			body, err := p.parseIff()
			if err != nil {
				return nil, err
			}
			switch {
			case kw == "exists" && isSetVar(v):
				return ExistsS(v, body), nil
			case kw == "exists":
				return ExistsE(v, body), nil
			case isSetVar(v):
				return ForallS(v, body), nil
			default:
				return ForallE(v, body), nil
			}
		}
		return p.parseAtomOrRelation()
	default:
		return nil, fmt.Errorf("mso: unexpected %q at %s", p.tok.text, p.at(p.tok.pos))
	}
}

func (p *parser) parseAtomOrRelation() (*Formula, error) {
	name := p.tok.text
	p.next()
	switch p.tok.kind {
	case tokLParen:
		// pred(args...)
		p.next()
		var args []string
		for {
			if p.tok.kind != tokIdent {
				return nil, fmt.Errorf("mso: expected argument at %s", p.at(p.tok.pos))
			}
			args = append(args, p.tok.text)
			p.next()
			if p.tok.kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("mso: expected ')' at %s", p.at(p.tok.pos))
		}
		p.next()
		return Atom(name, args...), nil
	case tokEq:
		p.next()
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("mso: expected identifier after '=' at %s", p.at(p.tok.pos))
		}
		y := p.tok.text
		p.next()
		return Eq(name, y), nil
	case tokNeq:
		p.next()
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("mso: expected identifier after '!=' at %s", p.at(p.tok.pos))
		}
		y := p.tok.text
		p.next()
		return Not(Eq(name, y)), nil
	case tokIdent:
		switch p.tok.text {
		case "in":
			p.next()
			if p.tok.kind != tokIdent || !isSetVar(p.tok.text) {
				return nil, fmt.Errorf("mso: expected set variable after 'in' at %s", p.at(p.tok.pos))
			}
			set := p.tok.text
			p.next()
			return In(name, set), nil
		case "notin":
			p.next()
			if p.tok.kind != tokIdent || !isSetVar(p.tok.text) {
				return nil, fmt.Errorf("mso: expected set variable after 'notin' at %s", p.at(p.tok.pos))
			}
			set := p.tok.text
			p.next()
			return Not(In(name, set)), nil
		case "sub":
			if !isSetVar(name) {
				return nil, fmt.Errorf("mso: expected set variable before 'sub', got %q at %s", name, p.at(p.tok.pos))
			}
			p.next()
			if p.tok.kind != tokIdent || !isSetVar(p.tok.text) {
				return nil, fmt.Errorf("mso: expected set variable after 'sub' at %s", p.at(p.tok.pos))
			}
			y := p.tok.text
			p.next()
			return Subset(name, y), nil
		case "psub":
			if !isSetVar(name) {
				return nil, fmt.Errorf("mso: expected set variable before 'psub', got %q at %s", name, p.at(p.tok.pos))
			}
			p.next()
			if p.tok.kind != tokIdent || !isSetVar(p.tok.text) {
				return nil, fmt.Errorf("mso: expected set variable after 'psub' at %s", p.at(p.tok.pos))
			}
			y := p.tok.text
			p.next()
			return ProperSubset(name, y), nil
		}
	}
	return nil, fmt.Errorf("mso: dangling identifier %q at %s", name, p.at(p.tok.pos))
}
