package verify

import (
	"fmt"
	"strings"
)

// ParseCTL parses a CTL formula from text. Grammar (precedence low to
// high): "->" (right assoc), "|", "&", then unary operators
// !, AG, AF, AX, EG, EF, EX, and the until forms "A[φ U ψ]" and
// "E[φ U ψ]". Atoms are proposition names ([A-Za-z0-9_:./-]+); "true"
// and "false" are literals. Example:
//
//	AG(svc:control -> EF all-up)
func ParseCTL(input string) (CTLFormula, error) {
	p := &parser{tokens: lex(input)}
	f, err := p.parseCTLExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("verify: unexpected trailing input %q", p.peek())
	}
	return f, nil
}

// --- lexer ---

// lex splits the input into tokens: parens, brackets, operators and
// atoms. Atoms are ASCII ([A-Za-z0-9_:./-]); any other byte becomes a
// single-byte token, which the parser rejects.
func lex(input string) []string {
	var tokens []string
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(' || c == ')' || c == '[' || c == ']' || c == '!' || c == '&' || c == '|':
			tokens = append(tokens, string(c))
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '>':
			tokens = append(tokens, "->")
			i += 2
		default:
			j := i
			for j < len(input) && isAtomRune(input[j]) {
				// "-" is valid inside atoms but "-​>" was handled above;
				// stop an atom before "->".
				if input[j] == '-' && j+1 < len(input) && input[j+1] == '>' {
					break
				}
				j++
			}
			if j == i {
				// Byte-preserving: string(c) would UTF-8-expand the
				// byte and change the text on a render round-trip.
				tokens = append(tokens, input[i:i+1])
				i++
				continue
			}
			tokens = append(tokens, input[i:j])
			i = j
		}
	}
	return tokens
}

// isAtomRune reports whether c may appear in a proposition name.
func isAtomRune(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9') || strings.IndexByte("_:./-", c) >= 0
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	tokens []string
	pos    int
}

func (p *parser) peek() string {
	if p.pos < len(p.tokens) {
		return p.tokens[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) eof() bool { return p.pos >= len(p.tokens) }

func (p *parser) expect(tok string) error {
	if p.peek() != tok {
		return fmt.Errorf("verify: expected %q, got %q", tok, p.peek())
	}
	p.pos++
	return nil
}

// isAtomToken reports whether tok can be a proposition name: one or
// more atom bytes, and not the until keyword.
func isAtomToken(tok string) bool {
	if tok == "" || tok == "U" {
		return false
	}
	for i := 0; i < len(tok); i++ {
		if !isAtomRune(tok[i]) {
			return false
		}
	}
	return true
}

// --- CTL parsing ---

func (p *parser) parseCTLExpr() (CTLFormula, error) {
	left, err := p.parseCTLOr()
	if err != nil {
		return nil, err
	}
	if p.peek() == "->" {
		p.next()
		right, err := p.parseCTLExpr() // right associative
		if err != nil {
			return nil, err
		}
		return Implies(left, right), nil
	}
	return left, nil
}

func (p *parser) parseCTLOr() (CTLFormula, error) {
	left, err := p.parseCTLAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.next()
		right, err := p.parseCTLAnd()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) parseCTLAnd() (CTLFormula, error) {
	left, err := p.parseCTLUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&" {
		p.next()
		right, err := p.parseCTLUnary()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
	return left, nil
}

func (p *parser) parseCTLUnary() (CTLFormula, error) {
	tok := p.peek()
	switch tok {
	case "!":
		p.next()
		f, err := p.parseCTLUnary()
		if err != nil {
			return nil, err
		}
		return Not(f), nil
	case "(":
		p.next()
		f, err := p.parseCTLExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return f, nil
	case "AG", "AF", "AX", "EG", "EF", "EX":
		p.next()
		f, err := p.parseCTLUnary()
		if err != nil {
			return nil, err
		}
		switch tok {
		case "AG":
			return AG(f), nil
		case "AF":
			return AF(f), nil
		case "AX":
			return AX(f), nil
		case "EG":
			return EG(f), nil
		case "EF":
			return EF(f), nil
		default:
			return EX(f), nil
		}
	case "A", "E":
		p.next()
		if err := p.expect("["); err != nil {
			return nil, err
		}
		a, err := p.parseCTLExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("U"); err != nil {
			return nil, err
		}
		b, err := p.parseCTLExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		if tok == "A" {
			return AU(a, b), nil
		}
		return EU(a, b), nil
	case "true":
		p.next()
		return True(), nil
	case "false":
		p.next()
		return Not(True()), nil
	default:
		if isAtomToken(tok) {
			p.next()
			return AP(Prop(tok)), nil
		}
		return nil, fmt.Errorf("verify: unexpected token %q", tok)
	}
}
