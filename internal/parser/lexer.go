// Package parser implements the LogiQL lexer and recursive-descent parser
// producing the AST of package ast. The grammar covers the language
// surface used throughout the paper (§2.2): relational and functional
// atoms, derivation rules, aggregation and predict P2P rules, integrity
// constraints, reactive (delta / @start) decorations, and lang: directives.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // any operator / punctuation, text in tok.text
)

type token struct {
	kind tokenKind
	text string
	line int32
	col  int32
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// lexError reports a lexical error with position.
type lexError struct {
	line, col int32
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.line, e.col, e.msg)
}

// lex tokenizes src. Multi-character operators recognized: <-, ->, <<, >>,
// <=, >=, !=.
func lex(src string) ([]token, error) {
	// About one token per two bytes of source: one allocation for most.
	toks := make([]token, 0, len(src)/2+1)
	line, col := int32(1), int32(1)
	i := 0
	n := len(src)
	adv := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				adv(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			start := token{line: line, col: col}
			adv(2)
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				adv(1)
			}
			if i+1 >= n {
				return nil, &lexError{start.line, start.col, "unterminated block comment"}
			}
			adv(2)
		case c == '"':
			startLine, startCol := line, col
			adv(1)
			var b strings.Builder
			for i < n && src[i] != '"' {
				if src[i] == '\\' && i+1 < n {
					adv(1)
					switch src[i] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '\\', '"':
						b.WriteByte(src[i])
					default:
						return nil, &lexError{line, col, fmt.Sprintf("unknown escape \\%c", src[i])}
					}
					adv(1)
					continue
				}
				b.WriteByte(src[i])
				adv(1)
			}
			if i >= n {
				return nil, &lexError{startLine, startCol, "unterminated string literal"}
			}
			adv(1)
			toks = append(toks, token{tokString, b.String(), startLine, startCol})
		case c >= '0' && c <= '9':
			startLine, startCol := line, col
			start := i
			for i < n && src[i] >= '0' && src[i] <= '9' {
				adv(1)
			}
			kind := tokInt
			// A '.' continues the number only when followed by a digit, so
			// the clause terminator after an integer still lexes correctly.
			if i+1 < n && src[i] == '.' && src[i+1] >= '0' && src[i+1] <= '9' {
				kind = tokFloat
				adv(1)
				for i < n && src[i] >= '0' && src[i] <= '9' {
					adv(1)
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < n && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < n && src[j] >= '0' && src[j] <= '9' {
					kind = tokFloat
					adv(j - i)
					for i < n && src[i] >= '0' && src[i] <= '9' {
						adv(1)
					}
				}
			}
			toks = append(toks, token{kind, src[start:i], startLine, startCol})
		case isIdentStart(rune(c)):
			startLine, startCol := line, col
			start := i
			for i < n && isIdentPart(rune(src[i])) {
				adv(1)
			}
			toks = append(toks, token{tokIdent, src[start:i], startLine, startCol})
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<-", "->", "<<", ">>", "<=", ">=", "!=":
				toks = append(toks, token{tokPunct, two, startLine, startCol})
				adv(2)
				continue
			}
			switch c {
			case '(', ')', '[', ']', '{', '}', ',', '.', '=', '<', '>', '!',
				'+', '-', '*', '/', '`', ':', '@', '_', '|', '^':
				toks = append(toks, token{tokPunct, string(c), startLine, startCol})
				adv(1)
			default:
				return nil, &lexError{line, col, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{tokEOF, "", line, col})
	return toks, nil
}

// isIdentStart: identifiers start with a letter; a bare '_' lexes as
// punctuation (the wildcard, or the designated answer predicate of a
// query when followed by an argument list).
func isIdentStart(r rune) bool {
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
