// Package sqlparser implements the SQL front end: a hand-written lexer
// and recursive-descent parser for the dialect the paper's queries use —
// SELECT [DISTINCT] over multiple range variables, WHERE with arbitrary
// AND/OR/NOT nesting, comparison and LIKE predicates, arithmetic, scalar
// subqueries with the five standard aggregates (plus DISTINCT variants),
// quantified subqueries (EXISTS / IN and negations), and ORDER BY.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier or non-reserved word.
	TokIdent
	// TokKeyword is a reserved word (normalized to upper case).
	TokKeyword
	// TokInt is an integer literal.
	TokInt
	// TokFloat is a floating-point literal.
	TokFloat
	// TokString is a single-quoted string literal (quotes stripped).
	TokString
	// TokOp is an operator or punctuation: = <> != < <= > >= + - * / ( ) , .
	TokOp
)

// Token is one lexical token with its source position (1-based).
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords are the reserved words of the dialect, each mapped to its own
// spelling. Aggregate names are deliberately NOT reserved so they can
// still appear as column names; the parser recognizes them contextually
// before a parenthesis.
var keywords = wordSet("SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT",
	"LIKE", "IS", "NULL", "EXISTS", "IN", "ORDER", "BY", "ASC", "DESC", "AS",
	"TRUE", "FALSE", "BETWEEN", "ALL", "SOME", "ANY", "GROUP", "HAVING", "LIMIT")

// wordSet maps each word to itself.
func wordSet(words ...string) map[string]string {
	m := make(map[string]string, len(words))
	for _, w := range words {
		m[w] = w
	}
	return m
}

// lookupWord returns the word of set that w spells in ASCII letters of
// either case, "" when it spells none. The set's words are upper-case
// ASCII of at most eight letters, so a word with another byte in it is
// none of them.
func lookupWord(set map[string]string, w string) string {
	var up [8]byte
	if len(w) > len(up) {
		return ""
	}
	for i := 0; i < len(w); i++ {
		c := w[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return set[string(up[:len(w)])]
}

// isBlank reports whether c separates tokens.
func isBlank(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// isOpByte reports whether c is one of the operator and punctuation
// characters, each a token or the start of one.
func isOpByte(c byte) bool { return strings.IndexByte("=<>!+-*/(),.", c) >= 0 }

// estimateTokens is about how many tokens input lexes to: one per run of
// bytes between blanks, one per operator character, and the end.
func estimateTokens(input string) int {
	n, inRun := 1, false
	for i := 0; i < len(input); i++ {
		c := input[i]
		if isOpByte(c) {
			n++
		}
		blank := isBlank(c)
		if !blank && !inRun {
			n++
		}
		inRun = !blank
	}
	return n
}

// Lex tokenizes the input or reports the first lexical error.
func Lex(input string) ([]Token, error) {
	toks := make([]Token, 0, estimateTokens(input))
	line, col := 1, 1
	i := 0
	adv := func(n int) {
		for k := 0; k < n; k++ {
			if input[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	// next decodes the character at i: a byte below utf8.RuneSelf is
	// itself, and an invalid UTF-8 byte is utf8.RuneError of size 1.
	next := func() (rune, int) {
		if c := input[i]; c < utf8.RuneSelf {
			return rune(c), 1
		}
		return utf8.DecodeRuneInString(input[i:])
	}
	for i < len(input) {
		c := input[i]
		r, size := next()
		switch {
		case isBlank(c):
			adv(1)
		case c == '-' && i+1 < len(input) && input[i+1] == '-': // line comment
			for i < len(input) && input[i] != '\n' {
				adv(1)
			}
		case isIdentStart(r):
			start, l0, c0 := i, line, col
			for i < len(input) {
				r, size := next()
				if !isIdentPart(r) {
					break
				}
				adv(size)
			}
			word := input[start:i]
			if kw := lookupWord(keywords, word); kw != "" {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Line: l0, Col: c0})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: strings.ToLower(word), Line: l0, Col: c0})
			}
		case c >= '0' && c <= '9':
			start, l0, c0 := i, line, col
			kind := TokInt
			for i < len(input) && input[i] >= '0' && input[i] <= '9' {
				adv(1)
			}
			if i+1 < len(input) && input[i] == '.' && input[i+1] >= '0' && input[i+1] <= '9' {
				kind = TokFloat
				adv(1)
				for i < len(input) && input[i] >= '0' && input[i] <= '9' {
					adv(1)
				}
			}
			// An exponent: e or E, an optional sign, a digit.
			if j := i + 1; j < len(input) && (input[i] == 'e' || input[i] == 'E') {
				if input[j] == '+' || input[j] == '-' {
					j++
				}
				if j < len(input) && input[j] >= '0' && input[j] <= '9' {
					kind = TokFloat
					adv(j - i)
					for i < len(input) && input[i] >= '0' && input[i] <= '9' {
						adv(1)
					}
				}
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Line: l0, Col: c0})
		case c == '\'':
			l0, c0 := line, col
			adv(1)
			text, closed, escaped := "", false, false
			var sb strings.Builder
			for start := i; i < len(input); {
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' { // escaped quote
						if !escaped {
							sb.WriteString(input[start:i])
							escaped = true
						}
						sb.WriteByte('\'')
						adv(2)
						continue
					}
					if text = input[start:i]; escaped {
						text = sb.String()
					}
					adv(1)
					closed = true
					break
				}
				if escaped {
					sb.WriteByte(input[i])
				}
				adv(1)
			}
			if !closed {
				return nil, fmt.Errorf("sql:%d:%d: unterminated string literal", l0, c0)
			}
			toks = append(toks, Token{Kind: TokString, Text: text, Line: l0, Col: c0})
		default:
			l0, c0 := line, col
			two := ""
			if i+1 < len(input) {
				two = input[i : i+2]
			}
			switch two {
			case "<>", "!=", "<=", ">=":
				op := two
				if op == "!=" {
					op = "<>"
				}
				adv(2)
				toks = append(toks, Token{Kind: TokOp, Text: op, Line: l0, Col: c0})
				continue
			}
			switch {
			case c != '!' && isOpByte(c):
				adv(1)
				toks = append(toks, Token{Kind: TokOp, Text: input[i-1 : i], Line: l0, Col: c0})
			case r == utf8.RuneError && size == 1:
				return nil, fmt.Errorf("sql:%d:%d: invalid UTF-8 byte %#x", line, col, c)
			default:
				return nil, fmt.Errorf("sql:%d:%d: unexpected character %q", line, col, string(r))
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
