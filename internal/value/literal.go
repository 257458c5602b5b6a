package value

// Literal renders v as a statement-language literal that reparses to an
// equal value: integers in decimal, strings bare when they lex as a
// single identifier and double-quoted otherwise. The null value has no
// literal form (base relations never store nulls) and renders as its
// display form "-"; serializers must check Representable first.
func Literal(v Value) string {
	switch v.kind {
	case KindString:
		if bareWord(v.s) {
			return v.s
		}
		return `"` + v.s + `"`
	default:
		return v.String()
	}
}

// Representable reports whether Literal(v) reparses to a value equal to
// v. It is false for null (no literal form) and for strings containing a
// double quote (the statement language has no escape sequences).
func Representable(v Value) bool {
	if v.kind == KindNull {
		return false
	}
	if v.kind == KindString {
		for i := 0; i < len(v.s); i++ {
			if v.s[i] == '"' {
				return false
			}
		}
	}
	return true
}

// bareWord mirrors the statement lexer's identifier rule for an ASCII
// word: a letter or underscore followed by letters, digits, underscores,
// and interior hyphens that glue to a following identifier character
// ("bq-45"). A word failing this must be quoted or it would lex as
// something else. Every other word is quoted too: the lexer reads
// identifiers that start in ASCII byte by byte, so a non-ASCII letter
// after the first character would end the bare word ("aé").
func bareWord(s string) bool {
	if s == "" || !isLetter(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case isLetter(c) || c >= '0' && c <= '9':
		case c == '-':
			if i+1 >= len(s) || !isLetter(s[i+1]) && !(s[i+1] >= '0' && s[i+1] <= '9') {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isLetter reports an ASCII letter or underscore.
func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
