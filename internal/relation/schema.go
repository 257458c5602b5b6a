// Package relation implements the relational substrate of the library:
// relation schemes, database schemes, and in-memory relations with set
// semantics, plus table rendering and CSV interchange.
//
// Definitions follow the paper's §2 (after Maier): a relation scheme is a
// finite set of attributes with associated domains; a relation is a subset
// of the product of those domains; a database scheme is a set of relation
// schemes; a database instance assigns a relation to each scheme.
package relation

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"authdb/internal/value"
)

// Schema is a relation scheme: a named, ordered list of attributes with an
// optional declared key. The key is not required by the base model; it
// enables the paper's §4.2 self-join refinement, which needs a lossless
// join witness ("for example, both subviews include the key").
type Schema struct {
	Name  string
	Attrs []string
	// Key holds the indices into Attrs of a candidate key, or nil when no
	// key is declared.
	Key []int
}

// NewSchema builds a scheme, validating attribute names for uniqueness.
// keyAttrs names the key attributes (may be empty).
func NewSchema(name string, attrs []string, keyAttrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation %s: no attributes", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation %s: duplicate attribute %s", name, a)
		}
		seen[a] = true
	}
	s := &Schema{Name: name, Attrs: append([]string(nil), attrs...)}
	for _, k := range keyAttrs {
		i := s.AttrIndex(k)
		if i < 0 {
			return nil, fmt.Errorf("relation %s: key attribute %s not in scheme", name, k)
		}
		s.Key = append(s.Key, i)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and fixtures.
func MustSchema(name string, attrs []string, keyAttrs ...string) *Schema {
	s, err := NewSchema(name, attrs, keyAttrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrIndex returns the position of attribute a, or -1.
func (s *Schema) AttrIndex(a string) int {
	for i, x := range s.Attrs {
		if x == a {
			return i
		}
	}
	return -1
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// KeyAttrs returns the names of the declared key attributes.
func (s *Schema) KeyAttrs() []string {
	out := make([]string, len(s.Key))
	for i, k := range s.Key {
		out[i] = s.Attrs[k]
	}
	return out
}

// String renders the scheme the way the paper writes it, e.g.
// "EMPLOYEE = (NAME, TITLE, SALARY)".
func (s *Schema) String() string {
	return s.Name + " = (" + strings.Join(s.Attrs, ", ") + ")"
}

// DBSchema is a database scheme: a set of relation schemes addressed by
// name. Each scheme's ordinal is its position in definition order; it
// never changes, so the engine keeps relation revisions in a slice
// indexed by it.
type DBSchema struct {
	list    []*Schema
	ordinal map[string]int
}

// NewDBSchema builds an empty database scheme.
func NewDBSchema() *DBSchema {
	return &DBSchema{ordinal: make(map[string]int)}
}

// Add registers a relation scheme with the next ordinal; duplicate names
// are rejected.
func (d *DBSchema) Add(s *Schema) error {
	if _, ok := d.ordinal[s.Name]; ok {
		return fmt.Errorf("relation %s already defined", s.Name)
	}
	d.ordinal[s.Name] = len(d.list)
	d.list = append(d.list, s)
	return nil
}

// Lookup returns the scheme for name, or nil.
func (d *DBSchema) Lookup(name string) *Schema {
	if i, ok := d.ordinal[name]; ok {
		return d.list[i]
	}
	return nil
}

// Ordinal returns the definition-order position of relation name.
func (d *DBSchema) Ordinal(name string) (int, bool) {
	i, ok := d.ordinal[name]
	return i, ok
}

// Clone returns a copy of the database scheme that can be extended
// without affecting the original. The relation schemes themselves are
// shared — they are immutable once built — so cloning is O(#relations),
// which is what lets a versioned engine publish the old scheme to
// pinned readers while the writer adds a relation to the new one.
func (d *DBSchema) Clone() *DBSchema {
	return &DBSchema{list: slices.Clip(d.list), ordinal: maps.Clone(d.ordinal)}
}

// Names returns the relation names in definition order.
func (d *DBSchema) Names() []string {
	out := make([]string, len(d.list))
	for i, s := range d.list {
		out[i] = s.Name
	}
	return out
}

// QualifyAttrs returns the attributes of scheme rel qualified with the
// given alias, e.g. alias "EMPLOYEE:1" yields "EMPLOYEE:1.NAME", …. Query
// processing works over qualified names so that self-products stay
// unambiguous (paper §5, footnote 4).
func QualifyAttrs(alias string, attrs []string) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = alias + "." + a
	}
	return out
}

// SplitQualified splits "alias.ATTR" into its alias and attribute parts.
// Attribute names cannot contain dots, so the last dot separates.
func SplitQualified(q string) (alias, attr string) {
	if i := strings.LastIndexByte(q, '.'); i >= 0 {
		return q[:i], q[i+1:]
	}
	return "", q
}

// BaseOfAlias strips a ":i" occurrence suffix from an alias: "EMPLOYEE:2"
// yields "EMPLOYEE". An alias without a suffix is its own base.
func BaseOfAlias(alias string) string {
	if i := strings.IndexByte(alias, ':'); i >= 0 {
		return alias[:i]
	}
	return alias
}

// value is referenced here so the package's doc-level dependency is clear;
// Tuple aliases live in relation.go.
var _ = value.Null
