package tune

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
)

// SectionKey is the constraint on a section's key: a comparable problem
// identity that can check itself after decoding and order itself for
// deterministic serialization.
type SectionKey[K any] interface {
	comparable
	validate() error
	compare(K) int
}

// SectionDecision is the constraint on a section's decision: a
// comparable value that can check itself after decoding.
type SectionDecision interface {
	comparable
	validate() error
}

// Section is one keyed table of measured decisions. Every section of a
// wisdom Table — 2D, out-of-core, permutation, tile store — is a
// Section; the key and decision types differ, the mechanics do not.
// The zero value is an empty section ready to use. Like Table, a
// Section is not safe for concurrent mutation.
type Section[K SectionKey[K], D SectionDecision] struct {
	m map[K]D
}

// Lookup returns the decision recorded for k, if any.
func (s *Section[K, D]) Lookup(k K) (D, bool) {
	d, ok := s.m[k]
	return d, ok
}

// Store records d as the decision for k, replacing any earlier entry.
func (s *Section[K, D]) Store(k K, d D) {
	if s.m == nil {
		s.m = make(map[K]D)
	}
	s.m[k] = d
}

// Len returns the number of recorded decisions.
func (s *Section[K, D]) Len() int { return len(s.m) }

// Keys returns the section's keys in their deterministic sorted order.
func (s *Section[K, D]) Keys() []K {
	ks := make([]K, 0, len(s.m))
	for k := range s.m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, func(a, b K) int { return a.compare(b) })
	return ks
}

// section is what Table's whole-table operations see of a Section.
type section interface {
	Len() int
	merge(from section)
	equal(to section) bool
	encode() (json.RawMessage, error)
	decode(raw json.RawMessage) error
}

// merge copies every entry of from (a section of the same type) into s,
// overwriting collisions.
func (s *Section[K, D]) merge(from section) {
	for k, d := range from.(*Section[K, D]).m {
		s.Store(k, d)
	}
}

// equal reports whether s and to (a section of the same type) hold
// identical entries.
func (s *Section[K, D]) equal(to section) bool { return maps.Equal(s.m, to.(*Section[K, D]).m) }

// encode renders the section as a JSON array of entries in key order;
// an empty section encodes as nothing.
func (s *Section[K, D]) encode() (json.RawMessage, error) {
	if len(s.m) == 0 {
		return nil, nil
	}
	es := make([]entry[K, D], 0, len(s.m))
	for _, k := range s.Keys() {
		es = append(es, entry[K, D]{k, s.m[k]})
	}
	return json.Marshal(es)
}

// decode stores every entry of a JSON array, rejecting the first
// invalid key or decision with a *FormatError.
func (s *Section[K, D]) decode(raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var es []entry[K, D]
	if err := json.Unmarshal(raw, &es); err != nil {
		if fe := (*FormatError)(nil); errors.As(err, &fe) {
			return fe
		}
		return &FormatError{Reason: "decoding", Err: err}
	}
	for _, e := range es {
		if err := e.key.validate(); err != nil {
			return err
		}
		if err := e.decision.validate(); err != nil {
			return err
		}
		s.Store(e.key, e.decision)
	}
	return nil
}

// entry is one file record: the key's JSON fields followed by the
// decision's, in one object, as embedding both structs would lay them
// out.
type entry[K, D any] struct {
	key      K
	decision D
}

// MarshalJSON splices the key object and the decision object into one.
// Every key and decision type has a field without omitempty, so neither
// object is ever empty.
func (e entry[K, D]) MarshalJSON() ([]byte, error) {
	k, err := json.Marshal(e.key)
	if err != nil {
		return nil, err
	}
	d, err := json.Marshal(e.decision)
	if err != nil {
		return nil, err
	}
	return append(append(k[:len(k)-1], ','), d[1:]...), nil
}

// UnmarshalJSON decodes the key and the decision from one object,
// rejecting a member that names a field of neither, as a strict decoder
// of the embedded struct would.
func (e *entry[K, D]) UnmarshalJSON(raw []byte) error {
	var members map[string]json.RawMessage
	if err := json.Unmarshal(raw, &members); err != nil {
		return err
	}
	for name := range members {
		if !hasJSONField[K](name) && !hasJSONField[D](name) {
			return &FormatError{Reason: fmt.Sprintf("unknown field %q", name)}
		}
	}
	if err := json.Unmarshal(raw, &e.key); err != nil {
		return err
	}
	return json.Unmarshal(raw, &e.decision)
}

// hasJSONField reports whether struct type T decodes the object member
// name, matching names case-insensitively as encoding/json does.
func hasJSONField[T any](name string) bool {
	t := reflect.TypeFor[T]()
	for i := range t.NumField() {
		tag, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if strings.EqualFold(tag, name) {
			return true
		}
	}
	return false
}
