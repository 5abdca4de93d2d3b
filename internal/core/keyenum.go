package core

import "keysearch/internal/keyspace"

// KeyEnumerator adapts a keyspace.Space to the Enumerator interface.
type KeyEnumerator struct {
	space  *keyspace.Space
	cursor *keyspace.Cursor
}

// NewKeyEnumerator returns an enumerator positioned at id 0.
func NewKeyEnumerator(space *keyspace.Space) *KeyEnumerator {
	return &KeyEnumerator{space: space}
}

// Seek positions the enumerator on the key with dense identifier id.
func (e *KeyEnumerator) Seek(id keyspace.ID) error {
	c, err := keyspace.NewCursor(e.space, id)
	if err != nil {
		return err
	}
	e.cursor = c
	return nil
}

// Candidate returns the current key.
func (e *KeyEnumerator) Candidate() []byte { return e.cursor.Key() }

// Next advances to the successor key.
func (e *KeyEnumerator) Next() bool { return e.cursor.Next() }

// KeyspaceFactory adapts a keyspace.Space to the Factory interface.
func KeyspaceFactory(space *keyspace.Space) Factory {
	return FuncFactory{
		New:      func() Enumerator { return NewKeyEnumerator(space) },
		SpaceLen: space.Size(),
	}
}
