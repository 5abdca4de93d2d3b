package keyspace

import "fmt"

// Cursor walks a key space sequentially using the cheap next operator of
// Figure 2 instead of re-running the f(id) conversion of Figure 1 for every
// candidate. This is the paper's core fine-grain optimization: K_next is a
// small constant (usually a single byte mutation) while K_f grows with the
// key length.
//
// A Cursor is not safe for concurrent use; each worker thread owns one.
type Cursor struct {
	space *Space
	key   []byte
	done  bool
}

// NewCursor positions a cursor on the key with dense identifier id.
func NewCursor(s *Space, id ID) (*Cursor, error) {
	key, err := s.AppendKey(make([]byte, 0, s.maxLen+1), id)
	if err != nil {
		return nil, err
	}
	return &Cursor{space: s, key: key}, nil
}

// NewCursor64 positions a cursor on the key with identifier id. It panics
// when id is out of range.
func NewCursor64(s *Space, id uint64) *Cursor {
	key := s.AppendKey64(make([]byte, 0, s.maxLen+1), id)
	return &Cursor{space: s, key: key}
}

// CursorAt positions a cursor on an explicit key, which must belong to the
// space.
func CursorAt(s *Space, key []byte) (*Cursor, error) {
	if !s.Contains(key) {
		return nil, fmt.Errorf("keyspace: key %q not in space", key)
	}
	c := &Cursor{space: s, key: make([]byte, len(key), s.maxLen+1)}
	copy(c.key, key)
	return c, nil
}

// Key returns the current key. The returned slice aliases the cursor's
// internal buffer and is invalidated by Next; copy it to retain it.
func (c *Cursor) Key() []byte { return c.key }

// Exhausted reports whether the cursor has moved past the end of the space.
func (c *Cursor) Exhausted() bool { return c.done }

// Next advances the cursor to the successor key. It returns false, and
// marks the cursor exhausted, when the current key is the last one of the
// space. The amortized cost is O(1): most calls mutate a single byte.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	c.key = nextRaw(c.key, c.space.cs, c.space.order)
	if len(c.key) > c.space.maxLen {
		// The previous key was the last one of the space: every position
		// held the top symbol. Restore it and mark the cursor exhausted.
		top := c.space.cs.Symbol(c.space.cs.Len() - 1)
		c.key = c.key[:c.space.maxLen]
		for i := range c.key {
			c.key[i] = top
		}
		c.done = true
		return false
	}
	return true
}

// runBytes is how many leading bytes a prefix-major run varies: one packed
// uint32 word, the word the reversal kernels of Section V iterate.
const runBytes = 4

// Run reports the run the cursor sits in: the n keys from the current one
// on, it included, differ from it only in their first k bytes. Under
// PrefixMajor, k = min(runBytes, len(key)) and n counts what is left of the
// N^k values of those k digits — runs never cross a length, so all n keys
// are in the space. Under SuffixMajor every run is the one key (k = 0,
// n = 1).
func (c *Cursor) Run() (k int, n uint64) {
	if c.space.order != PrefixMajor {
		return 0, 1
	}
	k = min(runBytes, len(c.key))
	span, pos := uint64(1), uint64(0)
	for i := 0; i < k; i++ {
		pos += uint64(c.space.cs.Index(c.key[i])) * span
		span *= uint64(c.space.cs.Len())
	}
	return k, span - pos
}

// NextRun advances the cursor past the run Run reports, to the first key
// after it, with one carry out of the run's k digits; it is n calls to
// Next. It returns false, and marks the cursor exhausted on the last key,
// when that run was the last of the space.
func (c *Cursor) NextRun() bool {
	if c.done {
		return false
	}
	// Putting the run's digits on their top value makes Next's carry
	// ripple through them into position k.
	k, _ := c.Run()
	top := c.space.cs.Symbol(c.space.cs.Len() - 1)
	for i := 0; i < k; i++ {
		c.key[i] = top
	}
	return c.Next()
}
