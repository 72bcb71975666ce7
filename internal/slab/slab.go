// Package slab hands out zeroed values of one type from chunks instead
// of one heap object each, for per-connection state that is created by
// the million and never freed on a hot path (the paper's Section 5.1
// lesson about the message cache, applied to set-up: allocation is a
// per-object cost the protocol code need not pay one object at a time).
//
// Chunks hold 1, 2, 4, ... up to MaxChunk elements, so a stack with one
// connection allocates what a plain new(T) would and a stack with a
// million makes a few hundred allocations. Pointers are stable. There is
// no free list: a value is reclaimed when nothing points into its chunk
// any more, so one live value pins at most MaxChunk*sizeof(T) bytes.
//
// A Slab is not safe for concurrent use; callers mutate it under the
// lock that already serializes their session creation.
package slab

// MaxChunk caps a chunk's element count.
const MaxChunk = 4096

// Slab allocates values of type T. The zero value is ready to use.
type Slab[T any] struct {
	// cur is the current chunk: len used, cap the chunk size. Earlier
	// chunks are kept alive only by the pointers handed out of them.
	cur []T
}

// New returns a pointer to a zeroed T.
func (s *Slab[T]) New() *T {
	if len(s.cur) == cap(s.cur) {
		s.cur = make([]T, 0, min(max(2*cap(s.cur), 1), MaxChunk))
	}
	s.cur = s.cur[:len(s.cur)+1]
	return &s.cur[len(s.cur)-1]
}
