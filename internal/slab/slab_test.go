package slab

import (
	"slices"
	"testing"
)

type item struct {
	id  int
	ptr *int
}

func TestSlotsAreZeroedDistinctAndStable(t *testing.T) {
	var s Slab[item]
	const n = 3*MaxChunk + 17
	ptrs := make([]*item, n)
	seen := make(map[*item]bool, n)
	for i := range ptrs {
		p := s.New()
		if *p != (item{}) {
			t.Fatalf("slot %d handed out non-zero: %+v", i, *p)
		}
		if seen[p] {
			t.Fatalf("slot %d handed out twice", i)
		}
		seen[p] = true
		p.id, p.ptr = i, &p.id
		ptrs[i] = p
	}
	// Every earlier pointer still addresses its own value after all the
	// growth since.
	for i, p := range ptrs {
		if p.id != i || p.ptr != &p.id {
			t.Fatalf("slot %d was moved or overwritten: %+v", i, *p)
		}
	}
}

func TestChunkSizesDoubleToTheCap(t *testing.T) {
	var s Slab[item]
	var want []int
	for c := 1; c < MaxChunk; c *= 2 {
		want = append(want, c)
	}
	want = append(want, MaxChunk, MaxChunk, MaxChunk)
	var got []int
	for len(got) < len(want) {
		s.New()
		if len(s.cur) == 1 { // first slot of a new chunk
			got = append(got, cap(s.cur))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
}

func TestNewDoesNotAllocateWithinAChunk(t *testing.T) {
	var s Slab[item]
	for i := 0; i < 2*MaxChunk-1; i++ { // fill the doubling chunks: the next New starts a full-size one
		s.New()
	}
	s.New()
	if len(s.cur) != 1 || cap(s.cur) != MaxChunk {
		t.Fatalf("current chunk is %d/%d, want 1/%d", len(s.cur), cap(s.cur), MaxChunk)
	}
	if a := testing.AllocsPerRun(MaxChunk-2, func() { s.New() }); a != 0 {
		t.Fatalf("New allocates %.2f times per call with room in the chunk", a)
	}
}
