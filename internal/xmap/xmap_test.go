package xmap

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/sim"
)

func run(t *testing.T, body func(th *sim.Thread)) {
	t.Helper()
	e := sim.New(cost.NewModel(cost.Challenge100), 1)
	e.Spawn("test", 0, body)
	e.Run()
}

func TestBindResolveUnbind(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(16, sim.KindMutex, "t")
		k := PortKey(80, 1234)
		if err := m.Bind(th, k, "pcb"); err != nil {
			t.Fatal(err)
		}
		if err := m.Bind(th, k, "dup"); err != ErrExists {
			t.Errorf("dup bind err = %v, want ErrExists", err)
		}
		v, ok := m.Resolve(th, k)
		if !ok || v != "pcb" {
			t.Fatalf("resolve = %v, %v", v, ok)
		}
		if err := m.Unbind(th, k); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Resolve(th, k); ok {
			t.Error("resolved after unbind")
		}
		if err := m.Unbind(th, k); err != ErrNotFound {
			t.Errorf("unbind missing err = %v, want ErrNotFound", err)
		}
	})
}

func TestOneBehindCache(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(16, sim.KindMutex, "t")
		k := PortKey(5000, 0)
		m.Bind(th, k, 1)
		m.Resolve(th, k) // miss, fills cache
		m.Resolve(th, k) // hit
		m.Resolve(th, k) // hit
		if s := m.Stats(); s.CacheHits != 2 {
			t.Errorf("cache hits = %d, want 2", s.CacheHits)
		}
		// Unbind must invalidate the cache.
		m.Unbind(th, k)
		if _, ok := m.Resolve(th, k); ok {
			t.Error("stale cache entry survived unbind")
		}
	})
}

func TestManyBindingsCollide(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(4, sim.KindMutex, "t") // force chains
		for i := 0; i < 100; i++ {
			if err := m.Bind(th, PortKey(uint16(i), 9), i); err != nil {
				t.Fatal(err)
			}
		}
		if m.Len(th) != 100 {
			t.Fatalf("len = %d, want 100", m.Len(th))
		}
		for i := 0; i < 100; i++ {
			v, ok := m.Resolve(th, PortKey(uint16(i), 9))
			if !ok || v.(int) != i {
				t.Fatalf("resolve %d = %v, %v", i, v, ok)
			}
		}
	})
}

func TestConcurrentResolves(t *testing.T) {
	e := sim.New(cost.NewModel(cost.Challenge100), 3)
	m := New(32, sim.KindMutex, "t")
	e.Spawn("setup", 0, func(th *sim.Thread) {
		for i := 0; i < 16; i++ {
			m.Bind(th, ProtoKey(uint32(i)), i)
		}
		for p := 0; p < 4; p++ {
			p := p
			e.Spawn(fmt.Sprintf("r%d", p), p, func(th *sim.Thread) {
				for j := 0; j < 100; j++ {
					k := uint32(th.Rand().Intn(16))
					v, ok := m.Resolve(th, ProtoKey(k))
					if !ok || v.(int) != int(k) {
						t.Errorf("resolve %d = %v, %v", k, v, ok)
					}
				}
			})
		}
	})
	e.Run()
}

func TestLockingDisabledStillWorks(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(16, sim.KindMutex, "t")
		m.Locking = false
		m.Bind(th, PortKey(1, 2), "v")
		if v, ok := m.Resolve(th, PortKey(1, 2)); !ok || v != "v" {
			t.Fatal("unlocked map lost binding")
		}
		if m.LockStats().Acquires != 0 {
			t.Error("unlocked map acquired its lock")
		}
	})
}

func TestKeyPacking(t *testing.T) {
	if PortKey(1, 2) == PortKey(2, 1) {
		t.Error("PortKey not order-sensitive")
	}
	if AddrKey([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}, 9, 10) ==
		AddrKey([4]byte{5, 6, 7, 8}, [4]byte{1, 2, 3, 4}, 9, 10) {
		t.Error("AddrKey not direction-sensitive")
	}
	if ProtoKey(6) == PortKey(0, 6) {
		t.Error("ProtoKey collides with PortKey")
	}
	f := func(a, b uint16, c, d uint16) bool {
		if a == c && b == d {
			return true
		}
		return PortKey(a, b) != PortKey(c, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapStressRandomOps(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(8, sim.KindMutex, "t")
		ref := map[Key]int{}
		r := sim.NewRand(99)
		for i := 0; i < 2000; i++ {
			k := ProtoKey(uint32(r.Intn(50)))
			switch r.Intn(3) {
			case 0:
				err := m.Bind(th, k, i)
				_, exists := ref[k]
				if (err == nil) == exists {
					t.Fatalf("bind err=%v but exists=%v", err, exists)
				}
				if err == nil {
					ref[k] = i
				}
			case 1:
				v, ok := m.Resolve(th, k)
				want, exists := ref[k]
				if ok != exists || (ok && v.(int) != want) {
					t.Fatalf("resolve mismatch at op %d", i)
				}
			case 2:
				err := m.Unbind(th, k)
				_, exists := ref[k]
				if (err == nil) != exists {
					t.Fatalf("unbind err=%v but exists=%v", err, exists)
				}
				delete(ref, k)
			}
		}
		if m.Len(th) != len(ref) {
			t.Fatalf("len = %d, ref = %d", m.Len(th), len(ref))
		}
	})
}

// Keys are compared whole: two that differ only in the high bits of
// their second word are two bindings, cached or chained.
func TestWideKeysNeverAlias(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(1, sim.KindMutex, "t")
		m.MaxLoad = 0 // one chain: every walk compares the wide key with the narrow one
		narrow := Key{0xdead_beef_0000_0001, 0x8000_0001}
		wide := Key{narrow[0], narrow[1] + 1<<32}
		if err := m.Bind(th, narrow, "narrow"); err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} { // a chain walk, then a 1-behind cache hit on narrow
			if v, ok := m.Resolve(th, wide); ok {
				t.Errorf("Resolve of unbound %x found %v (cache filled: %v)", wide, v, cached)
			}
			if v, ok := m.Resolve(th, narrow); !ok || v != "narrow" {
				t.Errorf("Resolve of %x = %v, %v; want narrow", narrow, v, ok)
			}
		}
		if err := m.Unbind(th, wide); err != ErrNotFound {
			t.Errorf("Unbind of unbound %x: %v, want %v", wide, err, ErrNotFound)
		}
		if err := m.Bind(th, wide, "wide"); err != nil {
			t.Fatal(err)
		}
		for _, k := range []Key{narrow, wide, narrow} {
			if v, ok := m.Resolve(th, k); !ok || (v == "wide") != (k == wide) {
				t.Errorf("Resolve of %x = %v, %v", k, v, ok)
			}
		}
		if n := m.Len(th); n != 2 {
			t.Errorf("%d bindings, want 2", n)
		}
	})
}

// Growing rehashes every value by its own key: every key, its words
// anywhere in their 64 bits, resolves after every grow.
func TestGrowKeepsEveryKey(t *testing.T) {
	run(t, func(th *sim.Thread) {
		m := New(2, sim.KindMutex, "t")
		m.MaxLoad = 2
		var keys []Key
		for i := uint64(0); i < 600; i++ {
			k := Key{i % 3, i * 0x9e37_79b9_7f4a_7c15}
			grows := m.grows
			if err := m.Bind(th, k, i); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
			if m.grows == grows {
				continue
			}
			for j, k := range keys {
				if v, ok := m.Resolve(th, k); !ok || v.(uint64) != uint64(j) {
					t.Fatalf("after grow %d, Resolve of %x = %v, %v; want %d", m.grows, k, v, ok, j)
				}
			}
		}
		if m.grows < 5 {
			t.Errorf("the map grew %d times, want at least 5", m.grows)
		}
		checkChains(t, &m.Table, nil)
	})
}
