package sym

import (
	"fmt"
	"sync"
	"testing"
)

// TestSampleStoreConcurrentStress hammers one shared store from many
// goroutines mixing writers (Add) and readers (Lookup, ForFunc, All, Len).
// Run under -race this is the safety net for the store's locking; the final
// assertions check no sample was lost or duplicated.
func TestSampleStoreConcurrentStress(t *testing.T) {
	store := NewSampleStore()
	var pool Pool
	fns := make([]*Func, 4)
	for i := range fns {
		fns[i] = pool.FuncSym(fmt.Sprintf("f%d", i), 1)
	}
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			fn := fns[g%len(fns)]
			for i := 0; i < perG; i++ {
				// Half the goroutines per function write overlapping ranges,
				// so Add races on duplicate keys (must dedup, never panic:
				// the recorded output for a key is always the same).
				arg := int64(i)
				store.Add(fn, []int64{arg}, arg*7)
				if _, ok := store.Lookup(fn, []int64{arg}); !ok {
					t.Error("lost a sample that was just added")
					return
				}
				store.ForFunc(fn)
				if g == 0 && i%50 == 0 {
					store.All()
					store.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := store.Len(), len(fns)*perG; got != want {
		t.Fatalf("store has %d samples, want %d", got, want)
	}
	for _, fn := range fns {
		if got := len(store.ForFunc(fn)); got != perG {
			t.Fatalf("%s has %d samples, want %d", fn.Name, got, perG)
		}
	}
}

// TestSampleStoreOverlayStress mirrors the search's remaining concurrency:
// while proof workers read the shared root store (Lookup, ForFunc, Len), the
// callback tier writes an overlay over it. Under -race this covers
// NewOverlay/Add/Lookup/ForFunc/Len across goroutines; the assertions check
// that readers always see the root's samples and that the overlay's writes
// never reach the root.
func TestSampleStoreOverlayStress(t *testing.T) {
	base := NewSampleStore()
	var pool Pool
	fn := pool.FuncSym("g", 2)
	for i := int64(0); i < 50; i++ {
		base.Add(fn, []int64{i, 0}, i)
	}
	const readers = 8
	var wg sync.WaitGroup
	wg.Add(readers + 1)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				if out, ok := base.Lookup(fn, []int64{(i + int64(g)) % 50, 0}); !ok || out != (i+int64(g))%50 {
					t.Errorf("reader %d missed root sample %d", g, (i+int64(g))%50)
					return
				}
				if n := len(base.ForFunc(fn)); n != 50 {
					t.Errorf("reader %d saw %d samples of %s, want 50", g, n, fn.Name)
					return
				}
				if n := base.Len(); n != 50 {
					t.Errorf("reader %d saw a root store of %d samples, want 50", g, n)
					return
				}
			}
		}(g)
	}
	ov := NewOverlay(base)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 100; i++ {
			// Base hits must resolve through the overlay without copying.
			if out, ok := ov.Lookup(fn, []int64{i % 50, 0}); !ok || out != i%50 {
				t.Errorf("overlay missed base sample %d", i%50)
				return
			}
			// Duplicates of base entries are dropped; new pairs stay local.
			ov.Add(fn, []int64{i % 50, 0}, i%50)
			ov.Add(fn, []int64{i % 20, 1}, (i%20)*10)
		}
	}()
	wg.Wait()
	// 50 base + 20 local samples read through the overlay; none in the root.
	if got, want := ov.Len(), 50+20; got != want {
		t.Fatalf("overlay has %d samples, want %d", got, want)
	}
	if got, want := len(ov.ForFunc(fn)), 50+20; got != want {
		t.Fatalf("overlay lists %d samples of %s, want %d", got, fn.Name, want)
	}
	if got, want := base.Len(), 50; got != want {
		t.Fatalf("overlay writes reached the root store: %d samples, want %d", got, want)
	}
}
