package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutEvict(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a lost: %d, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Errorf("c = %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 7)
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 7 {
		t.Errorf("a = %d", v)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Errorf("len = %d, want 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%12)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}
