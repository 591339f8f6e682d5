package lru

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestCache(t *testing.T) {
	tests := []struct {
		name    string
		budget  int64
		ops     func(c *Cache[string, int]) (evicted int)
		want    []int // values, newest first
		used    int64
		evicted int
		dropped []string
	}{
		{
			name:   "count eviction spares the refreshed entry",
			budget: 2,
			ops: func(c *Cache[string, int]) int {
				n := c.Add("a", 1, 1) + c.Add("b", 2, 1)
				c.Get("a") // refresh a; b becomes the oldest
				return n + c.Add("c", 3, 1)
			},
			want: []int{3, 1}, used: 2, evicted: 1, dropped: []string{"b"},
		},
		{
			name:   "cost eviction drops oldest until the new entry fits",
			budget: 10,
			ops: func(c *Cache[string, int]) int {
				return c.Add("a", 1, 4) + c.Add("b", 2, 4) + c.Add("c", 3, 1) + c.Add("d", 4, 6)
			},
			want: []int{4, 3}, used: 7, evicted: 2, dropped: []string{"a", "b"},
		},
		{
			name:   "trim with a reserve counts cost held outside the cache",
			budget: 10,
			ops: func(c *Cache[string, int]) int {
				n := c.Add("a", 1, 3) + c.Add("b", 2, 3) + c.Add("c", 3, 3)
				return n + c.Trim(4)
			},
			want: []int{3, 2}, used: 6, evicted: 1, dropped: []string{"a"},
		},
		{
			name:   "trim empties the cache when the reserve alone exceeds the budget",
			budget: 10,
			ops: func(c *Cache[string, int]) int {
				return c.Add("a", 1, 3) + c.Trim(11)
			},
			want: []int{}, used: 0, evicted: 1, dropped: []string{"a"},
		},
		{
			name:   "peek does not refresh",
			budget: 2,
			ops: func(c *Cache[string, int]) int {
				n := c.Add("a", 1, 1) + c.Add("b", 2, 1)
				if v, ok := c.Peek("a"); !ok || v != 1 {
					t.Errorf("Peek(a) = %d, %v", v, ok)
				}
				return n + c.Add("c", 3, 1)
			},
			want: []int{3, 2}, used: 2, evicted: 1, dropped: []string{"a"},
		},
		{
			name:   "newest first after get and re-add",
			budget: 10,
			ops: func(c *Cache[string, int]) int {
				n := c.Add("a", 1, 1) + c.Add("b", 2, 1) + c.Add("c", 3, 1)
				c.Get("b")
				return n + c.Add("a", 10, 2) // replaces value and cost
			},
			want: []int{10, 2, 3}, used: 4,
		},
		{
			name:   "remove drops the entry and its cost",
			budget: 10,
			ops: func(c *Cache[string, int]) int {
				c.Add("a", 1, 4)
				c.Add("b", 2, 5)
				if !c.Remove("a") || c.Remove("a") {
					t.Error("Remove(a) twice: want true then false")
				}
				if _, ok := c.Get("a"); ok {
					t.Error("removed entry still served")
				}
				return 0
			},
			want: []int{2}, used: 5, dropped: []string{"a"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.budget)
			var dropped []string
			c.OnDrop = func(k string, _ int) { dropped = append(dropped, k) }
			if got := tc.ops(c); got != tc.evicted {
				t.Errorf("evicted %d, want %d", got, tc.evicted)
			}
			if got := c.Values(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Values = %v, want %v", got, tc.want)
			}
			if c.Len() != len(tc.want) || c.Used() != tc.used {
				t.Errorf("Len %d Used %d, want %d / %d", c.Len(), c.Used(), len(tc.want), tc.used)
			}
			if !reflect.DeepEqual(dropped, tc.dropped) {
				t.Errorf("dropped %v, want %v", dropped, tc.dropped)
			}
		})
	}
}

func TestGroup(t *testing.T) {
	var g Group[string, int]
	lead, ok := g.Lead("k")
	if !ok {
		t.Fatal("first Lead did not lead")
	}
	again, ok := g.Lead("k")
	if ok || again != lead {
		t.Fatal("second Lead did not join the first flight")
	}

	// A waiter that gives up gets its own ctx.Err(); the flight carries on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := again.Join(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Join err = %v, want context.Canceled", err)
	}

	joined := make(chan int, 1)
	go func() {
		v, err := lead.Join(context.Background())
		if err != nil {
			t.Errorf("Join: %v", err)
		}
		joined <- v
	}()
	g.Finish("k", 42, nil)
	if v := <-joined; v != 42 {
		t.Errorf("waiter got %d, want 42", v)
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d after Finish, want 0", g.Len())
	}
	next, ok := g.Lead("k")
	if !ok || next == lead {
		t.Fatal("Lead after Finish did not start a new flight")
	}
	boom := errors.New("boom")
	g.Finish("k", 0, boom)
	if _, err := next.Join(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Join err = %v, want the lead's error", err)
	}
}
