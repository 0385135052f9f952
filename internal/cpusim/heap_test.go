package cpusim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the scheduler's core heap on container/heap, the order the
// typed coreHeap must reproduce.
type refHeap []*coreState

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].now < h[j].now }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*coreState)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestCoreHeapMatchesContainerHeap steps cores whose local times tie
// often (starting equal, advancing by 0 to 3 cycles) through both heaps
// and checks that every quantum picks the same core.
func TestCoreHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		got := make(coreHeap, n)
		want := make(refHeap, n)
		for i := range got {
			now := uint64(rng.Intn(3))
			if trial%2 == 0 {
				now = 0 // every core starts tied
			}
			got[i] = &coreState{id: i, now: now}
			want[i] = &coreState{id: i, now: now}
		}
		got.init()
		heap.Init(&want)
		for step := 0; len(want) > 0; step++ {
			if len(got) != len(want) {
				t.Fatalf("trial %d step %d: %d cores left, container/heap has %d", trial, step, len(got), len(want))
			}
			if got[0].id != want[0].id {
				t.Fatalf("trial %d step %d: core %d steps, container/heap steps core %d", trial, step, got[0].id, want[0].id)
			}
			if rng.Intn(20) == 0 {
				got.pop()
				heap.Pop(&want)
				continue
			}
			d := uint64(rng.Intn(4))
			got[0].now += d
			want[0].now += d
			got.fix()
			heap.Fix(&want, 0)
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d cores left, container/heap has none", trial, len(got))
		}
	}
}
