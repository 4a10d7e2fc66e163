package rt

import (
	"fmt"
	"testing"
)

// BenchmarkRegionOverhead measures the fork-join cost of an empty
// parallel region — the quantity behind the paper's Fig. 5 overhead
// comparison. Regions dispatch to parked pool workers and recycle their
// teams (no per-region deque or team allocation).
func BenchmarkRegionOverhead(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("%dT", n), func(b *testing.B) {
			r := NewWithEnv(LayerAtomic, fakeEnv(nil))
			defer r.Shutdown()
			ctx := r.NewContext()
			body := func(c *Context) error { return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Parallel(ctx, ParallelOpts{NumThreads: n}, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
