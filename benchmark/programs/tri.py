# Triangular-work loop for the sched-dyn workload: iteration i costs
# i+1 inner steps, so a static block partition is imbalanced and the
# dynamic/guided policies pay per-chunk claims to fix it. Typed, so
# CompiledDT runs the inner loop unboxed; schedule(runtime) keeps the
# loop on the bridge lowering whatever the policy. Every term is a
# multiple of 0.5 below 2**53, so the sum is exact in any order.
from omp4py import *

@omp
def bench_main(threads: int, n: int, seed: int) -> float:
    omp_set_num_threads(threads)
    total: float = 0.0
    with omp("parallel for reduction(+:total) schedule(runtime)"):
        for i in range(n):
            s: float = 0.0
            for j in range(i + 1):
                s += ((i * 31 + j * 17 + seed) % 97) * 0.5
            total += s
    return total
