from omp4py import *

@omp
def reductions(n, a):
    total = 0
    prod = 1
    mask = 255
    bits = 0
    flip = 0
    every = True
    some = False
    lo = a[0]
    hi = a[0]
    with omp("parallel for reduction(+:total) reduction(*:prod) reduction(&:mask) reduction(|:bits) reduction(^:flip) reduction(&&:every) reduction(||:some) reduction(min:lo) reduction(max:hi)"):
        for i in range(n):
            total += a[i]
            prod *= 1 + a[i] % 2
            mask &= a[i]
            bits |= a[i]
            flip ^= a[i]
            every = every and a[i] > 0
            some = some or a[i] > 5
            lo = min(lo, a[i])
            hi = max(hi, a[i])
    return [total, prod, mask, bits, flip, every, some, lo, hi]

@omp
def privates(n, a, scale):
    t = 0
    last = -1
    seen = 0
    with omp("parallel for private(t) firstprivate(scale) lastprivate(last) schedule(static, 4)"):
        for i in range(n):
            t = a[i] * scale
            last = t
    with omp("parallel"):
        with omp("for firstprivate(scale) lastprivate(seen) nowait"):
            for i in range(n):
                seen = a[i] + scale
        with omp("sections firstprivate(scale) reduction(+:t)"):
            with omp("section"):
                t += scale
            with omp("section"):
                t += 2 * scale
        with omp("single firstprivate(scale)"):
            a[0] = scale
    return [t, last, seen]

@omp
def defaults(n, a, w):
    acc = 0
    with omp("parallel default(firstprivate) reduction(+:acc)"):
        acc += w
    with omp("parallel default(private)"):
        w = 2
    with omp("parallel default(none) shared(a, n) firstprivate(w)"):
        a[1] = n + w
    return acc

counter = 0

@omp
def tasks(n, a):
    tp = 0
    omp("threadprivate(tp)")
    x = 1
    with omp("parallel copyin(tp)"):
        tp = tp + 1
    with omp("parallel"):
        with omp("single"):
            with omp("task firstprivate(x) private(n)"):
                n = x
                a[0] = n
            with omp("taskloop firstprivate(x) grainsize(2)"):
                for i in range(4):
                    a[i] = x + i
    return a
