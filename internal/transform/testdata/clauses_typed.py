from omp4py import *

@omp
def reductions(n: int, a):
    total: int = 0
    fsum: float = 0.0
    prod: int = 1
    fprod: float = 1.0
    mask: int = 255
    bits: int = 0
    flip: int = 0
    every = True
    lo: float = a[0]
    hi: float = a[0]
    with omp("parallel for reduction(+:total, fsum) reduction(*:prod, fprod) reduction(&:mask) reduction(|:bits) reduction(^:flip) reduction(&&:every) reduction(min:lo) reduction(max:hi)"):
        for i in range(n):
            total += i
            fsum -= a[i]
            prod *= 1 + i % 2
            fprod *= a[i]
            mask &= i
            bits |= i
            flip ^= i
            every = every and a[i] > 0
            lo = min(lo, a[i])
            hi = max(hi, a[i])
    return [total, fsum, prod, fprod, mask, bits, flip, every, lo, hi]

@omp
def privates(n: int, a, scale: float):
    t: float = 0.0
    last: float = -1.0
    seen: float = 0.0
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
def defaults(n: int, a, w: float):
    acc: float = 0.0
    with omp("parallel default(firstprivate) reduction(+:acc)"):
        acc += w
    with omp("parallel default(private)"):
        w = 2.0
    with omp("parallel default(none) shared(a, n) firstprivate(w)"):
        a[1] = n + w
    return acc

@omp
def tasks(n: int, a):
    tp: int = 0
    omp("threadprivate(tp)")
    x: int = 1
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

@omp
def conflicting(n: int):
    both: int = 0
    both: float = 0.5
    with omp("parallel for reduction(+:both)"):
        for i in range(n):
            both += i
    return both
