"""The reference kernel: fixed work, owned by the benchmark, timed between jobs.

The machines this benchmark runs on are shared, and their speed drifts by a
fifth or more over minutes, so a job's wall time says as much about the
neighbours as about the program. Timing a fixed kernel right before and
right after each job gives the machine's speed at that moment; a job's time
divided by the mean of the two is its time in reference units, and the
drift cancels out of it. The kernel never calls widthbright, so a faster
program shows in full.

A workload names the part of the kernel that does the kind of work its own
jobs spend their time on, since the drift does not slow every kind alike:

    hull   a pure-Python monotone-chain hull of seeded 2D points, the inner
           loop of the mesh-shadow oracle
    gemv   matrix-vector products with a 2048 x 324 table (5 MiB), the shape
           of the rigidity probe's quadratic brightness model at 32x64
    numpy  elementwise numpy on node-sized vectors

Each part takes about 25 ms on a 2-vCPU Xeon with one BLAS thread; all of
them hold under 8 MiB.

    python reference.py N PART[,PART...]   time the parts N times, print the
                                           seconds as a JSON list
"""

import json
import random
import sys
import time

import numpy as np

PARTS = ("hull", "gemv", "numpy")
_INPUTS = {}


def _inputs(part):
    if part not in _INPUTS:
        rng = np.random.default_rng(20240531)
        if part == "hull":
            r = random.Random(20240531)
            _INPUTS[part] = sorted((r.gauss(0.0, 1.0), r.gauss(0.0, 1.0))
                                   for _ in range(3000))
        elif part == "gemv":
            _INPUTS[part] = (rng.random((2048, 324)), rng.random(324))
        else:
            _INPUTS[part] = rng.random(4608)
    return _INPUTS[part]


def _chain(points):
    out = []
    for p in points:
        while len(out) >= 2:
            (ox, oy), (qx, qy) = out[-2], out[-1]
            if (qx - ox) * (p[1] - oy) - (qy - oy) * (p[0] - ox) <= 0.0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def _run(part):
    data = _inputs(part)
    if part == "hull":
        for _ in range(7):
            _chain(data)
            _chain(data[::-1])
    elif part == "gemv":
        table, c = data
        for _ in range(90):
            table @ c
    else:
        for _ in range(350):
            y = np.sqrt(data * data + 1.0)
            np.cos(y, out=y)
            float(y @ data)


def kernel_s(parts):
    """Seconds that one run of the given parts of the kernel takes now."""
    for part in parts:
        _inputs(part)
    t0 = time.perf_counter()
    for part in parts:
        _run(part)
    return time.perf_counter() - t0


if __name__ == "__main__":
    n, parts = int(sys.argv[1]), sys.argv[2].split(",")
    if not set(parts) <= set(PARTS):
        sys.exit("unknown kernel part in %r; parts are %s" % (sys.argv[2], ", ".join(PARTS)))
    print(json.dumps([kernel_s(parts) for _ in range(n)]))
