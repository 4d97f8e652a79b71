"""A fixed reference job that tells how fast the host runs right now.

The host's speed drifts: for minutes at a time every op of a run can be
a tenth slower or faster, the same share for all of them.  `kernel` is
exact rational arithmetic on mid-sized integers, the kind of work the
coefficient tables do, written with the standard library alone, so no
change to ktops changes its cost.  Rounds time it between ops, and
run.py scales the op times by REFERENCE_S over its time, which takes
the host's drift out and leaves the program's own cost.
"""
from __future__ import annotations

from fractions import Fraction

# the kernel's time on the 2-core x86_64 VM the benchmark was defined on
REFERENCE_S = 0.014
# places in a round where the kernel is timed, spread evenly over its ops
SLOTS = 16


def kernel() -> int:
    # About as long as a typical op.  A 2-ms job read a slow host as only
    # half as slow as the ops did, probably because it fits between
    # pauses that a longer job sits through.
    total = 0
    for _ in range(6):
        for i in range(1, 121):
            acc = Fraction(0)
            for j in range(1, 5):
                acc += Fraction(3 ** (i % 23) + j, 7 * i + j) * Fraction(5 ** (j + i % 7), 11 * j + i)
            total += acc.numerator.bit_length()
    return total
