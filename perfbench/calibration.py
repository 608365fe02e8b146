"""Machine-speed calibration for a shared, noisy host.

On a machine whose cores are shared, the same work can take 1.7 times as
long from one second to the next. The benchmark therefore times a fixed
kernel around every op and reports times scaled to a reference speed:

    normalized = measured * REFERENCE_S / kernel time at that moment

so a run on a momentarily slow host reads the same as one on a fast host,
while a change to the program's own work shows in full. The kernel mixes
interpreted Fraction arithmetic and small numpy calls, like chernlab.

A cold start spends its time starting a process and loading modules,
which this kernel tracks poorly. Cold starts are scaled instead by a cold
`import numpy` timed right after them, against REFERENCE_IMPORT_S.

Both references are part of the benchmark and must stay fixed, or every
baseline moves.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Kernel time, in seconds, that defines the reference speed.
REFERENCE_S = 2.5e-3
# Seconds for a fresh interpreter to import numpy at the reference speed.
REFERENCE_IMPORT_S = 0.12
REFERENCE_IMPORT = "import numpy"


def kernel_seconds() -> float:
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    a = np.arange(50.0)
    for _ in range(200):
        a = a * 1.0000001 + np.sin(a[:2]).sum()
    return perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for work done between two kernel timings."""
    return 2.0 * REFERENCE_S / (before + after)
