"""Timing helpers for the tests that bound how a cost grows."""

import gc
import statistics
import time


def time_ratio(slow, fast, repeats):
    """The median over interleaved runs of slow's time over fast's, with
    the collector paused so that no collection of the test process's heap
    is charged to one of them."""
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fast()
            middle = time.perf_counter()
            slow()
            ratios.append((time.perf_counter() - middle) / (middle - start))
    finally:
        gc.enable()
    return statistics.median(ratios)
