import ctypes
import resource

import numpy as np
import pytest

import mvprune  # noqa: F401  (importing the package fixes the allocator's thresholds)


def _tape_like_cycle(n: int, blocks: int):
    """Hold `blocks` touched n x n arrays at once, then free them all, as a
    forward and backward over one graph does."""
    held = [np.ones((n, n)) for _ in range(blocks)]
    del held


def test_freed_arrays_are_reused_without_page_faults():
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("no glibc mallopt")
    _tape_like_cycle(620, 12)  # warm up: the heap grows once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        _tape_like_cycle(620, 12)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # with adaptive thresholds, each cycle refaults its 12 x 751 pages (45k in all)
    assert faults < 500, faults
