"""A tracemalloc window for the memory tests."""

import tracemalloc
from contextlib import contextmanager


@contextmanager
def memtrace():
    """Trace the allocations of the with-block. Yields a list that holds,
    once the block has run, (base, live, peak) in bytes: the traced memory
    at the block's start, at its end and at its highest. Tracing stops
    however the block ends."""
    tracemalloc.start()
    try:
        usage = [tracemalloc.get_traced_memory()[0]]
        yield usage
        usage += tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
