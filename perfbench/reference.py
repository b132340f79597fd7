"""A fixed pure-Python workload that times the machine, not gp2.

The benchmark runs on a few cores of a shared host whose speed drifts
by a quarter or more over minutes, and a run of gp2 slows with it.
``time_ms`` is measured before and after every timed run, and the run's
time is reported relative to the mean of the two, which cancels most of
that drift.  The workload imports nothing from gp2 and does the kinds
of interpreter work gp2 does: slotted objects linked into chains, dict
inserts and deletes, ``bytearray.find`` over sparse flags, and building
and tokenising text.  It must not change, or relative times measured
before and after the change stop being comparable.
"""

from __future__ import annotations

import gc
import time


class _Cell:
    __slots__ = ("key", "label", "next")


def _chains(n: int = 40_000) -> int:
    by_key = {}
    head = None
    for i in range(n):
        cell = _Cell()
        cell.key, cell.label, cell.next = i, (i, i & 7), head
        by_key[i] = cell
        head = cell
    hits = 0
    for _ in range(4):
        cell = head
        while cell is not None:
            if cell.label[1] == 3:
                hits += 1
            cell = cell.next
    for i in range(0, n, 3):
        del by_key[i]
    return hits + len(by_key)


def _flag_scan(n: int = 20_000, passes: int = 20, chunk: int = 128) -> int:
    live = bytearray(n)
    live[::7] = b"\x01" * len(range(0, n, 7))
    found = 0
    for _ in range(passes):
        i = 0
        while i < n:
            j = live.find(1, i, i + chunk)
            if j < 0:
                i += chunk
                continue
            found += 1
            i = j + 1
    return found


def _text(n: int = 30_000) -> int:
    text = " ".join(f"({i}, {i % 13}:{i % 5})" for i in range(n))
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return len(counts)


def _arithmetic(n: int = 400_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def time_ms() -> float:
    """Wall time of one pass of the reference workload, in ms (about
    0.15 s on a 2-vCPU VM).  Garbage left before it is collected first,
    outside the clock."""
    gc.collect()
    t0 = time.perf_counter()
    _chains()
    _flag_scan()
    _text()
    _arithmetic()
    return (time.perf_counter() - t0) * 1000.0
