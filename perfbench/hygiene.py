"""Run hygiene: a clean start and a clean finish for every iteration.

Before an iteration the process-global PKIX chain cache is flushed and
its counters zeroed, garbage is collected and the kernel's peak-RSS
high-water mark is reset, so ``peak_rss_mib`` is the iteration's own.
After it, :func:`leftovers` names every child process, extra thread or
scratch path the iteration left behind.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import threading
from typing import Iterable, List


def reset_peak_rss() -> None:
    """Reset ``VmHWM`` to the current RSS (Linux ``clear_refs`` mode 5).
    Where the kernel does not offer it, the peak covers the process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """The process's peak RSS since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prepare() -> int:
    """Reset process-global state; returns the baseline thread count."""
    from repro.pki.validation import flush_chain_cache, reset_chain_cache_stats

    flush_chain_cache()
    reset_chain_cache_stats()
    gc.collect()
    reset_peak_rss()
    return threading.active_count()


def leftovers(baseline_threads: int, paths: Iterable[str]) -> List[str]:
    """What an iteration left behind, one message per problem."""
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"{len(children)} child process(es) still alive: "
                        + ", ".join(child.name for child in children))
    threads = threading.active_count()
    if threads != baseline_threads:
        names = sorted(thread.name for thread in threading.enumerate())
        problems.append(f"{threads} threads alive, {baseline_threads} "
                        f"before the run: {', '.join(names)}")
    problems.extend(f"scratch path left behind: {path}"
                    for path in paths if os.path.exists(path))
    return problems
