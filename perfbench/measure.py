"""Small measurement helpers: percentiles, /proc readings, host facts."""

from __future__ import annotations

import os
import platform
from typing import Dict, Sequence

import numpy as np

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (all threads)."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of stat(5); index 0 here is field 3.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _status_kib(pid: int, key: str) -> int:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mib(pid: int) -> float:
    """High-water resident set (VmHWM) of process ``pid``, in MiB."""
    return _status_kib(pid, "VmHWM") / 1024.0


def rss_mib(pid: int) -> float:
    """Current resident set (VmRSS) of process ``pid``, in MiB."""
    return _status_kib(pid, "VmRSS") / 1024.0


def host_metadata() -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "network": "loopback, not a real link",
    }
