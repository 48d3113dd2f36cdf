"""Host-speed probe: reports times at one reference host speed.

The benchmark runs on shared hosts whose speed moves by up to 1.7x for tens
of seconds at a time, as other tenants load the machine.  No statistic over
one run removes a slow phase that lasts the whole run, so every timed piece
of work is paired with a probe: a fixed piece of pure-Python work, timed
next to the work, that calls nothing in the package (a program change cannot
move it).  It builds, sorts and slices a dict of 150 floats, the kind of
small-object work the package does per token: on this kind of host that
tracks the package's slow-downs better than an integer loop does.  The work
runs once untimed first, so that the probe times the host and not the
caches the program left behind.
The host part h of a piece of work (its CPU seconds; for the HTTP workload,
all but the endpoint's injected model latency) measured while the probe
takes p is reported as h * REFERENCE_S / p, the time it takes when the host
runs the probe in REFERENCE_S; the rest of its wall time (model latency,
waiting for a CPU at all) is kept as measured.  For operations, p is the
median probe over the surrounding block, so one disturbed probe does not
move the result.
"""

from __future__ import annotations

import resource
import statistics
import time

PROBE_REPEATS = 3
_KEYS = tuple(f" w{i:03d}" for i in range(150))
#: The probe's time on the development box in a quiet phase (see README).
REFERENCE_S = 9.5e-5
#: Probes whose median pairs with one set-up sample.
SETUP_PROBES = 5


def _probe_work() -> None:
    for _ in range(PROBE_REPEATS):
        table = dict(zip(_KEYS, [i * 0.5 for i in range(len(_KEYS))]))
        sorted(table.items(), key=lambda item: -item[1])[:20]


def probe() -> float:
    """Seconds the fixed work takes now, warm."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def no_probe() -> float:
    """Stand-in where times are not scaled (traced runs, reference files)."""
    return 0.0


def setup_probe(probe_fn) -> float:
    return statistics.median(probe_fn() for _ in range(SETUP_PROBES))


def cpu_time() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def scale(wall_s: float, host_s: float, probe_s: float) -> float:
    """``wall_s`` at the reference speed: its host part scaled, the rest kept."""
    host_s = min(max(host_s, 0.0), wall_s)
    return wall_s - host_s + host_s * REFERENCE_S / probe_s


def scale_blocks(wall_s: list[float], host_s: list[float], probe_s: list[float], size: int) -> list[float]:
    """Each op at the reference speed, by the median probe of its block."""
    scaled = []
    for start in range(0, len(wall_s), size):
        block = slice(start, start + size)
        probe_block = statistics.median(probe_s[block])
        scaled.extend(scale(w, h, probe_block) for w, h in zip(wall_s[block], host_s[block]))
    return scaled
