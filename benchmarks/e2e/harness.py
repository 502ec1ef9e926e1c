"""Measurement plumbing shared by every workload: block statistics,
the closed-loop timer, peak-RSS and filesystem probes, the work
directory, and the environment block."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: every window is cut into this many equal-count blocks
BLOCKS = 5
#: share of the run spent warming caches before the timed window
WARM_SHARE = 0.05
#: below this many timed samples a per-block p95 is one or two samples,
#: so the tail is taken over the whole window instead
MIN_TAIL_SAMPLES = 200


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the path, or give up.

    The benchmark measures the program built from the checkout it sits
    in, never an installed copy; without ``src`` there is nothing to
    measure and the command must fail before printing a result.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"e2e benchmark: no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_spec() -> Dict[str, object]:
    """``BENCHMARK.json``: the one place metric and workload names,
    units and bounds are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def default_inventory(n_items: int, seed: int, mode: str = "incremental"):
    """The paper's inventory, populated, ``monitor_items`` active, in
    the engine's default configuration: ``shards="auto"`` is passed
    because ``build_inventory`` pins 1 and would hide the default."""
    from repro.bench.workload import build_inventory

    system = build_inventory(n_items, mode=mode, seed=seed, shards="auto")
    system.activate()
    return system


def system_pids(amos) -> List[int]:
    """The process the engine runs in plus its live pool workers."""
    return [os.getpid()] + list(getattr(amos.rules.engine, "pool_pids", ()))


# -- statistics -------------------------------------------------------------------


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sequence."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def split_blocks(count: int) -> List[Tuple[int, int]]:
    """``BLOCKS`` equal-count index ranges (fewer when count is small)."""
    blocks = min(BLOCKS, count)
    return [
        (count * b // blocks, count * (b + 1) // blocks) for b in range(blocks)
    ]


class Window:
    """Latency samples of one timed window, in completion order.

    ``ends`` are completion times (ascending), ``lats`` the matching
    latencies in seconds, ``start`` the time the window opened.  A
    metric's value is the median over blocks; the block IQR is its
    noise floor.
    """

    def __init__(self, start: float, ends: Sequence[float], lats: Sequence[float]):
        self.start = start
        self.ends = ends
        self.lats = lats

    def __len__(self) -> int:
        return len(self.ends)

    @property
    def seconds(self) -> float:
        return self.ends[-1] - self.start if self.ends else 0.0

    def _per_block(self, fn: Callable[[int, int], float]) -> List[float]:
        return [fn(lo, hi) for lo, hi in split_blocks(len(self))]

    def _block_quantile(self, q: float) -> List[float]:
        return self._per_block(
            lambda lo, hi: quantile(sorted(self.lats[lo:hi]), q) * 1000.0
        )

    def _block_rate(self) -> List[float]:
        def rate(lo: int, hi: int) -> float:
            opened = self.ends[lo - 1] if lo else self.start
            return (hi - lo) / max(self.ends[hi - 1] - opened, 1e-9)

        return self._per_block(rate)

    def summary(self, prefix: str) -> Dict[str, Tuple[float, float]]:
        """``{metric: (value, block_iqr)}`` for p50 / p95 / rate."""
        names = (f"{prefix}_p50_ms", f"{prefix}_p95_ms", f"{prefix}s_per_s")
        if not self.ends:
            return {name: (0.0, 0.0) for name in names}
        if len(self) >= MIN_TAIL_SAMPLES:
            p95 = self._block_quantile(0.95)
        else:
            p95 = [quantile(sorted(self.lats), 0.95) * 1000.0]
        blocks = (self._block_quantile(0.5), p95, self._block_rate())
        return {
            name: (statistics.median(values), iqr(values))
            for name, values in zip(names, blocks)
        }


# -- the embedded closed loop -----------------------------------------------------


def closed_loop(
    apply: Callable[[int], None],
    available: int,
    seconds: float,
    min_warm: int = 1,
) -> Tuple[int, Window]:
    """Run ``apply(0), apply(1), ...`` back to back: warm-up, then a
    timed window of ``seconds``.  Returns ``(operations done, window)``.

    One caller that blocks on each transaction is a closed loop with
    one client.  Warm-up is the first ``WARM_SHARE`` of the run (at
    least ``min_warm`` operations) and is not timed: it fills prober
    caches, tries and memos, and forks the shard pool where one is used.
    """
    now = time.perf_counter
    done = 0
    warm_until = now() + seconds * WARM_SHARE
    while done < available and (done < min_warm or now() < warm_until):
        apply(done)
        done += 1
    gc.collect()
    # flat arrays, not lists of float objects: 100k+ samples would add
    # megabytes that vary with the run's speed to peak_rss_mb
    ends, lats = array("d"), array("d")
    start = clock = now()
    until = start + seconds
    while done < available and clock < until:
        apply(done)
        done += 1
        finished = now()
        lats.append(finished - clock)
        ends.append(finished)
        clock = finished
    return done, Window(start, ends, lats)


# -- probes -----------------------------------------------------------------------


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass  # the process ended before it could be read
    return total_kb / 1024.0


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (WAL fsync cost
    depends on it, so it is part of the record)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                _device, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` (no subprocess); the
    driver's checkouts are not repositories and report ``none``."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "none"


def environment(seed: int, shards: int, work_dir: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "wal_fs": fs_type(work_dir),
        "wal_fsync": "every commit (WriteAheadLog default)",
        "shards_resolved": shards,
        "seed": seed,
        "git_commit": git_commit(),
    }


class KeepAwake:
    """One spinner per core at ``SCHED_IDLE`` priority while a run lasts.

    This box is a VM on a shared host.  A core with nothing to run
    halts, and the first work after a halt runs up to 1.7 times slower
    (a 9 ms loop measured 14-16 ms after 2 s of sleep, 9.3 ms with a
    spinner beside it).  The served workloads and the shard pool sleep
    and wake thousands of times a second, so without this their
    latencies follow the host's mood, not the program.  A ``SCHED_IDLE``
    task runs only when its core would otherwise idle and is preempted
    the moment anything else wakes, so it takes no time from the system
    under test.  A spinner ends by itself when its parent is gone.
    """

    SPIN = (
        "import os, sys\n"
        "try: os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
        "except OSError: sys.exit(1)\n"
        "parent = os.getppid()\n"
        "while os.getppid() == parent:\n"
        "    for _ in range(1000000): pass\n"
    )

    def __enter__(self) -> "KeepAwake":
        self.procs = []
        if hasattr(os, "SCHED_IDLE"):
            self.procs = [
                subprocess.Popen([sys.executable, "-S", "-c", self.SPIN])
                for _ in range(os.cpu_count() or 1)
            ]
        return self

    def running(self) -> int:
        """Spinners alive (0 where the kernel refused ``SCHED_IDLE``)."""
        return sum(proc.poll() is None for proc in self.procs)

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


class WorkDir:
    """A scratch directory inside the benchmark's own directory, gone
    again on exit (the benchmark writes nowhere else)."""

    def __init__(self) -> None:
        self.path: Optional[str] = None

    def __enter__(self) -> "WorkDir":
        os.makedirs(WORK, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK)
        return self

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path)
        return path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no concurrent run is using it
        except OSError:
            pass
