"""Host facts, process memory from /proc, and a NumPy copy bandwidth."""

from __future__ import annotations

import os
import platform
import shutil
import signal
import subprocess
import time

import numpy as np


def nproc() -> int:
    """What ``nproc`` prints: honours OMP_NUM_THREADS and CPU affinity."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return int(out.stdout.strip())
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def llc_bytes() -> int:
    """Size of the highest-level cache of cpu0, from sysfs (0 if unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{entry}/level").strip()
        size = _read(f"{base}/{entry}/size").strip()
        if not level.isdigit() or not size:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        nbytes = int(size.rstrip("KMG")) * mult
        best = max(best, (int(level), nbytes))
    return best[1]


def host_facts(num_cpus_used: int) -> dict:
    import pyarrow
    import ray

    model = next((ln.split(":", 1)[1].strip()
                  for ln in _read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), platform.processor())
    mem_kb = next((int(ln.split()[1])
                   for ln in _read("/proc/meminfo").splitlines()
                   if ln.startswith("MemTotal:")), 0)
    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "ram_gb": round(mem_kb / (1 << 20), 2),
        "llc_bytes": llc_bytes(),
        "num_cpus_used": num_cpus_used,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": np.__version__,
    }


# -- processes -------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if not stat:
            continue
        # the command name may contain spaces: ppid follows the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vmhwm_kb(pid: int) -> int:
    for ln in _read(f"/proc/{pid}/status").splitlines():
        if ln.startswith("VmHWM:"):
            return int(ln.split()[1])
    return 0


def _is_ray_worker(pid: int) -> bool:
    """A Ray task or actor worker: titled ``ray::...`` once running, or
    still ``python .../default_worker.py`` while starting (the raylet only
    names that script inside one of its flags)."""
    args = _read(f"/proc/{pid}/cmdline").split("\0")
    return args[0].startswith("ray::") or \
        any(a.endswith("default_worker.py") for a in args[:3])


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its Ray worker and actor
    processes (task workers, shard actors), in MiB."""
    me = os.getpid()
    total = _vmhwm_kb(me) + sum(_vmhwm_kb(p) for p in descendants(me)
                                if _is_ray_worker(p))
    return total / 1024.0


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    stat = _read(f"/proc/{pid}/stat")
    return bool(stat) and stat.rsplit(")", 1)[1].split()[0] != "Z"


def _reap_children():
    try:
        while os.waitpid(-1, os.WNOHANG)[0] > 0:
            pass
    except ChildProcessError:
        pass


def wait_for_exit(pids, timeout_s: float = 20.0) -> list[int]:
    """Wait until every pid in ``pids`` and every descendant of this
    process has ended; SIGKILL what is still alive after ``timeout_s``.
    Returns the pids that had to be killed."""
    me = os.getpid()

    def alive():
        _reap_children()
        return [p for p in set(pids) | set(descendants(me)) if _alive(p)]

    deadline = time.monotonic() + timeout_s
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    killed = alive()
    for p in killed:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + 10.0
    while alive() and time.monotonic() < end:
        time.sleep(0.05)
    return killed


# -- memory bandwidth ------------------------------------------------------

def copy_bandwidth(array_bytes: int, reps: int = 5) -> float:
    """Median NumPy copy bandwidth in bytes/s (read + write counted) over
    two float64 arrays of ``array_bytes`` each."""
    n = max(1, array_bytes // 8)
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)            # first touch outside the timing
    secs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        secs.append(time.perf_counter() - t0)
    del src, dst
    return 2.0 * n * 8 / float(np.median(secs))
