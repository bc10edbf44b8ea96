"""Host self time per source file, across every thread of a process.

cProfile only sees the thread that enabled it.  :class:`LayerProfile`
profiles the calling thread and patches ``threading.Thread.run`` so
each thread started afterwards (serve worker threads, executor
threads) gets its own profiler; :meth:`LayerProfile.dump` merges them.

Self time of C builtins (``dict.get``, ``list.append``, file I/O...)
is charged to the Python function that called them, so a module's
share includes the builtins its own code spends time in.  The
exception is blocking: a thread parked in ``epoll.poll``, a lock or
``sleep`` is idle, not working, and that time is keyed ``wait``.
Files under ``repro/`` are keyed by their path below it
(``gpu/sm.py``); this directory's own files are ``bench``; everything
else is ``lib``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import re
import threading
from typing import Dict, List

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: functions whose cumulative time the benchmark reads by name
CUMULATIVE = {
    ("workloads/__init__.py", "build_workload"),
    ("db/store.py", "record"),
    ("db/store.py", "flush"),
    ("db/store.py", "close"),
}


_BLOCKING = re.compile(r"'(poll|select|acquire)' of|time\.sleep")


def _file_key(path: str) -> str:
    marker = os.sep + "repro" + os.sep
    if marker in path:
        return path.rsplit(marker, 1)[1].replace(os.sep, "/")
    if os.path.abspath(path).startswith(_BENCH_DIR):
        return "bench"
    return "lib"


class LayerProfile:
    """Profiles this thread and every thread started after :meth:`start`."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main = cProfile.Profile()
        self._original_run = threading.Thread.run

    def start(self) -> None:
        profiles, lock = self._profiles, self._lock
        original = self._original_run

        def run(thread: threading.Thread) -> None:
            profile = cProfile.Profile()
            with lock:
                profiles.append(profile)
            profile.enable()
            try:
                original(thread)
            finally:
                profile.disable()

        threading.Thread.run = run
        self._main.enable()

    def stop(self) -> None:
        self._main.disable()
        threading.Thread.run = self._original_run

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{"files": {key: self_s}, "cumulative": {"file:fn": s}}``."""
        stats = pstats.Stats(self._main)
        with self._lock:
            for profile in self._profiles:
                stats.add(profile)
        files: Dict[str, float] = {}
        cumulative: Dict[str, float] = {}
        for (path, _line, name), row in stats.stats.items():
            self_s, total_s, callers = row[2], row[3], row[4]
            if path == "~":
                if _BLOCKING.search(name):
                    files["wait"] = files.get("wait", 0.0) + self_s
                    continue
                # a builtin: charge each caller's share to the caller
                for (cpath, _cl, _cn), crow in callers.items():
                    key = _file_key(cpath)
                    files[key] = files.get(key, 0.0) + crow[2]
                continue
            key = _file_key(path)
            files[key] = files.get(key, 0.0) + self_s
            if (key, name) in CUMULATIVE:
                label = f"{key}:{name}"
                cumulative[label] = cumulative.get(label, 0.0) + total_s
        return {"files": files, "cumulative": cumulative}

    def dump(self, path: str) -> None:
        self.stop()
        with open(path, "w") as handle:
            json.dump(self.summary(), handle)
