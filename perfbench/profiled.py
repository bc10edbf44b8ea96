"""Run a module as ``__main__`` under :class:`LayerProfile`.

Usage::

    python perfbench/profiled.py OUT.json -m repro.cli serve ...

The per-file self-time summary is written to ``OUT.json`` when the
module exits (for the server: after its SIGTERM drain).
"""

from __future__ import annotations

import atexit
import runpy
import sys

from layerprof import LayerProfile


def main() -> None:
    if len(sys.argv) < 4 or sys.argv[2] != "-m":
        raise SystemExit("usage: profiled.py OUT.json -m MODULE [ARGS...]")
    out, module = sys.argv[1], sys.argv[3]
    sys.argv = [module] + sys.argv[4:]
    profile = LayerProfile()
    atexit.register(profile.dump, out)
    profile.start()
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
