"""Paths, import bootstrap and process accounting shared by the benchmark.

Every benchmark process runs with the checkout root as its working
directory and imports the library from ``src/`` of that checkout, so the
benchmark measures the code next to it and nothing installed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List

#: The checkout the benchmark lives in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for sockets, payloads, data files and traces.
WORK = ROOT / ".perfbench"


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no library under {ROOT / 'src'}; run the benchmark "
            "from a full checkout"
        )
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    os.chdir(ROOT)


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it, from ``/proc`` task lists."""
    found: List[int] = []
    stack = [pid]
    while stack:
        current = stack.pop()
        found.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
            except OSError:
                continue
    return found


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, in KiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed VmHWM of ``pid`` and its descendants, in MB (10^6 bytes)."""
    return sum(vm_hwm_kb(p) for p in descendants(pid)) * 1024 / 1e6
