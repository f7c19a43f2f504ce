"""Host and build record stored with every benchmark result."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fp:
            for line in fp:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        return None
    return None


def _blas_config() -> dict | str:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 can only print its config
        return "unknown"
    # Build-time install directories say nothing about the run; keep names and versions.
    return {lib: {k: v for k, v in info.items() if not k.endswith("directory")}
            for lib, info in config.get("Build Dependencies", {}).items()}


def git_commit(root: Path) -> str:
    """HEAD of a checkout's ``.git`` directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, blas_threads: int) -> dict:
    mem_kib = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total_mib": round(int(mem_kib.split()[0]) / 1024) if mem_kib else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_config(),
        "blas_threads": blas_threads,
        "commit": git_commit(root),
    }
