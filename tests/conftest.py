"""Shared fixtures: the expensive Monte-Carlo samples are drawn once per session."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dothash.bounds import sample_intersection_estimates
from dothash.encoding import MinwiseFamily
from dothash.sketches import minhash_build

MC_SIZE = 200
MC_DIMS = 1024
MC_TRIALS = 10_000
MC_OVERLAPS = (0, 50, 100, 200)


@pytest.fixture(scope="session")
def unit_mc_estimates() -> dict[int, np.ndarray]:
    """10^4 unit-weight intersection estimates per overlap, |A|=|B|=200, d=1024."""
    return {
        overlap: sample_intersection_estimates(
            MC_SIZE, MC_SIZE, overlap, MC_DIMS, MC_TRIALS, seed0=1_000_000 * (overlap + 1)
        )
        for overlap in MC_OVERLAPS
    }


@pytest.fixture(scope="session")
def minhash_half_jaccard_counts() -> np.ndarray:
    """Matching-minima counts over 1000 seeds for a pair with exact Jaccard 0.5.

    |A| = |B| = 150 with overlap 100, so J = 100 / 200 = 0.5; k = 128.
    """
    set_a = np.arange(150, dtype=np.uint64)
    set_b = np.arange(50, 200, dtype=np.uint64)
    counts = np.empty(1000, dtype=np.int64)
    for trial in range(1000):
        family = MinwiseFamily(seed=7_000_000 + trial, k=128)
        sk_a = minhash_build(family, set_a)
        sk_b = minhash_build(family, set_b)
        counts[trial] = int(np.count_nonzero(sk_a.minima == sk_b.minima))
    return counts


def _added_peak_rss(setup: str, build: str) -> int:
    """Bytes of peak RSS that the statement ``build`` adds, in a fresh interpreter.

    On Linux the peak is the interpreter's own ``VmHWM``: ``ru_maxrss``
    keeps the launching process's peak across exec, so under a test runner
    larger than the build it read only the part above the runner's peak.
    """
    script = textwrap.dedent(
        """
        import resource
        import sys
        import numpy as np
        from dothash.encoding import Codebook, element_ids
        from dothash.sketches import distinct_sets, dothash_build, dothash_build_many

        def peak():
            try:
                with open("/proc/self/status") as fp:
                    return next(int(line.split()[1]) for line in fp if line.startswith("VmHWM:"))
            except OSError:
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1)

        {setup}
        before = peak()
        {build}
        print((peak() - before) * 1024)
        """
    ).format(setup=setup, build=build)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env, timeout=300
    )
    return int(result.stdout)


@pytest.fixture
def distinct_passes(monkeypatch) -> list:
    """A list that grows by one entry per ``distinct_sets`` call, through any module's binding."""
    from dothash import dedup, linkpred, sketches

    calls, original = [], sketches.distinct_sets

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (sketches, linkpred, dedup):
        monkeypatch.setattr(module, "distinct_sets", counted)
    return calls


@pytest.fixture
def counted_rows(monkeypatch) -> list:
    """Rows of every chunk that the sign counter counts, through either caller."""
    from dothash import encoding

    seen, count = [], encoding._add_sign_counts

    def spy(keys, *args):
        seen.append(keys.shape[0])
        return count(keys, *args)

    monkeypatch.setattr(encoding, "_add_sign_counts", spy)
    return seen


@pytest.fixture
def added_peak_rss():
    """``added_peak_rss(setup, build)``: bytes of peak RSS that ``build`` adds after ``setup``."""
    pytest.importorskip("resource")
    return _added_peak_rss
