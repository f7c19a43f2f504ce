"""Every name the benchmark tracer wraps exists, and uninstalling restores it.

``bench/spans.py`` wraps entry points of every ``dothash`` layer by
attribute and raises when one is missing, so deleting or renaming a probed
name breaks the benchmark.  This check runs the tracer's installer in
tier-1, so such a change fails here too.
"""

import inspect
import sys
from pathlib import Path

import dothash
from dothash import bounds, cli, dedup, encoding, exact, linkpred, sketches

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _attributes() -> dict[tuple[object, str], object]:
    """Every attribute of the dothash modules and of the classes they define."""
    found = {}
    for module in (dothash, bounds, cli, dedup, encoding, exact, linkpred, sketches):
        for name, value in vars(module).items():
            found[module, name] = value
            if inspect.isclass(value) and value.__module__.startswith("dothash"):
                for attr, member in vars(value).items():
                    found[value, attr] = member
    return found


def test_tracer_installs_every_probe_and_restores_each_original(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    from spans import Tracer, install_probes

    before = _attributes()
    tracer = Tracer()
    try:
        install_probes(tracer)
        wrapped = {key for key, value in _attributes().items() if before.get(key) is not value}
    finally:
        tracer.uninstall()
    # About 60 entry points are wrapped; the floor catches an installer
    # that silently wraps next to nothing.
    assert len(wrapped) > 40
    after = _attributes()
    assert [key for key in wrapped if after.get(key) is not before[key]] == []
    assert after.keys() == before.keys()
