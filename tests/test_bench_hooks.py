"""The benchmark's tracing hooks keep resolving against the zps package.

``perfbench/tracing.py`` wraps zps functions by module and attribute name, and
``perfbench/worker.py``'s probe wraps ``zps.cli.score_all`` and
``SyntheticBackend.score_batch``. A rename or deletion in ``src/zps`` that
misses them would otherwise only show up as a failed ``perfbench/run.py
--trace 1`` run.
"""

import importlib.util
from pathlib import Path

import zps.backends
import zps.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # tracing.py imports only the standard library, so it loads on its own.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    tracing = load_tracing()
    assert tracing.HOOKS
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracing.HOOKS
        if not callable(getattr(tracing._resolve(path), attr, None))
    ]
    assert missing == []


def test_worker_probe_targets_exist():
    assert callable(zps.cli.score_all)
    assert callable(zps.backends.SyntheticBackend.score_batch)
