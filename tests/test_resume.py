"""Kill-anywhere resume: a ``zps select`` killed by SIGKILL mid-run resumes from its cache.

Each run is a child process scoring against the in-process ``StubScorer``.
The stub holds request N unanswered until the test has killed the child, so
the cache then holds exactly the chunks of requests 1 to N-1, whatever the
timing: the test syncs on the stub, never on sleeps. It covers process death
only, not power loss.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import zps
from zps import UnlabeledExample, candidate_phrases, load_catalog, render

from .helpers import StubScorer, cell_key, read_segments

ROOT = Path(__file__).resolve().parents[1]
MODEL = "stub-model"
PROMPTS, EXAMPLES, BATCH = 4, 40, 32  # 160 cells: 5 requests of 32
REQUESTS = PROMPTS * EXAMPLES // BATCH


def cells(requests):
    """The (input, candidates) cells of the recorded request payloads, in order."""
    return [(item["input"], tuple(item["candidates"]))
            for payload in requests for item in payload["items"]]


def keys_by_cell(examples):
    """Each cell's cache key by its (input, candidates), over the demo catalog
    and the run's examples."""
    task, prompts = load_catalog(ROOT / "demo" / "catalog.json")
    return {(render(prompt, example), candidate_phrases(task, prompt)):
            cell_key(MODEL, task, prompt, example, ids=False)
            for prompt in prompts for example in examples}


def example_fields(k):
    return {"text": f"review number {k}"}


@pytest.fixture(scope="module")
def stub():
    with StubScorer() as server:
        yield server


@pytest.fixture
def run(tmp_path, stub):
    """Start ``zps select`` on a cache and an artifact in tmp_path; returns the child."""
    examples = tmp_path / "examples.jsonl"
    examples.write_text("".join(
        json.dumps({"example_id": f"r{k:03d}", "fields": example_fields(k)}) + "\n"
        for k in range(EXAMPLES)), encoding="utf-8")
    argv = [sys.executable, "-m", "zps.cli", "select",
            "--catalog", str(ROOT / "demo" / "catalog.json"), "--examples", str(examples),
            "--backend", "remote", "--endpoint", stub.url, "--model", MODEL,
            "--cache", str(tmp_path / "C"), "--out", str(tmp_path / "A")]
    env = dict(os.environ, PYTHONPATH=str(Path(zps.__file__).resolve().parents[1]))
    env.pop("ZPS_API_TOKEN", None)

    def start():
        return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)

    return start


@pytest.mark.parametrize("killed_at", [1, REQUESTS // 2 + 1, REQUESTS],
                         ids=["first", "middle", "last"])
def test_killed_select_resumes_from_its_cache(tmp_path, stub, run, killed_at):
    cache, artifact = tmp_path / "C", tmp_path / "A"

    # The uninterrupted run, on the same paths, so its artifact is the reference.
    start = len(stub.requests)
    first = run()
    first.communicate(timeout=60)
    assert first.returncode == 0
    everything = cells(stub.requests[start:])
    assert len(everything) == len(set(everything)) == PROMPTS * EXAMPLES
    reference = artifact.read_bytes()
    cache.unlink()
    artifact.unlink()

    # The run killed while request N is in flight.
    start = len(stub.requests)
    taken, release = threading.Event(), threading.Event()

    def hang_up(number):
        if number != start + killed_at:
            return False
        taken.set()
        release.wait(timeout=60)
        return True

    stub.hang_up = hang_up
    child = run()
    try:
        assert taken.wait(timeout=60)
    finally:
        child.kill()
        child.communicate(timeout=60)
        release.set()
        stub.hang_up = None
    answered = cells(stub.requests[start : start + killed_at - 1])
    cached = [key for segment in read_segments(cache) for key, _ in segment]
    keys = keys_by_cell([UnlabeledExample(f"r{k:03d}", example_fields(k))
                         for k in range(EXAMPLES)])
    assert cached == [keys[cell] for cell in answered]
    assert not artifact.exists()

    # The rerun scores exactly the cells that are not cached yet.
    start = len(stub.requests)
    rerun = run()
    _, err = rerun.communicate(timeout=60)
    assert rerun.returncode == 0, err.decode()
    assert b"dropped" not in err  # the kill fell between appends: no torn tail
    rescored = cells(stub.requests[start:])
    assert sorted(rescored) == sorted(set(everything) - set(answered))
    assert artifact.read_bytes() == reference
    assert list(tmp_path.glob(".A.*")) == []
