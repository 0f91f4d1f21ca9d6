"""A traced benchmark run (``perfbench/run.py --trace 1``) patches kernel
methods by name (``perfbench.spans.TARGETS``).  A rename in ``src`` must
fail here, not only in a traced run."""

from __future__ import annotations

import importlib

from perfbench.spans import TARGETS, SpanRecorder


def _targets():
    """``(owner, attr)`` for every patched attribute, client frame
    reader included."""
    found = []
    for _layer, module_name, class_name, attrs in TARGETS:
        module = importlib.import_module(module_name)
        assert class_name is None or hasattr(module, class_name), (
            f"{module_name}.{class_name} is gone")
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            assert hasattr(owner, attr), (
                f"{module_name}.{class_name or ''}.{attr} is gone")
            found.append((owner, attr))
    found.append((importlib.import_module("repro.server.client"),
                  "read_frame"))
    return found


def test_every_target_resolves_wraps_and_is_restored():
    targets = _targets()
    before = [(getattr(owner, attr), attr in vars(owner))
              for owner, attr in targets]
    recorder = SpanRecorder()
    recorder.install()
    try:
        for (owner, attr), (original, _own) in zip(targets, before):
            patched = getattr(owner, attr)
            assert patched is not original, f"{owner}.{attr} not patched"
            assert patched.__wrapped__ is original
    finally:
        recorder.uninstall()
    after = [(getattr(owner, attr), attr in vars(owner))
             for owner, attr in targets]
    assert after == before
