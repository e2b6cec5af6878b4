"""The tracer on a stub package: rebinding by identity, self time, cache
ratios, and targets that do not exist."""

import itertools
import sys
import types
from functools import lru_cache

import numpy as np
import pytest

from perfbench.tracer import COLD, Tracer


@pytest.fixture
def stub(monkeypatch):
    pkg = types.ModuleType("stubpkg")
    core = types.ModuleType("stubpkg.core")
    user = types.ModuleType("stubpkg.user")
    exec(
        "def leaf(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return leaf(x) * 2\n",
        core.__dict__,
    )
    core.table = lru_cache(maxsize=None)(lambda n: np.zeros(n))
    # what `from .core import leaf, table` leaves in a second module
    user.leaf, user.table = core.leaf, core.table
    exec("def run(x):\n    return leaf(x)\n", user.__dict__)
    for name, mod in [("stubpkg", pkg), ("stubpkg.core", core), ("stubpkg.user", user)]:
        monkeypatch.setitem(sys.modules, name, mod)
    return core, user


TARGETS = ["stubpkg.core:leaf", "stubpkg.core:outer", "stubpkg.core:table",
           "stubpkg.core:deleted", "stubpkg.gone:leaf"]


def test_rebinds_every_copy_and_restores(stub):
    core, user = stub
    leaf = core.leaf
    tracer = Tracer("stubpkg", TARGETS, clock=itertools.count().__next__)
    tracer.install()
    assert core.leaf is not leaf and user.leaf is not leaf
    tracer.op = 0
    assert user.run(1) == 2
    tracer.op = None
    tracer.uninstall()
    assert core.leaf is leaf and user.leaf is leaf
    assert tracer.summary()["stubpkg.core:leaf"]["op_calls"] == 1


def test_self_time_excludes_children(stub):
    core, _ = stub
    tracer = Tracer("stubpkg", TARGETS, clock=itertools.count().__next__)
    tracer.install()
    tracer.op = 0
    core.outer(1)  # outer starts at 0, leaf runs 1..2, outer ends at 3
    tracer.op = None
    tracer.uninstall()
    (leaf_id, leaf_parent, *_, leaf_self, _), (outer_id, outer_parent, *_, outer_self, _) = \
        tracer.spans
    assert leaf_parent == outer_id and outer_parent == -1
    assert (leaf_self, outer_self) == (1, 2)
    assert tracer.top_level_seconds() == 3


def test_missing_targets_read_zero(stub):
    tracer = Tracer("stubpkg", TARGETS)
    tracer.install()
    tracer.op = 0
    stub[1].run(1)
    tracer.op = None
    tracer.uninstall()
    summary = tracer.summary()
    for target in ("stubpkg.core:deleted", "stubpkg.gone:leaf"):
        assert summary[target] == {"calls": 0, "self_s": 0.0, "op_calls": 0,
                                   "op_self_s": 0.0, "hit_ratio": 0.0, "cached_bytes": 0}


def test_cache_ratio_and_cached_bytes(stub):
    core, user = stub
    tracer = Tracer("stubpkg", TARGETS)
    tracer.install()
    tracer.op = COLD
    user.table(4)
    tracer.op = 0
    user.table(4)
    core.table(4)
    tracer.op = None
    core.table(8)  # outside any op: a cache miss, but no span
    tracer.uninstall()
    s = tracer.summary()["stubpkg.core:table"]
    assert (s["calls"], s["op_calls"]) == (3, 2)
    assert s["hit_ratio"] == pytest.approx(2 / 4)
    assert s["cached_bytes"] == np.zeros(4).nbytes
