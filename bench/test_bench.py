"""Self-test of the benchmark's tracer and metric tables.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer, has_ancestor, patched, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # 0 [0,10] has children 1 [1,3] and 2 [4,6]; 2 has child 3 [4.5,5].
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 4.0, 4.5]
    end = [10.0, 3.0, 6.0, 5.0]
    np.testing.assert_allclose(self_times(parent, start, end), [6.0, 2.0, 1.5, 0.5])


def test_has_ancestor_walks_the_whole_chain():
    parent = np.array([-1, 0, 1, -1])
    name_id = np.array([7, 1, 2, 2])
    assert has_ancestor(parent, name_id, [2, 3, 1], 7).tolist() == [True, False, True]


@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("toy_program")

    class Base:
        def value(self):
            return 1

    class Child(Base):
        pass

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def failing():
        raise ValueError("boom")

    mod.Base, mod.Child, mod.inner, mod.outer, mod.failing = Base, Child, inner, outer, failing
    monkeypatch.setitem(sys.modules, "toy_program", mod)
    return mod


def test_wrap_records_nested_spans_and_restores(toy_module):
    originals = (toy_module.inner, toy_module.outer)
    seen = []
    with Tracer() as tracer:
        assert tracer.wrap("toy_program", "outer", "toy.outer")
        assert tracer.wrap("toy_program", "inner", "toy.inner",
                           lambda counts, args, kwargs, result, exc: seen.append(result))
        assert tracer.wrap("toy_program", "Child.value", "toy.value")
        assert not tracer.wrap("toy_program", "gone", "toy.gone")
        assert not tracer.wrap("no_such_module", "f", "toy.f")
        assert toy_module.outer(3) == 8
        assert toy_module.Child().value() == 1
    assert (toy_module.inner, toy_module.outer) == originals
    assert "value" not in vars(toy_module.Child)
    assert tracer.absent == ["toy_program.gone", "no_such_module.f"]
    assert seen == [4]

    name_id, parent, start, end = tracer.arrays()
    names = [tracer.names[i] for i in name_id]
    assert names == ["toy.outer", "toy.inner", "toy.value"]
    assert parent.tolist() == [-1, 0, -1]
    own = self_times(parent, start, end)
    assert own[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]))


def test_same_name_nesting_is_one_span_and_errors_are_observed(toy_module):
    errors = []
    with Tracer() as tracer:
        tracer.wrap("toy_program", "outer", "toy.call")
        tracer.wrap("toy_program", "inner", "toy.call")
        tracer.wrap("toy_program", "failing", "toy.failing",
                    lambda counts, args, kwargs, result, exc: errors.append(type(exc)))
        toy_module.outer(1)
        with pytest.raises(ValueError):
            toy_module.failing()
    assert [tracer.names[i] for i in tracer.name_id] == ["toy.call", "toy.failing"]
    assert errors == [ValueError]
    assert not tracer._stack


def test_patched_restores_after_an_exception(toy_module):
    original = toy_module.inner
    with pytest.raises(RuntimeError):
        with patched(toy_module, "inner", lambda fn: None):
            assert toy_module.inner is None
            raise RuntimeError
    assert toy_module.inner is original


def test_install_finds_every_name_and_restores_the_program():
    import pathfinder
    from pathfinder import cli, lbfgs, multipath, normal_approx, single_path, targets

    before = {
        (owner, attr): vars(owner).get(attr)
        for owner in (pathfinder, cli, lbfgs, multipath, normal_approx, single_path,
                      targets, targets.CounterView, targets.LogDensityTarget,
                      targets.EightSchoolsCentered)
        for attr in list(vars(owner))
    }
    with Tracer() as tracer:
        layers.install(tracer)
        assert tracer.absent == []
        assert single_path.optimize is not lbfgs.optimize
    after = {key: vars(key[0]).get(key[1]) for key in before}
    assert after == before


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
