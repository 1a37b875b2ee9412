import contextlib
import importlib
import io

import pytest

import poolgame
import tracer
from poolgame import cli


def _modules():
    return [poolgame] + [importlib.import_module(f"poolgame.{m}") for m in tracer.LAYERS]


def _snapshot():
    return {(m.__name__, name): obj for m in _modules() for name, obj in vars(m).items()}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_every_patched_attribute_is_the_original_afterwards():
    before = _snapshot()
    with tracer.Tracer(poolgame) as tr:
        patched = {(m.__name__, name) for m, name, _ in tr._patched}
        _run(["sweep", "--attack", "faw", "--cells", "4"])
    assert ("poolgame.engine", "payoff_pair") in patched
    assert ("poolgame.cli", "golden_max") not in patched
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_attributes_restored_when_the_traced_code_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(poolgame):
            raise RuntimeError("boom")
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)


def test_every_alias_of_a_public_function_is_rebound():
    originals = {id(fn) for fn in tracer.public_functions(poolgame).values()}
    with tracer.Tracer(poolgame):
        left = [
            (m.__name__, name) for m in _modules()
            for name, obj in vars(m).items() if id(obj) in originals
        ]
    assert left == []


def test_self_time_excludes_child_spans():
    spans = [
        ["engine.two_stage_sweep", -1, 0.0, 10.0, None],
        ["payoff.payoff_pair", 0, 1.0, 4.0, None],
        ["payoff.payoff_pair_raw", 1, 2.0, 3.0, 0],
        ["equilibrium.golden_max", 0, 5.0, 9.0, None],
        [tracer.OBJECTIVE, 3, 6.0, 8.0, None],
    ]
    s = tracer.summarize(spans)
    assert s["payoff.payoff_pair"]["self_s"] == 2.0
    assert s["payoff.payoff_pair_raw"]["self_s"] == 1.0
    assert s["equilibrium.golden_max"]["self_s"] == 2.0
    # the objective's own time belongs to the caller that defined it
    assert s["engine.two_stage_sweep"]["self_s"] == 3.0 + 2.0
    assert s[tracer.OBJECTIVE]["calls"] == 1


def test_small_sweep_counts_repeat_and_pass_the_alias_check():
    counts = []
    for _ in range(2):
        with tracer.Tracer(poolgame) as tr:
            _run(["sweep", "--attack", "faw", "--cells", "6"])
        values = tracer.layer_metrics(tracer.summarize(tr.spans))
        counts.append({k: v for k, v in values.items() if tracer.is_count(k)})
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["payoff.payoff_pair.calls"] > 0
    assert c["payoff.payoff_pair_raw.scalar_calls"] == c["payoff.payoff_pair.calls"]
    assert c["payoff.payoff_pair_raw.batched_calls"] == 0
    assert c["ars.retaliate.calls"] == (
        c["ars.retaliate.faw"] + c["ars.retaliate.bwh"] + c["ars.retaliate.zero"]
    )
