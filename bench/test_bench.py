"""Tests of the benchmark itself: smoke run, fault injection, tracer hygiene,
the oracles, and agreement between BENCHMARK.json and the code."""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pursuitlab import fastsolve, games, graphs, logic  # noqa: E402


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_smoke_run_is_correct():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in workloads.WORKLOADS:
        for metric, unit in run.END_TO_END:
            m = result["metrics"][f"{name}.{metric}"]
            assert m["unit"] == unit and m["value"] > 0


def test_flipped_answer_raises_fail_rate(monkeypatch):
    wl = workloads.SmallExhaustive(smoke=True)
    assert run.measure(wl, 7, 0, trace=False)["failed"] == 0

    original = fastsolve.winner
    calls = [0]

    def flip_fifth(g, v):
        w = original(g, v)
        calls[0] += 1
        if calls[0] == 5:
            return games.Winner.COP if w is games.Winner.ROBBER else games.Winner.ROBBER
        return w

    monkeypatch.setattr(fastsolve, "winner", flip_fifth)
    res = run.measure(wl, 7, 0, trace=False)
    assert res["failed"] >= 1
    assert res["failed"] / res["attempted"] > 0


def _bindings():
    """Every module attribute that is a public layer function, by identity."""
    public = {id(fn) for layer in spans.LAYERS
              for fn in spans.public_functions(sys.modules[f"pursuitlab.{layer}"]).values()}
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            for attr, obj in list(getattr(mod, "__dict__", {}).items()) if id(obj) in public}


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    assert ("pursuitlab.experiments", "gnp_sample") in before
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            assert all(getattr(sys.modules[m], a).__bench_traced__ for m, a in before)
            games.game_value(graphs.named("c4"), games.Classic(1))
            raise RuntimeError("restore even when the traced code raises")
    after = _bindings()
    assert after == before
    assert not any(hasattr(obj, "__bench_traced__") for obj in after.values())
    names = {s[spans.ID]: s[spans.NAME] for s in tracer.spans}
    winner = next(s for s in tracer.spans if s[spans.NAME] == "fastsolve.winner")
    assert names[winner[spans.PARENT]] == "games.game_value"


def test_traced_run_reports_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    res = run.measure(workloads.SentencesGnp(smoke=True), 3, 0, trace=True)
    assert res["failed"] == 0
    layer = res["per_layer"]
    assert list(layer) == [name for name, _ in run.PER_LAYER]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in layer.values())
    assert layer["logic.evaluate.calls"] > 0 and layer["cli.main.calls"] == 1
    assert layer["experiments.jobs2.speedup"] > 0
    assert Path(res["trace_file"]).stat().st_size > 0


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_sentence_oracles_agree_with_evaluate(n):
    rng = random.Random(n)
    for _ in range(40):
        g = graphs.gnp_sample(n, rng.choice((0.3, 0.5, 0.8)), rng.getrandbits(32))
        for name, oracle in oracles.SENTENCES.items():
            assert oracle(g.adjacency) == logic.evaluate(workloads.FORMULAS[name], g), (name, g.edges())


def test_sweep_attractor_agrees_with_solve():
    g = graphs.gnp_sample(6, 0.5, 4)
    for v in (games.Classic(1), games.Traps(1, 1), games.Roadblocks(1, 1)):
        arena = games.build_arena(g, v)
        won = oracles.cop_won_states(arena.succ, [o.value == "Cops" for o in arena.owner], arena.capture)
        assert list(won) == [w is games.Winner.COP for w in games.solve(arena).winner]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "games-gnp60", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
