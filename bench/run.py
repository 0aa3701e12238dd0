"""Offline benchmark for pursuitlab.

    python3 bench/run.py --workload games-gnp60 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --smoke                   # a few seconds, every workload

Run from the repository root.  Each workload runs in a fresh child process
that imports ``pursuitlab`` from ``src/`` and repeats closed-loop rounds
(sequential calls, ``jobs=1``) until ``--seconds`` of round time is spent.
Every answer is checked after its round, outside the timed region.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``).

Only the bench's own processes are timed.  No system-wide tracing and no
cache dropping are done; RSS is ``ru_maxrss`` of the workload process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = os.cpu_count() or 1
BLAS_THREADS = str(min(2, NPROC))
SETUP_PROBES = 9  # fresh-process imports per run; setup_s is their median
# setup_s is the program's import time over numpy's import time in the same
# process, in seconds of a machine on which numpy imports in SETUP_NOMINAL_S.
SETUP_NOMINAL_S = 0.05
# Round timings are reported in seconds of a machine on which reference_s()
# takes REF_NOMINAL_S: each raw part time is divided by the reference timed
# while the part ran.
REF_NOMINAL_S = 0.0005
REF_PERIOD_S = 0.05
CHILD_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = ("graphs", "logic", "fastsolve", "games", "experiments", "cli")
EVAL_CASES = ("escape_1", "trap_escape_1_1", "tandem_capture", "complementary_escape", "empty_graph",
              "isolated_vertices_2")
WINNER_CASES = ("classic1", "classic3", "tandem", "traps11", "complementary")
PER_LAYER = (
    *((f"{layer}.{m}", u) for layer in LAYERS for m, u in (("self_s", "s"), ("self_share", "ratio"))),
    ("graphs.gnp_sample.calls", "count"), ("graphs.gnp_sample.ms_p50", "ms"),
    ("graphs.gnp_sample.ms_p90", "ms"), ("graphs.gnp_sample.pairs_per_us", "1/us"),
    ("logic.evaluate.calls", "count"), ("logic.evaluate.ms_p50", "ms"), ("logic.evaluate.ms_p90", "ms"),
    *((f"logic.evaluate.{c}.ms_p50", "ms") for c in EVAL_CASES),
    ("fastsolve.winner.calls", "count"), ("fastsolve.winner.ms_p50", "ms"), ("fastsolve.winner.ms_p90", "ms"),
    *((f"fastsolve.winner.{c}.ms_p50", "ms") for c in WINNER_CASES),
    ("games.game_value.calls", "count"), ("games.game_value.self_s", "s"),
    ("games.build_arena.calls", "count"), ("games.build_arena.ms_p50", "ms"),
    ("games.build_arena.states", "count"), ("games.build_arena.transitions", "count"),
    ("games.build_arena.states_per_s", "1/s"),
    ("games.solve.calls", "count"), ("games.solve.ms_p50", "ms"), ("games.solve.states_per_s", "1/s"),
    ("experiments.estimate_win.self_s", "s"), ("experiments.estimate_mu.self_s", "s"),
    ("experiments.exact_mu.calls", "count"), ("experiments.exact_mu.ms_p50", "ms"),
    ("experiments.exact_mu.masks_per_s", "1/s"), ("experiments.jobs2.speedup", "x"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.solve.build_arena.calls", "count"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"), ("trace.rounds", "count"),
)

NOTES = (
    "no system-wide tracing and no cache dropping; peak RSS is the workload process's own ru_maxrss",
    "fixed-point iteration counts and the solver setup/iteration split are not visible from outside "
    "the program; they wait for in-program solve statistics",
)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": list(os.getloadavg()), "seed": seed, "jobs": 1,
        "notes": list(NOTES),
    }


# ---------------------------------------------------------------------------
# Child process: import, run rounds, check answers.


def import_program() -> tuple[float, float]:
    """Import pursuitlab and every layer module from src/.

    Returns (seconds for the program's own modules, seconds for numpy).
    numpy is imported first and timed apart: both swung by up to 1.8x with
    the state of the shared machine, nearly in step, so their ratio is what
    setup_s reports.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import pursuitlab
    from pursuitlab import cli, experiments, fastsolve, games, graphs, logic  # noqa: F401

    t2 = time.perf_counter()
    if Path(pursuitlab.__file__).resolve().parent != SRC / "pursuitlab":
        raise SystemExit(f"pursuitlab imported from {pursuitlab.__file__}, not from {SRC}")
    return t2 - t1, t1 - t0


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """Time one small fixed piece of bench-owned pure-Python work (under 1 ms).

    Loop arithmetic, a generator and big-int bit operations.  When
    neighbours load a shared machine this slows by about the same factor as
    the program's own code, measured here at 1.45-1.65 against 1.25-1.7 for
    the program's parts; tuple and dict churn (1.9) is left out for that
    reason.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(4_000):
        acc += i * i
    acc += sum(1 for i in range(4_000) if i & 3)
    rows = [(i * 0x9E3779B97F4A7C15) & ((1 << 60) - 1) for i in range(28)]
    for a in rows:
        for b in rows:
            acc += (a & ~b).bit_count()
    return time.perf_counter() - t0


class DriftSampler:
    """Times ``reference_s`` every REF_PERIOD_S from a SIGALRM handler while a
    part runs, so the machine's speed is sampled during the part itself.
    ``spent`` is the handler time, which is taken out of the part's time."""

    def __enter__(self) -> "DriftSampler":
        self.samples = [reference_s()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0


def run_round(wl, inputs: dict, tracer=None):
    """One closed-loop round: every part once, in order.  Returns answers and
    {part: (wall, cpu, median reference time)}; with a tracer the reference
    is not sampled and is None."""
    answers, times = {}, {}
    for part in wl.parts:
        sampler = DriftSampler() if tracer is None else contextlib.nullcontext()
        with sampler:
            c0 = cpu_now()
            p0 = time.perf_counter()
            try:
                if tracer is None:
                    answers[part] = wl.run_part(part, inputs[part])
                else:
                    with tracer.span("bench." + part):
                        answers[part] = wl.run_part(part, inputs[part])
            except Exception as exc:  # a raised operation is a failed one; keep measuring the rest
                traceback.print_exc(file=sys.stderr)
                answers[part] = exc
            wall = time.perf_counter() - p0
            cpu = cpu_now() - c0
        if tracer is None:
            times[part] = (wall - sampler.spent, cpu - sampler.spent, statistics.median(sampler.samples))
        else:
            times[part] = (wall, cpu, None)
    return times, answers


def check_round(wl, seed: int, rnd: int, inputs: dict, answers: dict, ck) -> None:
    from workloads import DEFAULT_SEED

    for part in wl.parts:
        answer = answers[part]
        if isinstance(answer, Exception):
            ck.raised(part, answer)
            continue
        try:
            wl.check_part(part, inputs[part], answer, ck)
            if seed == DEFAULT_SEED and rnd == 0 and not wl.smoke:
                recorded = wl.recorded(part)
                if recorded is not None:
                    got = json.loads(json.dumps(wl.summary(part, answer)))
                    ck.expect(got == recorded, f"{part}: {got} differs from the value recorded for seed {seed}")
        except Exception as exc:  # a malformed answer the checker cannot read
            traceback.print_exc(file=sys.stderr)
            ck.raised(part + " (check)", exc)


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Rounds until ``seconds`` of round time is spent; with ``trace`` each
    untraced round is followed by a traced round on the same inputs."""
    from spans import Tracer
    from workloads import Checker

    ck = Checker()
    rounds, traced_walls = [], []
    tracer = Tracer(classify=classifiers()) if trace else None
    rnd = 0
    while True:
        inputs = wl.inputs(seed, rnd)
        times, answers = run_round(wl, inputs)
        rounds.append(times)
        check_round(wl, seed, rnd, inputs, answers, ck)
        if trace:
            plain = {p: json.dumps(wl.summary(p, a), default=str) for p, a in answers.items()
                     if not isinstance(a, Exception)}
            del answers
            with tracer, tracer.span("bench.round"):
                ttimes, traced = run_round(wl, inputs, tracer)
            traced_walls.append(round_wall(ttimes))
            for p, a in traced.items():
                ok = not isinstance(a, Exception) and json.dumps(wl.summary(p, a), default=str) == plain.get(p)
                ck.expect(ok, f"{p}: traced round changed the answer")
            del traced
        else:
            del answers
        rnd += 1
        walls = [round_wall(r) for r in rounds]
        spent = sum(walls) + sum(traced_walls)
        per_round = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0.0)
        if wl.smoke or spent + per_round > seconds:
            break
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ck.attempted, "failed": ck.failed, "messages": ck.messages,
    }
    if trace:
        speedup = 0.0
        if hasattr(wl, "jobs_row"):
            speedup = jobs_speedup(wl, seed, ck)
        result["per_layer"] = per_layer(tracer.spans, traced_walls, walls, speedup)
        result["trace_file"] = str(write_trace(tracer, wl.name, seed))
    return result


def round_wall(times: dict) -> float:
    return sum(t[0] for t in times.values())


def jobs_speedup(wl, seed: int, ck) -> float:
    """One sentences row at jobs=1 and at jobs=min(2, nproc); answers must match."""
    jobs = min(2, NPROC)
    t0 = time.perf_counter()
    one = wl.jobs_row(seed, 1)
    t1 = time.perf_counter()
    many = wl.jobs_row(seed, jobs)
    t2 = time.perf_counter()
    ck.expect(one == many, f"jobs=1 gave {one} successes, jobs={jobs} gave {many}")
    return (t1 - t0) / (t2 - t1)


def write_trace(tracer, workload: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    return path


def classifiers() -> dict:
    """Per-function (case, size) extractors, run after each span closes."""
    from workloads import FORMULA_CASE, VARIANT_CASE

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    return {
        "graphs.gnp_sample": lambda a, k, r: (None, arg(a, k, 0, "n") * (arg(a, k, 0, "n") - 1) // 2),
        "logic.evaluate": lambda a, k, r: (FORMULA_CASE.get(arg(a, k, 0, "f")), None),
        "fastsolve.winner": lambda a, k, r: (VARIANT_CASE.get(arg(a, k, 1, "v")), None),
        "games.build_arena": lambda a, k, r: (None, (r.state_count, r.transition_count) if r else None),
        "games.solve": lambda a, k, r: (None, arg(a, k, 0, "a").state_count),
        "experiments.exact_mu": lambda a, k, r: (None, 1 << (arg(a, k, 1, "n") * (arg(a, k, 1, "n") - 1) // 2)),
    }


def per_layer(spans: list, traced_walls: list, plain_walls: list, speedup: float) -> dict:
    from spans import END, ID, NAME, PARENT, START, CASE, SIZE, self_times

    rounds = len(traced_walls)
    total = sum(traced_walls)
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    out: dict[str, float] = {}

    for layer in LAYERS:
        self_s = sum(own[s[ID]] for s in spans if s[NAME].split(".")[0] == layer)
        out[f"{layer}.self_s"] = self_s / rounds
        out[f"{layer}.self_share"] = self_s / total

    def ms(sel):
        return sorted((s[END] - s[START]) * 1000.0 for s in sel)

    def p(values, q):
        return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0

    def calls(name, case=None, quantiles=True):
        sel = [s for s in by_name[name] if case is None or s[CASE] == case]
        prefix = name if case is None else f"{name}.{case}"
        d = ms(sel)
        if case is None:
            out[f"{prefix}.calls"] = len(sel) / rounds
        out[f"{prefix}.ms_p50"] = statistics.median(d) if d else 0.0
        if quantiles and case is None:
            out[f"{prefix}.ms_p90"] = p(d, 0.9)
        return sel

    sel = calls("graphs.gnp_sample")
    busy = sum(s[END] - s[START] for s in sel)
    out["graphs.gnp_sample.pairs_per_us"] = sum(s[SIZE] for s in sel) / (busy * 1e6) if busy else 0.0
    calls("logic.evaluate")
    for c in EVAL_CASES:
        calls("logic.evaluate", c)
    calls("fastsolve.winner")
    for c in WINNER_CASES:
        calls("fastsolve.winner", c)

    gv = by_name["games.game_value"]
    out["games.game_value.calls"] = len(gv) / rounds
    gv_ids = {s[ID] for s in gv}
    # Dispatch plus the state_estimate budget precheck it makes.
    gv_self = sum(own[i] for i in gv_ids)
    gv_self += sum(own[s[ID]] for s in by_name["games.state_estimate"] if s[PARENT] in gv_ids)
    out["games.game_value.self_s"] = gv_self / rounds

    def ancestors(s):
        while s[PARENT] in by_id:
            s = by_id[s[PARENT]]
            yield s[NAME]

    # Arena size and speed come from the arenas the workload asks for; the
    # ones cli solve builds only for its report are counted separately.
    in_cli = {s[ID] for name in ("games.build_arena", "games.solve") for s in by_name[name]
              if "cli.main" in set(ancestors(s))}
    out["games.build_arena.calls"] = len(by_name["games.build_arena"]) / rounds
    sel = [s for s in by_name["games.build_arena"] if s[SIZE] and s[ID] not in in_cli]
    out["games.build_arena.ms_p50"] = statistics.median(ms(sel)) if sel else 0.0
    out["games.build_arena.states"] = statistics.median(s[SIZE][0] for s in sel) if sel else 0
    out["games.build_arena.transitions"] = statistics.median(s[SIZE][1] for s in sel) if sel else 0
    busy = sum(s[END] - s[START] for s in sel)
    out["games.build_arena.states_per_s"] = sum(s[SIZE][0] for s in sel) / busy if busy else 0.0
    out["games.solve.calls"] = len(by_name["games.solve"]) / rounds
    sel = [s for s in by_name["games.solve"] if s[ID] not in in_cli]
    out["games.solve.ms_p50"] = statistics.median(ms(sel)) if sel else 0.0
    busy = sum(s[END] - s[START] for s in sel)
    out["games.solve.states_per_s"] = sum(s[SIZE] for s in sel) / busy if busy else 0.0

    for name in ("experiments.estimate_win", "experiments.estimate_mu"):
        out[f"{name}.self_s"] = sum(own[s[ID]] for s in by_name[name]) / rounds
    sel = calls("experiments.exact_mu", quantiles=False)
    busy = sum(s[END] - s[START] for s in sel)
    out["experiments.exact_mu.masks_per_s"] = sum(s[SIZE] for s in sel) / busy if busy else 0.0
    out["experiments.jobs2.speedup"] = speedup

    out["cli.main.calls"] = len(by_name["cli.main"]) / rounds
    out["cli.main.self_s"] = sum(own[s[ID]] for s in by_name["cli.main"]) / rounds

    in_solve = [s for s in by_name["games.build_arena"]
                if {"cli.main", "bench.cli_solve"} <= set(ancestors(s))]
    out["cli.solve.build_arena.calls"] = len(in_solve) / rounds

    covered = sum(s[END] - s[START] for s in spans
                  if not s[NAME].startswith("bench.") and by_id.get(s[PARENT], ("", "bench."))[NAME].startswith("bench."))
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    out["trace.coverage"] = covered / total
    out["trace.rounds"] = rounds
    return {name: out[name] for name, _ in PER_LAYER}


def child_main(args) -> int:
    setup = import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    result = measure(wl, args.seed, args.seconds, bool(args.trace))
    result["setup"] = setup
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent: setup probes, the child run, the report.


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str]) -> str:
    """Run this script in a fresh process (own session, so a timeout can stop
    every process it started) and return its standard output."""
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"child {argv} timed out after {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise SystemExit(f"child {argv} exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    probes = [json.loads(run_child(["--probe"]).splitlines()[-1]) for _ in range(1 if smoke else SETUP_PROBES - 1)]
    argv = ["--child", "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = json.loads(run_child(argv + (["--smoke"] if smoke else [])).splitlines()[-1])
    res["setup_samples"] = probes + [res["setup"]]
    return res


def corrected(rounds: list, k: int) -> float:
    """Drift-corrected round time: for each part, the median over rounds of
    its time over the reference time sampled while it ran, summed over parts
    and scaled to seconds at REF_NOMINAL_S.  ``k`` 0 is wall time, 1 is CPU."""
    return REF_NOMINAL_S * sum(statistics.median(r[part][k] / r[part][2] for r in rounds) for part in rounds[0])


def end_to_end(res: dict) -> dict:
    values = {
        "setup_s": SETUP_NOMINAL_S * statistics.median(own / np_s for own, np_s in res["setup_samples"]),
        "wall_s": corrected(res["rounds"], 0),
        "cpu_s": corrected(res["rounds"], 1),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report(name: str, res: dict, trace: int) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    rounds = res["rounds"]
    walls = [round_wall(r) for r in rounds]
    wall = statistics.median(walls)
    fail_rate = res["failed"] / max(1, res["attempted"])
    print(f"[{name}] rounds={len(rounds)} attempted={res['attempted']} failed={res['failed']} "
          f"fail_rate={fail_rate:.6g}")
    shares = ", ".join(f"{p} {t:.3f}s ({t / wall:.0%})" for p, t in
                       ((p, statistics.median(r[p][0] for r in rounds)) for p in rounds[0]))
    print(f"[{name}] median part time per round: {shares}")
    refs = [r[p][2] for r in rounds for p in r]
    print(f"[{name}] raw: wall_s {wall:.6g}, cpu_s {statistics.median(sum(t[1] for t in r.values()) for r in rounds):.6g}, "
          f"setup_s {statistics.median(own for own, _ in res['setup_samples']):.6g} "
          f"(numpy {statistics.median(np_s for _, np_s in res['setup_samples']):.6g}), "
          f"reference {min(refs) * 1000:.4g}..{max(refs) * 1000:.4g} ms (nominal {REF_NOMINAL_S * 1000:g} ms)")
    print(f"[{name}] raw round walls: " + " ".join(f"{w:.3f}" for w in walls))
    for msg in res["messages"]:
        print(f"[{name}] WRONG: {msg}")
    if trace:
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in PER_LAYER}
        print(f"[{name}] spans written to {res['trace_file']}")
        for layer in LAYERS:
            print(f"[{name}]   {layer:12s} self {res['per_layer'][layer + '.self_s']:.4f}s/round "
                  f"({res['per_layer'][layer + '.self_share']:.1%})")
    else:
        metrics = end_to_end(res)
        for n, m in metrics.items():
            print(f"[{name}]   {n:12s} {m['value']:.6g} {m['unit']}")
        print(f"[{name}]   fail_rate    {fail_rate:.6g}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one round per workload")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "pursuitlab" / "__init__.py").is_file():
        print(f"error: no pursuitlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(import_program()))
        return 0
    if args.child:
        return child_main(args)

    names = ["games-gnp60", "sentences-gnp", "sparse-large-n", "small-exhaustive"]
    if args.workload != "all":
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
        names = [args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        attempted += res["attempted"]
        failed += res["failed"]
        m = report(name, res, args.trace)
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
