"""Record the values the bench checks where no independent oracle exists.

    python3 bench/record.py        # rewrites bench/expected.json, a few minutes

* ``classic3_pool``: per-sample Classic(3) winners on G(60, 1/2) for a pool
  of master seeds; the games-gnp60 classic3 row draws its seed from it.
* ``tandem_six``: the Tandem winner of every six-vertex graph, each one
  confirmed on the explicit arena before it is written.
* ``exact_mu7``: exact mu_7 of the extension axioms sentences-gnp uses.
* ``default_seed``: answer digests of round 0 at the default seed.
"""

from __future__ import annotations

import json

import run

run.import_program()

import workloads  # noqa: E402
from pursuitlab import experiments, games, graphs, logic  # noqa: E402
from pursuitlab.games import Classic, Tandem, Winner  # noqa: E402

POOL_SIZE = 32
POOL_SAMPLES = 16


def classic3_pool() -> dict:
    masters = [workloads.part_seed(0, i, "classic3-pool") for i in range(POOL_SIZE)]
    bits = []
    for m in masters:
        row = "".join("1" if games.game_value(g, Classic(3)) is Winner.ROBBER else "0"
                      for g in (graphs.Graph.from_adjacency(a)
                                for a in workloads.sample_adjacency(60, 0.5, m, POOL_SAMPLES)))
        bits.append(row)
    return {"samples": POOL_SAMPLES, "masters": masters, "robber_wins": bits}


def tandem_six() -> str:
    table = bytearray(1 << 12)
    for i, adj in enumerate(workloads.all_adjacency(6)):
        g = graphs.Graph.from_adjacency(adj)
        fast = games.game_value(g, Tandem())
        arena = games.build_arena(g, Tandem())
        if games.solve(arena).winner[arena.root] is not fast:
            raise SystemExit(f"six-vertex graph {i}: fast and explicit Tandem winners differ")
        if fast is Winner.COP:
            table[i >> 3] |= 1 << (i & 7)
    return table.hex()


def main() -> None:
    expected = {"default_seed": {}}
    expected["classic3_pool"] = classic3_pool()
    expected["tandem_six"] = tandem_six()
    expected["exact_mu7"] = {f"{m},{k}": str(experiments.exact_mu(logic.extension_axiom(m, k), 7))
                             for m, k in workloads.SentencesGnp.AXIOMS}
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        inputs = wl.inputs(workloads.DEFAULT_SEED, 0)
        _, answers = run.run_round(wl, inputs)
        expected["default_seed"][name] = {p: json.loads(json.dumps(wl.summary(p, a))) for p, a in answers.items()}
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
