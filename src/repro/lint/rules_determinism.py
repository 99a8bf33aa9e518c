"""RL1xx — determinism: no unsanctioned entropy on deterministic paths.

The bit-exact restore+replay guarantee (shard snapshots, mesh
failover, cross-backend conformance) holds only while every RNG in the
deterministic serving stack derives from the keyed seeding convention
(:func:`repro.utils.keyed_shard_seed`) and no decision reads the wall
clock.  These rules make that invariant mechanical:

=======  ==============================================================
RL101    unseeded ``np.random.default_rng()`` (or seeded with ``None``)
         in a deterministic module — fresh OS entropy diverges replicas
RL102    stdlib ``random`` imported in a deterministic module — its
         global Mersenne state is unseedable per-shard and unserialized
         by snapshots
RL103    wall clock (``time.time``/``datetime.now``/…) in a
         deterministic module — event ``time`` fields and
         ``perf_counter`` durations are the sanctioned clocks
RL104    global seeding (``random.seed``/``np.random.seed``) anywhere —
         process-wide RNG state breaks every other component's streams
=======  ==============================================================
"""

from __future__ import annotations

import ast

from .astutil import dotted_name
from .engine import LintConfig, ParsedModule

__all__ = ["check"]

_WALL_CLOCKS = {
    "time.time",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
}

_GLOBAL_SEEDS = {"random.seed", "np.random.seed", "numpy.random.seed"}

_RNG_FACTORIES = {
    "np.random.default_rng",
    "numpy.random.default_rng",
    "default_rng",
}


def _is_unseeded(call: ast.Call) -> bool:
    if call.keywords:
        # default_rng(seed=...) — seeded unless the value is None
        for kw in call.keywords:
            if kw.arg in (None, "seed"):
                return isinstance(kw.value, ast.Constant) and kw.value.value is None
        return False
    if not call.args:
        return True
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


def check(mod: ParsedModule, config: LintConfig) -> list:
    findings = []
    deterministic = config.scoped(
        mod.module, config.deterministic_prefixes
    ) and not any(
        mod.module == p or mod.module.startswith(p + ".")
        for p in config.determinism_exempt
    )

    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _GLOBAL_SEEDS:
                findings.append(
                    mod.finding(
                        "RL104",
                        node,
                        f"global RNG seeding via {name}() mutates "
                        "process-wide state; pass seeds/Generators "
                        "explicitly (utils.ensure_rng)",
                    )
                )
            if not deterministic:
                continue
            if name in _RNG_FACTORIES and _is_unseeded(node):
                findings.append(
                    mod.finding(
                        "RL101",
                        node,
                        "unseeded RNG on a deterministic path; derive the "
                        "seed with utils.keyed_shard_seed (or accept a "
                        "seed/Generator via utils.ensure_rng)",
                    )
                )
            elif name in _WALL_CLOCKS:
                findings.append(
                    mod.finding(
                        "RL103",
                        node,
                        f"wall clock {name}() on a deterministic path; "
                        "use event times (or time.perf_counter/monotonic "
                        "for durations)",
                    )
                )
        elif deterministic and isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    findings.append(
                        mod.finding(
                            "RL102",
                            node,
                            "stdlib random in a deterministic module; its "
                            "global state is not keyed, not snapshotted "
                            "and not replayable — use numpy Generators "
                            "via utils.ensure_rng",
                        )
                    )
        elif deterministic and isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                findings.append(
                    mod.finding(
                        "RL102",
                        node,
                        "stdlib random in a deterministic module; use "
                        "numpy Generators via utils.ensure_rng",
                    )
                )
    return findings
