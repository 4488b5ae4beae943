"""Seeded inputs for every workload.

Everything a workload sends to the program is generated here from the
seed alone: the experiment orders of ``paper-run``'s rounds, the claim order of
``paper-batch``, and the cell list, request schedule and formula draws
of ``serve-mix``.  The *distributions* are fixed (cell and formula
popularity ranks, the op mix, the arrival rate); the seed only draws
from them, so different seeds give different inputs of the same kind.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

from common import digest

#: The README's "everything fast" reproduction (every experiment but E9),
#: without E14.  E14 enumerates its two large cells itself, bypassing the
#: cache: one 10-12 s computation, half a cold pass, that a run cannot
#: repeat often enough for a steady median within the time a run has.
PAPER_RUN_IDS = [f"E{i}" for i in range(1, 22) if i not in (9, 14)]

#: The experiments of ``paper-run`` that read the system cache.  The warm
#: pass reruns only these: the other six (E1, E2, E15, E17, E19, E20)
#: neither read nor write it, so rerunning them would repeat the cold pass.
PAPER_RUN_WARM_IDS = ["E3", "E4", "E5", "E6", "E7", "E8", "E10", "E11",
                      "E12", "E13", "E16", "E18", "E21"]

#: The experiments that build (cold) or load (warm) the three cells the
#: others share.  Every pass runs them first, in this order, so each
#: experiment does the same work whatever the seed: a shared build is
#: never charged to whichever experiment happens to come first.
PAPER_RUN_LEADERS = ["E3", "E4", "E16"]

#: Cold/warm rounds of ``paper-run`` and ``paper-batch``; each
#: experiment's or claim's time is the median over the rounds.  A claim
#: such as E5 lasts under half a second, and one sample of it swung the
#: batch's median claim wall by 0.3 across ten seeds.
PAPER_RUN_ROUNDS = 2
PAPER_BATCH_ROUNDS = 2

#: The claims with batch plans that ``paper-batch`` runs, E9 included.
PAPER_BATCH_IDS = ["E4", "E5", "E21", "E9"]

#: serve-mix cells ``(mode, n, t, horizon)``, most popular first.  Twenty
#: cells against the provider's 16-entry memory LRU: a session over all
#: of them evicts and reloads cells.  The timed loops draw from the 16
#: most popular, which the session leaves resident: with reloads in the
#: open loop, whether a run's p99 lands on a reload stall was luck
#: (p99 spread 0.4-0.5 across seeds), so reloads are measured by the
#: cold and warm passes instead.  Every cell has at most 464 runs.
SERVE_CELLS = [
    ("crash", 3, 1, 3), ("omission", 3, 1, 2), ("crash", 4, 1, 1),
    ("omission", 4, 1, 1), ("receive-omission", 3, 1, 2),
    ("crash", 3, 1, 4), ("omission", 3, 2, 1), ("crash", 3, 2, 1),
    ("crash", 3, 1, 2), ("omission", 2, 1, 4), ("crash", 3, 1, 1),
    ("omission", 3, 1, 1), ("receive-omission", 3, 1, 1),
    ("omission", 2, 1, 3), ("crash", 2, 1, 4), ("crash", 2, 1, 3),
    ("omission", 2, 1, 2), ("crash", 2, 1, 2), ("omission", 2, 1, 1),
    ("crash", 2, 1, 1),
]
#: The cells the timed loops use: as many as the provider's LRU holds.
RESIDENT = SERVE_CELLS[:16]

#: Explain-catalog formulas (E4/E5/E21), referenced by name on the wire.
CATALOG = [
    ("E4", "common-exists1"), ("E4", "continual-exists1"),
    ("E4", "continual-exists1-fixpoint"), ("E4", "everyone-exists1"),
    ("E5", "cbox-zero-flambda2"), ("E5", "prop43a-belief"),
    ("E21", "eventual-exists1"), ("E21", "knows0-exists1"),
]


def _ex(value: int) -> Dict[str, Any]:
    return {"kind": "exists", "value": value}


def _knows(processor: int, of: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": "knows", "processor": processor, "of": of}


def _cat(experiment: str, formula: str) -> Dict[str, Any]:
    return {"catalog": {"experiment": experiment, "formula": formula}}


#: Catalog and AST formulas, most popular first.  The E5 catalog entries
#: recompute F^{Λ,2} on every request (tens of milliseconds even on these
#: cells), so the dozen or so a run would send would set p99 on their
#: own; serve-mix leaves them to paper-run and paper-batch.
POPULAR = [
    {"formula": _ex(1)},
    _cat("E4", "common-exists1"),
    {"formula": _knows(0, _ex(1))},
    _cat("E21", "knows0-exists1"),
    {"formula": {"kind": "everyone", "of": _ex(1)}},
    _cat("E4", "everyone-exists1"),
    {"formula": {"kind": "common", "of": _ex(1)}},
    _cat("E4", "continual-exists1"),
    {"formula": _knows(1, _ex(0))},
    _cat("E21", "eventual-exists1"),
    {"formula": {"kind": "always", "of": _ex(1)}},
    _cat("E4", "continual-exists1-fixpoint"),
    {"formula": {"kind": "and", "operands": [_knows(0, _ex(1)),
                                             _knows(1, _ex(1))]}},
    {"formula": {"kind": "implies",
                 "antecedent": {"kind": "initial_value_is", "processor": 0,
                                "value": 1},
                 "consequent": _knows(0, _ex(1))}},
    {"formula": {"kind": "not", "of": {"kind": "everyone", "of": _ex(0)}}},
    {"formula": {"kind": "continual_common", "of": _ex(0)}},
    {"formula": {"kind": "eventually", "of": _knows(0, _ex(1))}},
    {"formula": {"kind": "eventual_common", "of": _ex(1)}},
]

#: Open-loop op mix: popular evals, first-seen evals, explain, monitor.
MIX = {"eval": 0.85, "eval_new": 0.05, "explain": 0.05, "monitor": 0.05}
#: Open-loop arrival rate (requests per second).
RATE = 100.0
#: The closed-loop list is made of decks (cycled if the phase outlasts
#: them).  Every deck holds the same popular evals in its own seeded
#: order, so a loop that stops after any number of decks has sent the
#: same composition whatever the seed; one that stops mid-deck shifts it
#: by at most part of a deck.  Cheap and costly evals differ severalfold,
#: and with one seeded shuffle of the whole list the median latency
#: followed the composition of the prefix a run happened to send.
CLOSED_DECK = 128
CLOSED_DECKS = 16
#: Zipf exponent for cell and formula popularity.
ZIPF_S = 1.0


def _zipf_weights(count: int) -> List[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, count + 1)]


def apportion(total: int, weights: List[float]) -> List[int]:
    """Split *total* into integer counts proportional to *weights*.

    Largest-remainder rounding: the counts sum to *total* and depend on
    the weights only, so every seed sends the same request composition
    and only their order and timing are drawn.
    """
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (counts[i] - exact[i], i))
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def _cell_params(cell) -> Dict[str, Any]:
    mode, n, t, horizon = cell
    return {"mode": mode, "n": n, "t": t, "horizon": horizon}


def _popular_evals(total: int) -> List[Dict[str, Any]]:
    """*total* evals in Zipf(cell) × Zipf(formula) proportion."""
    classes, weights = [], []
    for cell, cell_weight in zip(RESIDENT, _zipf_weights(len(RESIDENT))):
        for formula, formula_weight in zip(POPULAR,
                                           _zipf_weights(len(POPULAR))):
            classes.append({"op": "eval",
                            "params": dict(_cell_params(cell), **formula)})
            weights.append(cell_weight * formula_weight)
    requests = []
    for request, count in zip(classes, apportion(total, weights)):
        requests.extend([request] * count)
    return requests


def _atom(rng: random.Random) -> Dict[str, Any]:
    kind = rng.choice(("exists", "all_started", "is_nonfaulty",
                       "initial_value_is"))
    if kind in ("exists", "all_started"):
        return {"kind": kind, "value": rng.randint(0, 1)}
    if kind == "is_nonfaulty":
        return {"kind": kind, "processor": rng.randint(0, 1)}
    return {"kind": kind, "processor": rng.randint(0, 1),
            "value": rng.randint(0, 1)}


def _wrap(rng: random.Random, inner: Dict[str, Any]) -> Dict[str, Any]:
    kind = rng.choice(("knows", "everyone", "always", "eventually", "not",
                       "and", "or"))
    if kind == "knows":
        return _knows(rng.randint(0, 1), inner)
    if kind in ("and", "or"):
        return {"kind": kind, "operands": [inner, _atom(rng)]}
    return {"kind": kind, "of": inner}


def first_seen_formula(rng: random.Random, seen: set) -> Dict[str, Any]:
    """A random formula of 1-3 operators over an atom, new to this run."""
    while True:
        spec = _atom(rng)
        for _ in range(rng.randint(1, 3)):
            spec = _wrap(rng, spec)
        key = json.dumps(spec, sort_keys=True)
        if key not in seen:
            seen.add(key)
            return spec


def serve_mix(seed: int, seconds: float) -> Dict[str, Any]:
    """The serve-mix inputs: session, open-loop schedule, closed loop.

    The open loop sends ``RATE * seconds`` requests at the arrival times
    of a Poisson process conditioned on that count (sorted uniform
    draws).  Its composition is fixed by ``MIX`` and the popularity
    weights; the seed draws the order, the times, the first-seen
    formulas and the monitor scenarios.
    """
    rng = random.Random(f"serve-mix/{seed}")
    total = int(RATE * seconds)
    counts = dict(zip(MIX, apportion(total, list(MIX.values()))))
    requests = _popular_evals(counts["eval"])
    seen = {json.dumps(f.get("formula"), sort_keys=True) for f in POPULAR}
    new_cells = apportion(counts["eval_new"], _zipf_weights(len(RESIDENT)))
    for cell, count in zip(RESIDENT, new_cells):
        for _ in range(count):
            params = _cell_params(cell)
            params["formula"] = first_seen_formula(rng, seen)
            requests.append({"op": "eval", "params": params})
    explained = [entry for entry in CATALOG if entry[0] != "E5"]
    for (experiment, formula), count in zip(
            explained, apportion(counts["explain"], [1.0] * len(explained))):
        requests.extend([{"op": "explain", "params": _cat(experiment,
                                                          formula)}] * count)
    for _ in range(counts["monitor"]):
        params = {"mode": "crash", "n": 3, "t": 1,
                  "config": "".join(rng.choice("01") for _ in range(3)),
                  "rounds": rng.randint(2, 3)}
        if rng.random() < 0.5:
            params["crash"] = [f"{rng.randint(0, 2)}:{rng.randint(1, 2)}"]
        requests.append({"op": "monitor", "params": params})
    rng.shuffle(requests)
    times = sorted(rng.uniform(0.0, seconds) for _ in requests)
    schedule = [dict(request, at=round(at, 6))
                for request, at in zip(requests, times)]
    closed = []
    for _ in range(CLOSED_DECKS):
        deck = _popular_evals(CLOSED_DECK)
        rng.shuffle(deck)
        closed.extend(deck)
    # A daemon's first session: every popular formula on every cell, one
    # cell at a time, in a seeded order (the cold and warm passes).  The
    # four extra cells come first, so the session ends with RESIDENT
    # in the LRU.
    extra = SERVE_CELLS[len(RESIDENT):]
    session = []
    for cell in (rng.sample(extra, len(extra))
                 + rng.sample(RESIDENT, len(RESIDENT))):
        for formula in rng.sample(POPULAR, len(POPULAR)):
            session.append({"op": "eval",
                            "params": dict(_cell_params(cell), **formula)})
    inputs = {
        "cells": [list(c) for c in SERVE_CELLS],
        "session": session,
        "schedule": schedule,
        "closed": closed,
    }
    inputs["digest"] = digest(inputs)
    return inputs


def paper_run(seed: int) -> Dict[str, Any]:
    """Every round's cold and warm experiment orders.

    Each pass runs ``PAPER_RUN_LEADERS`` first, then the rest in its own
    seeded order, so a slow stretch of the machine lands on different
    experiments in different rounds.
    """
    rng = random.Random(f"paper-run/{seed}")

    def order(ids: List[str]) -> List[str]:
        rest = [e for e in ids if e not in PAPER_RUN_LEADERS]
        return PAPER_RUN_LEADERS + rng.sample(rest, len(rest))

    inputs: Dict[str, Any] = {
        "rounds": [{"cold": order(PAPER_RUN_IDS),
                    "warm": order(PAPER_RUN_WARM_IDS)}
                   for _ in range(PAPER_RUN_ROUNDS)],
    }
    inputs["digest"] = digest(inputs)
    return inputs


def _batch_order(rng: random.Random) -> List[str]:
    """E4, then E5 and E21 in either order, with E9 anywhere.

    E4, E5 and E21 share their n=3 cells, and the first of them pays for
    building (or loading) them; keeping E4 first charges that to the same
    claim whatever the seed, so per-claim walls stay comparable.
    """
    order = ["E4"] + rng.sample(["E5", "E21"], 2)
    order.insert(rng.randint(0, len(order)), "E9")
    return order


def paper_batch(seed: int) -> Dict[str, Any]:
    """Every round's cold and warm claim orders."""
    rng = random.Random(f"paper-batch/{seed}")
    inputs: Dict[str, Any] = {
        "rounds": [{"cold": _batch_order(rng), "warm": _batch_order(rng)}
                   for _ in range(PAPER_BATCH_ROUNDS)],
    }
    inputs["digest"] = digest(inputs)
    return inputs
