"""Evaluation-kernel selection for the knowledge machinery.

The formula evaluator has three interchangeable inner representations for
:class:`~repro.model.system.TruthAssignment`:

* ``bitset`` (the default) — every assignment is one arbitrary-precision
  integer with a bit per point of the system; boolean algebra, knowledge
  tests and fixpoints become word-wide integer operations.  Ideal up to
  :data:`BITSET_POINT_LIMIT` points, beyond which every big-int operation
  costs O(mask length) and the per-group subset tests turn quadratic;
* ``chunked`` — the same point layout split into 64-bit limbs
  (:mod:`repro.model.chunked`), with limb-sliced state-group masks and
  popcount subset tests, so boolean algebra and knowledge sweeps stay
  O(limbs touched) at any scale.  Systems larger than
  :data:`BITSET_POINT_LIMIT` are upgraded to this kernel automatically
  when ``bitset`` is selected (see ``System.effective_kernel``);
* ``reference`` — the original list-of-lists-of-``bool`` evaluator, kept
  as the executable specification the packed kernels are differentially
  tested against.

The active kernel is chosen by the ``REPRO_EVAL_KERNEL`` environment
variable (normalized: surrounding whitespace and case are ignored; empty
means default) or, with precedence, by the :func:`use_kernel` context
manager, which tests and per-request serve pins use without touching
the process environment.  The override stack is per thread (and per
asyncio task): a pin on one serve worker thread never changes the kernel
another thread sees.  Environment values are validated once per distinct raw
string (not re-parsed on every :func:`active_kernel` call), and
configuration errors carry the full provenance of the selection — the
``use_kernel`` override stack plus the environment value — so a bad name
is attributable at a glance.  Evaluation caches are keyed by the kernel a
system actually resolves to, so switching mid-process can never serve an
assignment of the wrong representation.

Every kernel resolution is observable: ``System.effective_kernel`` reports
its choice through :func:`note_selection`, which bumps the
``kernel_selected_{bitset,chunked,reference}`` obs counters and records a
bounded per-system selection log surfaced by ``repro-eba stats``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from .. import obs
from ..errors import ConfigurationError

#: Environment variable selecting the evaluation kernel.
KERNEL_ENV = "REPRO_EVAL_KERNEL"

BITSET = "bitset"
CHUNKED = "chunked"
REFERENCE = "reference"

#: All recognized kernel names.
KERNELS = (BITSET, CHUNKED, REFERENCE)

DEFAULT_KERNEL = BITSET

#: Largest system (in points, ``runs * (horizon + 1)``) evaluated with
#: single-integer packed masks.  Beyond this, every big-int mask op and
#: group test costs O(mask length) in CPython's arbitrary-precision
#: arithmetic, so the bitset kernel degrades quadratically with system
#: size.  Systems above the limit are therefore *upgraded* to the
#: ``chunked`` limb-array kernel when ``bitset`` is selected (see
#: ``System.effective_kernel``) — the old silent fall back to the
#: reference layout is gone.  The limit sits well above every
#: fixpoint-heavy workload (crash ``n=4`` is ~5k points) and well below
#: the huge enumerations (~1.2M points).
BITSET_POINT_LIMIT = 1 << 18


def resolve_selection(requested: str, points: int) -> str:
    """The kernel a *requested* selection resolves to at *points* points.

    Pure (no counters, no logging): ``bitset`` upgrades to ``chunked``
    beyond :data:`BITSET_POINT_LIMIT`; explicit ``chunked`` and
    ``reference`` selections are honoured at any size.
    ``System.effective_kernel`` is this rule plus per-system
    observability (:func:`note_selection`); external reporters — e.g.
    the bench runner's per-entry kernel metadata — call it directly so
    their notion of the upgrade can never drift from the evaluator's.
    """
    if requested == BITSET and points > BITSET_POINT_LIMIT:
        return CHUNKED
    return requested


#: The :func:`use_kernel` override stack, outermost first.  A context
#: variable, so each thread starts from an empty stack.
_override_stack: ContextVar[Tuple[str, ...]] = ContextVar(
    "kernel_override_stack", default=()
)

#: Memoized environment parse: raw string -> validated kernel name.  The
#: environment is still *read* on every uncached :func:`active_kernel`
#: call (so tests may monkeypatch it), but each distinct raw value is
#: validated exactly once.
_env_cache: Optional[Tuple[str, str]] = None


def selection_provenance() -> str:
    """Human-readable description of where the kernel choice comes from.

    Lists, outermost first, the full :func:`use_kernel` override stack,
    then the environment value (or its absence), then the default — the
    complete precedence chain, included verbatim in every
    :class:`~repro.errors.ConfigurationError` this module raises.
    """
    parts: List[str] = []
    stack = _override_stack.get()
    if stack:
        chain = " > ".join(f"use_kernel({name!r})" for name in stack)
        parts.append(f"override stack (outermost first): {chain}")
    raw = os.environ.get(KERNEL_ENV)
    if raw is None:
        parts.append(f"{KERNEL_ENV} unset")
    else:
        parts.append(f"{KERNEL_ENV}={raw!r}")
    parts.append(f"default {DEFAULT_KERNEL!r}")
    return "; ".join(parts)


def _check_kernel(name: str, origin: str) -> str:
    if name not in KERNELS:
        raise ConfigurationError(
            f"{origin} must be one of {', '.join(KERNELS)}; got {name!r} "
            f"[{selection_provenance()}]"
        )
    return name


def active_kernel() -> str:
    """The kernel name every new evaluation uses.

    Precedence: innermost :func:`use_kernel` override, then the
    ``REPRO_EVAL_KERNEL`` environment variable, then :data:`DEFAULT_KERNEL`.
    Override names were validated when pushed; each distinct environment
    value is validated once and memoized.
    """
    global _env_cache
    stack = _override_stack.get()
    if stack:
        return stack[-1]
    raw = os.environ.get(KERNEL_ENV)
    if raw is None:
        return DEFAULT_KERNEL
    cached = _env_cache
    if cached is not None and cached[0] == raw:
        return cached[1]
    text = raw.strip().lower()
    name = DEFAULT_KERNEL if not text else _check_kernel(
        text, f"{KERNEL_ENV}={raw!r}"
    )
    _env_cache = (raw, name)
    return name


@contextmanager
def use_kernel(name: str) -> Iterator[str]:
    """Pin the evaluation kernel within a ``with`` block (reentrant).

    The name is validated once, on entry; a bad name reports the
    already-active override stack and environment so nested misuse is
    attributable.
    """
    name = _check_kernel(name.strip().lower(), "use_kernel() argument")
    token = _override_stack.set(_override_stack.get() + (name,))
    try:
        yield name
    finally:
        _override_stack.reset(token)


# -- selection observability --------------------------------------------------

#: Bounded log of per-system kernel resolutions, newest last.  Keyed by
#: (system descriptor, requested, selected) so re-resolutions of the same
#: system are recorded once; surfaced by ``repro-eba stats``.
_selections: "OrderedDict[Tuple[str, str, str], Dict[str, object]]" = (
    OrderedDict()
)
_SELECTION_LOG_LIMIT = 64


def note_selection(
    descriptor: str, points: int, requested: str, selected: str
) -> None:
    """Record that a system resolved *requested* to *selected*.

    Bumps the ``kernel_selected_<selected>`` obs counter (every call, so
    counters reflect distinct system resolutions) and appends to the
    bounded selection log.
    """
    obs.count(f"kernel_selected_{selected}")
    key = (descriptor, requested, selected)
    if key in _selections:
        _selections.move_to_end(key)
        return
    _selections[key] = {
        "system": descriptor,
        "points": int(points),
        "requested": requested,
        "selected": selected,
        "upgraded": requested != selected,
    }
    while len(_selections) > _SELECTION_LOG_LIMIT:
        _selections.popitem(last=False)


def kernel_selections() -> List[Dict[str, object]]:
    """The recorded per-system kernel resolutions, oldest first."""
    return [dict(entry) for entry in _selections.values()]


def reset_selection_log() -> None:
    """Drop the selection log (mainly for tests and ``stats --clear``)."""
    _selections.clear()
