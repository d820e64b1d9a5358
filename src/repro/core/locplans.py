"""Measurement plans: localization strategies as engine-neutral generators.

The §VI-D strategies (exhaustive, binary, linear, guided) are coroutine
**plans**, so the same decision logic drives both measurement engines —
event-driven VM probing (:class:`~repro.core.localization.FaultLocalizer`)
and the vectorized campaign engine (:mod:`repro.perf.shardloop`):

- a plan ``yield``\\ s a measurement request ``(i, j)`` — "measure the
  sub-path between on-path hop indices ``i < j``";
- the driver ``send``\\ s back the judged boolean (*faulty or not*);
- the plan ``return``\\ s its suspects as :class:`SuspectSpec` tuples
  (``("link", i)`` — the i-th crossed link; ``("interior", k)`` — the
  interior of the k-th on-path AS).

Plans are pure index arithmetic over a path of ``n`` links: no probing,
no topology, no randomness. Both engines run them through the one
:func:`drive_plan`, which is what guarantees the fast path reproduces the
event-driven engine's measurement sequence exactly.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.common.errors import ConfigurationError

#: ``("link", i)`` or ``("interior", k)`` — resolved to concrete
#: :class:`~repro.netsim.faults.FaultLocation` values by the caller, which
#: knows the path.
SuspectSpec = tuple[str, int]

#: A measurement plan: yields ``(i, j)`` requests, receives ``faulty``
#: booleans, returns suspect specs.
Plan = Generator[tuple[int, int], bool, list[SuspectSpec]]

STRATEGIES = ("exhaustive", "binary", "linear", "guided")


def plan_binary(n: int) -> Plan:
    """The §VI-D binary search over a path of ``n`` links.

    Splits the faulty interval at its midpoint and recurses into faulty
    halves; an interval that is faulty while both halves are clean pins
    the split AS's interior (which neither half traverses).
    """

    def search(lo: int, hi: int) -> Plan:
        faulty = yield (lo, hi)
        if not faulty:
            return []
        if hi - lo == 1:
            return [("link", lo)]
        mid = (lo + hi) // 2
        left = yield from search(lo, mid)
        right = yield from search(mid, hi)
        if not left and not right:
            return [("interior", mid)]
        return left + right

    return (yield from search(0, n))


def plan_linear(n: int) -> Plan:
    """Prefix scan from the client side, restarted past each fault.

    When the prefix ``(base, k)`` turns faulty, one extra link
    measurement disambiguates the link entering AS ``k`` from the
    interior of AS ``k-1``.
    """
    suspects: list[SuspectSpec] = []
    base = 0
    k = 1
    while k <= n:
        faulty = yield (base, k)
        if not faulty:
            k += 1
            continue
        if k - base == 1:
            suspects.append(("link", base))
        else:
            link_faulty = yield (k - 1, k)
            if link_faulty:
                suspects.append(("link", k - 1))
            else:
                suspects.append(("interior", k - 1))
        base = k
        k += 1
    return suspects


def plan_exhaustive(n: int) -> Plan:
    """Every link, then the Fig 6 interior decomposition per transit AS."""
    suspects: list[SuspectSpec] = []
    link_faulty: list[bool] = []
    for i in range(n):
        faulty = yield (i, i + 1)
        link_faulty.append(faulty)
        if faulty:
            suspects.append(("link", i))
    for k in range(1, n):
        faulty = yield (k - 1, k + 1)
        if faulty and not (link_faulty[k - 1] or link_faulty[k]):
            suspects.append(("interior", k))
    return suspects


def plan_guided(n: int, hint: SuspectSpec | None) -> Plan:
    """Check a hinted location first, then fall back to binary search.

    ``hint`` is a :class:`SuspectSpec` already resolved to on-path
    indices (or ``None`` when the hint is off-path, in which case this
    degenerates to plain binary search).
    """
    if hint is not None:
        kind, index = hint
        if kind == "link":
            faulty = yield (index, index + 1)
            if faulty:
                return [("link", index)]
        elif kind == "interior" and 0 < index < n:
            whole = yield (index - 1, index + 1)
            if whole:
                left = yield (index - 1, index)
                right = yield (index, index + 1)
                if not (left or right):
                    return [("interior", index)]
                suspects: list[SuspectSpec] = []
                if left:
                    suspects.append(("link", index - 1))
                if right:
                    suspects.append(("link", index))
                return suspects
    return (yield from plan_binary(n))


def make_plan(strategy: str, n: int, *, hint: SuspectSpec | None = None) -> Plan:
    """Instantiate the plan generator for ``strategy`` over ``n`` links."""
    if strategy == "binary":
        return plan_binary(n)
    if strategy == "linear":
        return plan_linear(n)
    if strategy == "exhaustive":
        return plan_exhaustive(n)
    if strategy == "guided":
        return plan_guided(n, hint)
    raise ConfigurationError(f"unknown strategy {strategy!r}")


def drive_plan(
    plan: Plan,
    measure: Callable[[int, int], bool],
    *,
    max_steps: int | None = None,
) -> list[SuspectSpec]:
    """Run ``plan`` to completion against a synchronous measure function.

    A plan that asks for more than ``max_steps`` measurements is cut off
    and ends with no suspects.
    """
    steps = 0
    try:
        request = next(plan)
        while max_steps is None or steps < max_steps:
            request = plan.send(measure(*request))
            steps += 1
    except StopIteration as stop:
        return stop.value or []
    plan.close()
    return []
