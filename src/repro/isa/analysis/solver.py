"""Generic worklist machinery shared by every static analysis.

Two pieces, deliberately tiny:

* :func:`iterate` -- the FIFO worklist loop with an on-list dedup set.
  The CFG-level fixpoints (reaching definitions, liveness, pointer
  taint, the dirty-table walk) are this loop with a different transfer
  function; sharing it pins one iteration order so ports cannot
  silently change convergence behavior.
* :func:`infer_dataflow` -- the per-register fixpoint behind the width,
  trailing-zeros, constant and value-range lattices in
  :mod:`repro.isa.analysis.lattices`; the compiled backend's elision
  decisions read the first three.  It walks the blocks of the
  :class:`~repro.isa.analysis.cfg.CFG` (the one block decomposition)
  on its own LIFO stack, without dedup, not :func:`iterate`; with
  ``widen_after`` (the width and value-range lattices) it widens
  climbing facts and then narrows them back.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, TypeVar

from repro.isa.analysis.cfg import CFG

T = TypeVar("T", bound=Hashable)


def iterate(seed: Iterable[T], process: Callable[[T], Iterable[T]]) -> None:
    """Run ``process`` over a FIFO worklist until it stops feeding itself.

    ``process(item)`` applies one transfer function and returns the items
    whose inputs it changed; those are enqueued unless already pending.
    FIFO order with the dedup set reproduces exactly the iteration order
    the verifier's solvers used before they shared this helper, so the
    port is behavior-preserving by construction.
    """
    queue: deque[T] = deque(seed)
    on_list = set(queue)
    while queue:
        item = queue.popleft()
        on_list.discard(item)
        for nxt in process(item):
            if nxt not in on_list:
                on_list.add(nxt)
                queue.append(nxt)


#: Narrowing passes tried before falling back to the widened result.
NARROW_PASSES = 8


def infer_dataflow(
    cfg: CFG,
    step: Callable[[list, int], None],
    *,
    top: object,
    join: Callable,
    widen_after: "int | None" = None,
) -> "list[list]":
    """Per-block entry states via a monotone worklist fixpoint.

    Returns one entry state per block of ``cfg``, indexed by block id.
    ``top`` is the no-information value (assumed at the entry block and
    for unreachable blocks -- machines may be pre-seeded); ``join``
    merges the states reaching a block so a proved fact is valid on
    every path.  States are 33-slot lists: registers 0..31 plus the
    discard slot the array representation maps ``r31``/no-dest writes
    to.  The ascending phase pops blocks off a LIFO stack and pushes a
    block again whenever its entry grows (no dedup).

    With ``widen_after``, a (block, register) entry fact enlarged more
    than that many times widens to ``join(fact, top)``, which keeps an
    unknown width above the width lattice's ``top``.  Narrowing then
    recomputes each reachable block's entry from its reachable
    predecessors' exit states, in place and in block order, until no
    entry changes.  That stable iterate is a fixpoint; if
    :data:`NARROW_PASSES` passes do not reach one, the widened result,
    a post-fixpoint, is returned.
    """
    blocks = cfg.blocks
    ins: "list[list | None]" = [None] * len(blocks)
    bumps: "dict[tuple[int, int], int]" = {}
    if blocks:
        ins[0] = [top] * 33
    work = [0] if blocks else []

    def exit_state(k: int, state: list) -> list:
        state = list(state)
        for i in blocks[k].indices():
            step(state, i)
        return state

    while work:
        k = work.pop()
        state = exit_state(k, ins[k])  # type: ignore[arg-type]
        for j in blocks[k].successors:
            existing = ins[j]
            if existing is None:
                ins[j] = list(state)
                work.append(j)
            else:
                changed = False
                for r in range(33):
                    merged = join(state[r], existing[r])
                    if merged != existing[r]:
                        if widen_after is not None:
                            bumps[j, r] = count = bumps.get((j, r), 0) + 1
                            if count > widen_after:
                                merged = join(merged, top)
                        existing[r] = merged
                        changed = True
                if changed:
                    work.append(j)
    ascended = [s if s is not None else [top] * 33 for s in ins]
    if widen_after is None:
        return ascended
    reachable = sorted(cfg.reachable)
    preds = {k: [p for p in blocks[k].predecessors if p in cfg.reachable]
             for k in reachable}
    narrowed = list(ascended)
    exits = {k: exit_state(k, narrowed[k]) for k in reachable}
    for _ in range(NARROW_PASSES):
        changed = False
        for k in reachable:
            state = [top] * 33 if k == 0 else exits[preds[k][0]]
            for p in preds[k]:
                state = list(map(join, state, exits[p]))
            if state != narrowed[k]:
                narrowed[k] = state
                exits[k] = exit_state(k, state)
                changed = True
        if not changed:
            return narrowed
    return ascended
