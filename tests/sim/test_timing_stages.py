"""The stage components' state representations against reference models.

The timing model keeps one representation of each piece of carried
state.  The store queue is a byte map of ``address -> (store order,
data ready)`` entries, live iff within the last ``lsq_size`` stores, and
retirement is a scalar frontier: the last retire cycle plus how many
instructions retired there.  These tests check both against their
textbook forms, written out below as small reference models: a
capacity-capped list of store intervals scanned newest first, and a
per-cycle retirement count map.  Hypothesis drives random store/load
streams through the per-entry scheduler loop and compares the schedule
of every entry with the models.
"""

from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.program import Program
from repro.sim import DATAFLOW
from repro.sim.timing import make_pipeline
from repro.sim.trace import ADDR_TYPECODE, SEQ_TYPECODE, StaticInfo, TraceChunk

SIZES = (1, 2, 4, 8)
LSQ_SIZES = (1, 2, 32, 64, 10**9)
RETIRE_WIDTHS = (1, 4, 16)
BASE = 0x1000


def _row(klass, dest=-1, srcs=(), size=0, aliased=False):
    return {
        "klass": klass, "dest": dest, "srcs": srcs,
        "is_load": klass == "load", "is_store": klass == "store",
        "is_branch": False, "is_cond_branch": False, "mem_size": size,
        "sbox_table": 0, "sbox_aliased": aliased, "is_sync": False,
        "category": "other", "is_flag": False, "addr_srcs": (),
    }


# Static table: [0] an r1 -> r1 ALU chain, which gives the stores after
# it later data-ready cycles; [1-4] a store of r1 per size; [5-8] a load
# per size; [9] an aliased SBOX read (4 bytes, forwarded like a load).
_ROWS = [
    _row("ialu", dest=1, srcs=(1,)),
    *(_row("store", srcs=(1,), size=size) for size in SIZES),
    *(_row("load", dest=2, size=size) for size in SIZES),
    _row("sbox", dest=2, size=4, aliased=True),
]
STATIC = StaticInfo(**{name: [row[name] for row in _ROWS]
                       for name in _ROWS[0]})
PROGRAM = Program()

#: Random streams of (static index, address offset).  Offsets overlap
#: partially across sizes, and the 24-byte span lets the byte map
#: outgrow ``16 * lsq_size`` entries for a one-store queue, so pruning
#: runs.  Every store follows a step of the ALU chain, so each store's
#: data is ready later than every older store's and a load that overlaps
#: several stores tells the newest from the rest.
streams = st.lists(
    st.tuples(st.integers(0, len(_ROWS) - 1), st.integers(0, 16)),
    min_size=1, max_size=100,
).map(lambda ops: [entry for s, offset in ops
                   for entry in ([(0, 0), (s, offset)]
                                 if _ROWS[s]["klass"] == "store"
                                 else [(s, offset)])])


def _schedule(config, stream, chunk_size):
    """(stats, schedule) of the generic engine over ``stream``."""
    seq = array(SEQ_TYPECODE, [s for s, _ in stream])
    addrs = array(ADDR_TYPECODE, [BASE + offset for _, offset in stream])
    pipeline = make_pipeline(config, STATIC, PROGRAM,
                             schedule_range=(0, len(stream)))
    step = chunk_size or len(stream)
    for start in range(0, len(stream), step):
        pipeline.feed(TraceChunk(seq[start:start + step],
                                 addrs[start:start + step], start=start))
    stats = pipeline.finish()
    return stats, stats.extra["schedule"]


def _newest_overlap(queue, addr, size):
    """Data-ready cycle of the newest queued store overlapping the access."""
    for start, end, ready in reversed(queue):
        if addr < end and start < addr + size:
            return ready
    return 0


@given(streams, st.sampled_from(LSQ_SIZES), st.sampled_from((1, 8192)),
       st.sampled_from((1, 7, None)))
# An 8-byte load over an older 8-byte store and a newer 1-byte store to
# its first byte: the newest store wins, not the last byte probed.
@example([(0, 0), (4, 0), (0, 0), (1, 0), (8, 0)], 10**9, 8192, None)
@settings(max_examples=200, deadline=None)
def test_store_map_forwards_like_newest_first_interval_scan(
        stream, lsq_size, prune_interval, chunk_size):
    config = DATAFLOW.with_(lsq_size=lsq_size, prune_interval=prune_interval)
    stats, schedule = _schedule(config, stream, chunk_size)
    queue: list[tuple[int, int, int]] = []
    forwards = 0
    for (_, s, dispatch, issued, complete, _), (_, offset) in zip(
            schedule, stream):
        klass, size = STATIC.klass[s], STATIC.mem_size[s]
        addr = BASE + offset
        if klass == "store":
            queue.append((addr, addr + size, complete))
            if len(queue) > lsq_size:
                queue.pop(0)
        elif klass in ("load", "sbox"):
            # DF: no address sources, perfect alias and memory, unlimited
            # issue, so only forwarding can delay the access.  A load
            # generates its address first; the SBOX read does not.
            ready = dispatch + 1 if klass == "load" else dispatch
            forward = _newest_overlap(queue, addr, size)
            if forward:
                forwards += 1
                start = max(ready, forward)
                assert (issued, complete) == (start, start + 1)
            else:
                latency = (config.load_latency - 1 if klass == "load"
                           else config.sbox_dcache_latency)
                assert (issued, complete) == (ready, ready + latency)
    assert stats.store_forwards == forwards


@given(streams, st.sampled_from(RETIRE_WIDTHS),
       st.sampled_from((1, 7, None)))
@settings(max_examples=100, deadline=None)
def test_retire_frontier_matches_per_cycle_retire_map(
        stream, retire_width, chunk_size):
    config = DATAFLOW.with_(retire_width=retire_width)
    stats, schedule = _schedule(config, stream, chunk_size)
    retired_at: dict[int, int] = {}
    previous = 0
    for *_, complete, retire in schedule:
        cycle = max(complete + 1, previous)
        while retired_at.get(cycle, 0) >= retire_width:
            cycle += 1
        retired_at[cycle] = retired_at.get(cycle, 0) + 1
        previous = cycle
        assert retire == cycle
    assert stats.cycles == max(previous, max(row[4] for row in schedule))
