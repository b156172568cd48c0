"""The flat ``MemoryHierarchy.access`` against the layered composition.

``access`` does the TLB, next-line and L1 lookups on the caches' tag
lists itself.  The reference here is the composition it replaced --
``TLB.access``, ``l1.probe`` + ``install`` for the next line,
``l1.access``, then ``l2.access`` -- run on a second hierarchy of the same
geometry.  Random load/store streams over small caches make L1 evictions,
TLB misses and L2 misses all occur; every access's latency and the final
tag lists and counters must agree, with and without the prefetcher.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.caches import MemoryHierarchy

#: (l1 size, assoc, block), (l2 size, assoc, block), (tlb entries, assoc,
#: page): a few sets each, so a few KiB of addresses overflow all three.
GEOMETRIES = (
    ((128, 1, 32), (512, 2, 32), (4, 2, 256)),
    ((256, 2, 32), (1024, 4, 64), (4, 4, 512)),
    ((512, 4, 16), (1024, 2, 32), (8, 2, 256)),
)


def _hierarchy(geometry, prefetch):
    (l1_size, l1_assoc, l1_block), (l2_size, l2_assoc, l2_block), \
        (tlb_entries, tlb_assoc, page) = geometry
    return MemoryHierarchy(
        l1_size=l1_size, l1_assoc=l1_assoc, l1_block=l1_block,
        l2_size=l2_size, l2_assoc=l2_assoc, l2_block=l2_block,
        tlb_entries=tlb_entries, tlb_assoc=tlb_assoc, page_size=page,
        next_line_prefetch=prefetch,
    )


def layered_access(hierarchy, address, is_store=False):
    """The hierarchy access as composed per-cache operations."""
    extra = 0
    if not hierarchy.tlb.access(address):
        extra += hierarchy.tlb_miss_latency
    if hierarchy.next_line_prefetch:
        next_line = address + hierarchy.l1.block
        if not hierarchy.l1.probe(next_line):
            hierarchy.l1.install(next_line)
            hierarchy.l2.install(next_line)
    if hierarchy.l1.access(address):
        return extra if not is_store else 0
    if hierarchy.l2.access(address):
        extra += hierarchy.l2_hit_latency
    else:
        extra += hierarchy.l2_hit_latency + hierarchy.memory_latency
    return extra if not is_store else 0


def _state(hierarchy):
    return [(cache.sets, cache.hits, cache.misses)
            for cache in (hierarchy.l1, hierarchy.l2, hierarchy.tlb.cache)]


def _run(geometry, prefetch, warm, stream):
    flat = _hierarchy(geometry, prefetch)
    layered = _hierarchy(geometry, prefetch)
    for hierarchy in (flat, layered):
        if warm is not None:
            hierarchy.warm(*warm)
    for index, (address, is_store) in enumerate(stream):
        expected = layered_access(layered, address, is_store)
        assert flat.access(address, is_store) == expected, (index, address)
    assert _state(flat) == _state(layered)
    return flat


accesses = st.lists(
    st.tuples(st.integers(0, 8191), st.booleans()), max_size=300)


@given(st.sampled_from(GEOMETRIES), st.booleans(),
       st.none() | st.tuples(st.integers(0, 4096), st.integers(1, 1024)),
       accesses)
@settings(max_examples=150, deadline=None)
def test_flat_access_matches_layered_reference(geometry, prefetch, warm,
                                               stream):
    _run(geometry, prefetch, warm, stream)


def test_reference_streams_reach_every_miss_kind():
    """Streams like the property's make each kind of miss happen."""
    rng = random.Random(7)
    stream = [(rng.randrange(8192), rng.random() < 0.3) for _ in range(300)]
    for geometry in GEOMETRIES:
        for prefetch in (False, True):
            flat = _run(geometry, prefetch, None, stream)
            l1_lines = flat.l1.num_sets * flat.l1.assoc
            assert flat.l1.misses > l1_lines  # so the L1 evicted
            assert flat.l2.misses and flat.tlb.misses
