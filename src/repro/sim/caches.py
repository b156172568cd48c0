"""Cache and TLB models for the timing simulator.

The paper's baseline memory system (section 3.2): 32 KB 2-way L1 data cache
with 32-byte blocks and next-line prefetch, a 512 KB 4-way unified L2 with a
12-cycle hit latency, a 120-cycle round trip to memory, and a 32-entry 8-way
data TLB with a 30-cycle miss penalty.

The hierarchy returns the *extra* latency beyond the pipelined L1 hit path;
the timing model adds it to the base load latency.  The paper observes (and
Figure 5 confirms) that these kernels essentially never miss -- the model
exists so that observation is measured, not assumed.

Every cache keeps its state as per-set tag lists, most recently used last,
plus hit and miss counters.  :meth:`MemoryHierarchy.access`, the per-access
path of every timing run, works on the TLB's and L1's lists directly in
one method instead of composing the per-cache methods; the specialized
timing engine's generated code inlines the same all-hit path on the same
lists.  The L2 makes a set's list on the set's first touch: only L1
misses and prefetch fills reach it, and building its 4096 empty lists up
front was most of what a timing pipeline cost to build.
"""

from __future__ import annotations


class SetAssociativeCache:
    """LRU set-associative cache tracking tags only."""

    def __init__(self, size: int, assoc: int, block: int):
        if size % (assoc * block):
            raise ValueError("cache size must be divisible by assoc*block")
        self.block = block
        self.assoc = assoc
        self.num_sets = size // (assoc * block)
        # Each set is an ordered list of tags, most recently used last.
        self.sets = self._new_sets()
        self.hits = 0
        self.misses = 0

    def _new_sets(self):
        return [[] for _ in range(self.num_sets)]

    def _locate(self, address: int) -> tuple[list[int], int]:
        block_address = address // self.block
        return self.sets[block_address % self.num_sets], block_address

    def access(self, address: int) -> bool:
        """Access; returns True on hit.  Fills (LRU eviction) on miss."""
        tags, tag = self._locate(address)
        if tag in tags:
            tags.remove(tag)
            tags.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        tags.append(tag)
        if len(tags) > self.assoc:
            tags.pop(0)
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        tags, tag = self._locate(address)
        return tag in tags

    def install(self, address: int) -> None:
        """Install a block without counting an access (prefetch fills)."""
        tags, tag = self._locate(address)
        if tag in tags:
            return
        tags.append(tag)
        if len(tags) > self.assoc:
            tags.pop(0)


class _TagSets(dict):
    """Per-set tag lists, each made on the set's first touch."""

    def __missing__(self, index: int) -> list[int]:
        tags = self[index] = []
        return tags


class _SparseCache(SetAssociativeCache):
    """A cache whose sets are made on first touch (the L2)."""

    def _new_sets(self):
        return _TagSets()


class TLB:
    """Fully-set-associative-per-set TLB over fixed-size pages."""

    def __init__(self, entries: int = 32, assoc: int = 8, page: int = 8192):
        self.page = page
        self.cache = SetAssociativeCache(entries * page, assoc, page)

    def access(self, address: int) -> bool:
        return self.cache.access(address)

    @property
    def misses(self) -> int:
        return self.cache.misses


class MemoryHierarchy:
    """L1D + unified L2 + memory + DTLB with next-line prefetch."""

    def __init__(
        self,
        l1_size: int = 32768,
        l1_assoc: int = 2,
        l1_block: int = 32,
        l2_size: int = 524288,
        l2_assoc: int = 4,
        l2_block: int = 32,
        l2_hit_latency: int = 12,
        memory_latency: int = 120,
        tlb_entries: int = 32,
        tlb_assoc: int = 8,
        page_size: int = 8192,
        tlb_miss_latency: int = 30,
        next_line_prefetch: bool = True,
    ):
        self.l1 = SetAssociativeCache(l1_size, l1_assoc, l1_block)
        self.l2 = _SparseCache(l2_size, l2_assoc, l2_block)
        self.tlb = TLB(tlb_entries, tlb_assoc, page_size)
        self.l2_hit_latency = l2_hit_latency
        self.memory_latency = memory_latency
        self.tlb_miss_latency = tlb_miss_latency
        self.next_line_prefetch = next_line_prefetch

    def access(self, address: int, is_store: bool = False) -> int:
        """Return extra latency beyond the pipelined L1 hit path.

        Write-allocate: stores fill on miss like loads, but their miss
        latency is not charged to the critical path (stores complete at
        retire and are not on the kernels' dependence chains).

        The next-line prefetcher runs on every access (a tagged/stream
        next-line scheme), which is what lets the paper state that it
        "eliminates virtually all data cache misses in the cipher kernel".

        One flat method: the TLB, next-line and L1 lookups work on the
        caches' tag lists directly, with the LRU reorders and counters of
        ``tlb.access``, ``l1.probe`` + ``install`` and ``l1.access`` in
        that order; an L1 miss goes on to ``l2.access``.
        """
        tlb = self.tlb.cache
        page = address // tlb.block
        tags = tlb.sets[page % tlb.num_sets]
        if page in tags:
            if tags[-1] != page:
                tags.remove(page)
                tags.append(page)
            tlb.hits += 1
            extra = 0
        else:
            tlb.misses += 1
            tags.append(page)
            if len(tags) > tlb.assoc:
                del tags[0]
            extra = self.tlb_miss_latency
        l1 = self.l1
        line = address // l1.block
        sets = l1.sets
        if self.next_line_prefetch:
            tags = sets[(line + 1) % l1.num_sets]
            if line + 1 not in tags:
                tags.append(line + 1)
                if len(tags) > l1.assoc:
                    del tags[0]
                self.l2.install(address + l1.block)
        tags = sets[line % l1.num_sets]
        if line in tags:
            if tags[-1] != line:
                tags.remove(line)
                tags.append(line)
            l1.hits += 1
            return 0 if is_store else extra
        l1.misses += 1
        tags.append(line)
        if len(tags) > l1.assoc:
            del tags[0]
        if self.l2.access(address):
            extra += self.l2_hit_latency
        else:
            extra += self.l2_hit_latency + self.memory_latency
        return 0 if is_store else extra

    def warm(self, start: int, length: int) -> None:
        """Install an address range into L1, L2 and the TLB without cost.

        Models data the key-setup code just wrote (S-boxes, round keys): the
        paper's kernels run immediately after setup on the same core, so
        those lines are cache-resident when timing begins.
        """
        block = self.l1.block
        address = start & ~(block - 1)
        while address < start + length:
            self.l1.install(address)
            self.l2.install(address)
            self.tlb.cache.install(address)
            address += block
