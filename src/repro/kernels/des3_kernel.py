"""3DES RISC-A kernel -- the paper's headline slow cipher.

Structure (all verified against the reference implementation in tests):

* **Flat 48-round EDE**: one initial permutation, 16 rounds with key
  schedule 1, 16 with schedule 2 *reversed* (the decrypt direction), 16 with
  schedule 3, one final permutation.
* **Rotated-domain rounds**: both halves are kept rotated left by 7 so every
  expansion chunk of E(R) ^ K lands on a byte-aligned 6-bit field of
  ``u = R ^ k0`` or ``t = ror(R, 4) ^ k1`` -- the same trick the CryptSoft
  code the paper measured uses (with a different rotation constant).  The
  round keys and the combined S-box+P ("SP") tables are pre-rotated to
  match, so rounds are pure XOR/lookup work.
* **Permutations**: at OPT the initial/final permutations (with the domain
  rotation folded in) are XBOX sequences -- 8 XBOX + 7 OR on a 64-bit block,
  the paper's 7-instruction-per-32-bit scheme.  At baseline they are the
  classic five delta-swap (PERM_OP) sequences, ~30 instructions each.
* **S-box lookups**: at OPT, eight replicated 256-entry SP tables indexed
  directly by bytes of u/t (low two index bits don't-care, the paper's
  "replicate SBox entries" scheme).  Table ids 0-3 are scheduled onto the
  four SBox caches; ids 4-7 deliberately use the d-cache path rather than
  thrash a single-tag sector cache.  At baseline, the ``(u >> s) & 0xFC``
  scaled-load idiom against packed 64-entry tables.
"""

from __future__ import annotations

from repro.ciphers.des import key_schedule, permute, sp_tables
from repro.ciphers.des import FINAL_PERMUTATION, INITIAL_PERMUTATION
from repro.ciphers.des3 import TripleDES
from repro.ciphers.modes import CBC
from repro.isa import Imm
from repro.isa import opcodes as op
from repro.isa.builder import SCRATCH_REGS
from repro.isa.program import Program
from repro.kernels.runtime import CipherKernel, Layout
from repro.sim.memory import Memory
from repro.util.bits import MASK32, rotl32

ROT = 7  # domain rotation for byte-aligned chunk extraction

#: (u-or-t, shift) -> S-box index: which SP table each 6-bit window feeds.
U_SBOXES = (0, 6, 4, 2)   # u >> 2, 10, 18, 26
T_SBOXES = (7, 5, 3, 1)   # t >> 2, 10, 18, 26

#: Delta-swap (PERM_OP) decomposition of IP on (l, r); each entry is
#: (operands-swapped?, shift, mask).  FP is the same list reversed (each
#: delta swap is an involution).  Verified against the FIPS tables in tests.
_IP_STEPS = (
    (False, 4, 0x0F0F0F0F),
    (False, 16, 0x0000FFFF),
    (True, 2, 0x33333333),
    (True, 8, 0x00FF00FF),
    (False, 1, 0x55555555),
)


def rotated_sp_tables() -> list[list[int]]:
    """SP tables with outputs pre-rotated into the ROT domain."""
    return [[rotl32(v, ROT) for v in table] for table in sp_tables()]


def rotated_round_keys(subkey48: int) -> tuple[int, int]:
    """Split a 48-bit round key into the (k0, k1) XOR words for u and t."""
    chunks = [(subkey48 >> (42 - 6 * i)) & 0x3F for i in range(8)]
    k0 = (chunks[0] << 2) | (chunks[2] << 26) | (chunks[4] << 18) | (chunks[6] << 10)
    k1 = (chunks[7] << 2) | (chunks[5] << 10) | (chunks[3] << 18) | (chunks[1] << 26)
    return k0, k1


def ede_round_keys(key: bytes) -> list[int]:
    """96 interleaved (k0, k1) words: K1, reversed K2, K3 schedules."""
    schedules = [
        key_schedule(key[0:8]),
        list(reversed(key_schedule(key[8:16]))),
        key_schedule(key[16:24]),
    ]
    words = []
    for schedule in schedules:
        for subkey in schedule:
            words.extend(rotated_round_keys(subkey))
    return words


def _xbox_maps(transform) -> list[int]:
    """Derive the eight XBOX permutation maps realizing ``transform``.

    ``transform`` maps a 64-bit integer to a 64-bit integer and must be a
    pure bit permutation; each map packs eight 6-bit source-bit indices.
    """
    source_of = {}
    for bit in range(64):
        out = transform(1 << bit)
        out_bit = out.bit_length() - 1
        if out != 1 << out_bit:
            raise ValueError("transform is not a bit permutation")
        source_of[out_bit] = bit
    maps = []
    for byte_index in range(8):
        packed = 0
        for j in range(8):
            packed |= source_of[8 * byte_index + j] << (6 * j)
        maps.append(packed)
    return maps


def _ip_rot_transform(q: int) -> int:
    """q-layout block -> rotated-domain (l, r) pair, via the spec IP."""
    left, right = q & MASK32, q >> 32
    y = permute((left << 32) | right, 64, INITIAL_PERMUTATION)
    return (rotl32(y >> 32, ROT) << 32) | rotl32(y & MASK32, ROT)


def _fp_rot_transform(lr: int) -> int:
    """Rotated-domain (l, r) pair -> q-layout ciphertext, via the spec FP."""
    l_rot, r_rot = lr >> 32, lr & MASK32
    x = (rotl32(l_rot, 32 - ROT) << 32) | rotl32(r_rot, 32 - ROT)
    y = permute(x, 64, FINAL_PERMUTATION)
    return ((y & MASK32) << 32) | (y >> 32)


IP_XBOX_MAPS = _xbox_maps(_ip_rot_transform)
FP_XBOX_MAPS = _xbox_maps(_fp_rot_transform)

from repro.isa.grp import grp_controls_for_transform  # noqa: E402

IP_GRP_CONTROLS = grp_controls_for_transform(_ip_rot_transform)
FP_GRP_CONTROLS = grp_controls_for_transform(_fp_rot_transform)


#: Byte offset of the decryption round keys within the key region.
_DECRYPT_KEY_OFFSET = 48 * 8


class TripleDESKernel(CipherKernel):
    name = "3DES"
    block_bytes = 8
    word_order = "be"
    keys_bytes = 2 * 48 * 8

    def __init__(self, key: bytes, features, use_grp: bool = False):
        """``use_grp``: at OPT, code the initial/final permutations with
        Shi & Lee's GRP instruction (6 GRPQs) instead of XBOX sequences
        (8 XBOX + 7 OR) -- the paper's section 7 comparison."""
        super().__init__(key, features)
        self.cipher = TripleDES(key)
        self.use_grp = use_grp
        self.tables_bytes = 8192 if features.has_crypto else 2048

    def reference_encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        return CBC(TripleDES(self.key), iv).encrypt(plaintext)

    def reference_decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        return CBC(TripleDES(self.key), iv).decrypt(ciphertext)

    def write_tables(self, memory: Memory, layout: Layout) -> None:
        tables = rotated_sp_tables()
        if self.features.has_crypto:
            # Eight replicated 256-entry tables, physical order = the
            # byte-lane order of u then t.
            for phys, sbox_index in enumerate(U_SBOXES + T_SBOXES):
                replicated = [tables[sbox_index][x >> 2] for x in range(256)]
                memory.write_words32(layout.tables + 0x400 * phys, replicated)
        else:
            # Eight packed 64-entry tables, 256 bytes apart.
            for i, table in enumerate(tables):
                memory.write_words32(layout.tables + 0x100 * i, table)
        encrypt_keys = ede_round_keys(self.key)
        memory.write_words32(layout.keys, encrypt_keys)
        # EDE decryption = the same 48-round network with the (k0, k1)
        # pairs in fully reversed round order.
        pairs = [encrypt_keys[2 * r : 2 * r + 2] for r in range(48)]
        decrypt_keys = [w for pair in reversed(pairs) for w in pair]
        memory.write_words32(layout.keys + _DECRYPT_KEY_OFFSET, decrypt_keys)

    # -- permutation idioms ---------------------------------------------------

    def _xbox_permute(self, kb, dest, src, maps) -> None:
        """64-bit permutation: 8 x (LDIQ map; XBOX) + 7 OR merges."""
        t_val, t_map = SCRATCH_REGS[0], SCRATCH_REGS[1]
        for byte_index in range(8):
            kb.ldiq(t_map, maps[byte_index], category=op.PERMUTE)
            target = dest if byte_index == 0 else t_val
            kb.xbox(target, src, t_map, byte_index, category=op.PERMUTE)
            if byte_index:
                kb.bis(dest, dest, t_val, category=op.PERMUTE)

    def _hw_permute(self, kb, dest, src, maps, grp_controls) -> None:
        """Dispatch the 64-bit permutation to XBOX or GRP coding."""
        if self.use_grp:
            kb.permute64_grp(dest, src, grp_controls)
        else:
            self._xbox_permute(kb, dest, src, maps)

    def _perm_op(self, kb, a, b, shift, mask_reg) -> None:
        """Delta swap: t = ((a >> n) ^ b) & m; b ^= t; a ^= t << n."""
        t = SCRATCH_REGS[0]
        kb.srl(t, a, Imm(shift), category=op.PERMUTE)
        kb.xor(t, t, b, category=op.PERMUTE)
        kb.and_(t, t, mask_reg, category=op.PERMUTE)
        kb.xor(b, b, t, category=op.PERMUTE)
        kb.sll(t, t, Imm(shift), category=op.PERMUTE)
        kb.xor(a, a, t, category=op.PERMUTE)

    def _permop_sequence(self, kb, xl, xr, steps, mask_regs) -> None:
        for swapped, shift, mask in steps:
            a, b = (xr, xl) if swapped else (xl, xr)
            self._perm_op(kb, a, b, shift, mask_regs[mask])

    # -- S-box round ----------------------------------------------------------

    def _lookup_side(self, kb, xl, word_reg, sboxes, table_ids, bases,
                     sp_base, f, v) -> None:
        """XOR the four SP contributions of one side (u or t) into ``xl``.

        The four contributions are combined as a XOR tree (depth 2 plus the
        fold into ``xl``), the schedule a compiler produces for the C code's
        single eight-way XOR expression.
        """
        targets = (f, v, SCRATCH_REGS[1], SCRATCH_REGS[2])
        if self.features.has_crypto:
            for byte_index in range(4):
                kb.sbox(targets[byte_index], bases[table_ids[byte_index]],
                        word_reg, byte_index=byte_index,
                        table_id=table_ids[byte_index], category=op.SUBST)
        else:
            t = SCRATCH_REGS[0]
            for position, sbox_index in enumerate(sboxes):
                if position == 0:
                    kb.and_(t, word_reg, Imm(0xFC), category=op.SUBST)
                else:
                    kb.srl(t, word_reg, Imm(8 * position), category=op.SUBST)
                    kb.and_(t, t, Imm(0xFC), category=op.SUBST)
                kb.addq(t, t, sp_base, category=op.SUBST)
                kb.ldl(targets[position], t, 0x100 * sbox_index,
                       category=op.SUBST)
        kb.xor(f, f, v, category=op.LOGIC)
        kb.xor(targets[2], targets[2], targets[3], category=op.LOGIC)
        kb.xor(f, f, targets[2], category=op.LOGIC)
        kb.xor(xl, xl, f, category=op.LOGIC)

    def build_program(self, layout: Layout, nblocks: int) -> Program:
        return self._build(layout, nblocks, decrypt=False)

    def build_decrypt_program(self, layout: Layout, nblocks: int) -> Program:
        """Same network against the reversed round-key schedule."""
        return self._build(layout, nblocks, decrypt=True)

    def _build(self, layout: Layout, nblocks: int, decrypt: bool) -> Program:
        kb = self.builder()
        in_ptr, out_ptr, count = kb.regs("in_ptr", "out_ptr", "count")
        k_base = kb.reg("k_base")
        u, t, v, f, kp = kb.regs("u", "t", "v", "f", "kp")
        opt = self.features.has_crypto
        if opt:
            bases = kb.regs(*[f"tb{i}" for i in range(8)])
            sp_base = None
            mask_regs = {}
        else:
            bases = None
            sp_base = kb.reg("sp_base")
            mask_regs = {}
            for _, __, mask in _IP_STEPS:
                if mask not in mask_regs:
                    mask_regs[mask] = kb.reg(f"mask_{mask:08x}")

        kb.ldiq(in_ptr, layout.input)
        kb.ldiq(out_ptr, layout.output)
        kb.ldiq(count, nblocks)
        kb.ldiq(k_base,
                layout.keys + (_DECRYPT_KEY_OFFSET if decrypt else 0))
        if opt:
            for i, base in enumerate(bases):
                kb.ldiq(base, layout.tables + 0x400 * i)
            for table_id in range(8):
                kb.sboxsync(table_id)
        else:
            kb.ldiq(sp_base, layout.tables)
            for mask, reg in mask_regs.items():
                kb.ldiq(reg, mask)

        if opt:
            chain_q = kb.reg("chain_q")
            block_q = kb.reg("block_q")
            lr = kb.reg("lr")
            if decrypt:
                next_chain_q = kb.reg("next_chain_q")
            kb.ldq(chain_q, kb.zero, layout.iv)
        else:
            cl, cr = kb.regs("chain_l", "chain_r")
            left, right = kb.regs("left", "right")
            if decrypt:
                ncl, ncr = kb.regs("next_cl", "next_cr")
            kb.ldl(cl, kb.zero, layout.iv)
            kb.ldl(cr, kb.zero, layout.iv + 4)

        kb.label("block_loop")
        if opt:
            kb.ldq(block_q, in_ptr, 0)
            if decrypt:
                kb.mov(next_chain_q, block_q)
            else:
                kb.xor(block_q, block_q, chain_q)
            # IP with the rot-7 domain folded in: lr = (l_rot<<32) | r_rot.
            self._hw_permute(kb, lr, block_q, IP_XBOX_MAPS, IP_GRP_CONTROLS)
            xl, xr = kb.reg("l32"), kb.reg("r32")
            kb.srl(xl, lr, Imm(32), category=op.PERMUTE)
            kb.addl(xr, lr, Imm(0), category=op.PERMUTE)
        else:
            kb.ldl(left, in_ptr, 0)
            kb.ldl(right, in_ptr, 4)
            if decrypt:
                kb.mov(ncl, left)
                kb.mov(ncr, right)
            else:
                kb.xor(left, left, cl)
                kb.xor(right, right, cr)
            self._permop_sequence(kb, left, right, _IP_STEPS, mask_regs)
            # Rotate both halves into the lookup domain.
            kb.rotl32(left, left, ROT)
            kb.rotl32(right, right, ROT)
            xl, xr = left, right

        for round_index in range(48):
            kb.ldl(kp, k_base, 8 * round_index)
            kb.xor(u, xr, kp, category=op.LOGIC)
            kb.rotr32(t, xr, 4)
            kb.ldl(kp, k_base, 8 * round_index + 4)
            kb.xor(t, t, kp, category=op.LOGIC)
            self._lookup_side(kb, xl, u, U_SBOXES, (0, 1, 2, 3), bases,
                              sp_base, f, v)
            self._lookup_side(kb, xl, t, T_SBOXES, (4, 5, 6, 7), bases,
                              sp_base, f, v)
            if round_index % 16 != 15:
                xl, xr = xr, xl
            # At a 16-round stage boundary the final swap is undone, which
            # cancels: keep (xl, xr) as-is.

        if opt:
            kb.sll(lr, xl, Imm(32), category=op.PERMUTE)
            kb.bis(lr, lr, xr, category=op.PERMUTE)
            self._hw_permute(kb, block_q, lr, FP_XBOX_MAPS, FP_GRP_CONTROLS)
            if decrypt:
                kb.xor(block_q, block_q, chain_q)
                kb.stq(block_q, out_ptr, 0)
                kb.mov(chain_q, next_chain_q)
            else:
                kb.stq(block_q, out_ptr, 0)
                kb.mov(chain_q, block_q)
        else:
            kb.rotr32(xl, xl, ROT)
            kb.rotr32(xr, xr, ROT)
            self._permop_sequence(kb, xl, xr, tuple(reversed(_IP_STEPS)),
                                  mask_regs)
            if decrypt:
                kb.xor(xl, xl, cl)
                kb.xor(xr, xr, cr)
                kb.stl(xl, out_ptr, 0)
                kb.stl(xr, out_ptr, 4)
                kb.mov(cl, ncl)
                kb.mov(cr, ncr)
            else:
                kb.stl(xl, out_ptr, 0)
                kb.stl(xr, out_ptr, 4)
                kb.mov(cl, xl)
                kb.mov(cr, xr)

        kb.addq(in_ptr, in_ptr, Imm(8))
        kb.addq(out_ptr, out_ptr, Imm(8))
        kb.subq(count, count, Imm(1))
        kb.bne(count, "block_loop")
        kb.halt()
        return kb.build()
