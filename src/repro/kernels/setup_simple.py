"""Setup kernels for RC4, IDEA, RC6, Rijndael and Blowfish.

Blowfish is the paper's Figure 6 outlier: its setup runs the full encryption
kernel 521 times (the cost of encrypting ~8 KB), so its curve only drops
below 10% setup overhead past 64 KB sessions.  The other four are loops of
ordinary arithmetic over the raw key.
"""

from __future__ import annotations

from repro.ciphers.blowfish import Blowfish
from repro.ciphers.idea import expand_key as idea_expand
from repro.ciphers.rc4 import RC4
from repro.ciphers.rc6 import RC6, ROUNDS as RC6_ROUNDS
from repro.ciphers.rijndael import Rijndael, t_tables
from repro.isa import opcodes as op
from repro.isa.builder import Imm, SCRATCH_REGS
from repro.isa.program import Program
from repro.kernels.runtime import Layout, pack_words_be
from repro.kernels.setup_base import KEY_INPUT, STATIC_BASE, SetupKernel
from repro.sim.memory import Memory
from repro.util.pi import pi_hex_words


class RC4Setup(SetupKernel):
    """RC4 KSA: identity fill then 256 key-driven swaps."""

    name = "RC4"

    def stage_inputs(self, memory: Memory, layout: Layout) -> None:
        memory.write_bytes(KEY_INPUT, self.key)

    def expected_regions(self, layout: Layout) -> list[tuple[int, bytes]]:
        state = RC4(self.key)._state
        expected = b"".join(v.to_bytes(4, "little") for v in state)
        return [(layout.tables, expected)]

    def build_program(self, layout: Layout) -> Program:
        kb = self.builder()
        s_base, key_base = kb.regs("s_base", "key_base")
        i, j, si, sj, kv, addr_i, addr_j = kb.regs(
            "i", "j", "si", "sj", "kv", "addr_i", "addr_j"
        )
        count = kb.reg("count")
        kb.ldiq(s_base, layout.tables)
        kb.ldiq(key_base, KEY_INPUT)
        # S[i] = i.
        kb.ldiq(i, 0)
        kb.ldiq(count, 256)
        kb.label("fill")
        kb.s4addq(addr_i, i, s_base)
        kb.stl(i, addr_i, 0)
        kb.addl(i, i, Imm(1))
        kb.subq(count, count, Imm(1))
        kb.bne(count, "fill")
        # Key-scheduling swaps.
        kb.ldiq(i, 0)
        kb.ldiq(j, 0)
        kb.ldiq(count, 256)
        kb.label("ksa")
        kb.s4addq(addr_i, i, s_base)
        kb.ldl(si, addr_i, 0)
        kb.and_(kv, i, Imm(len(self.key) - 1))  # key length is a power of two
        kb.addq(kv, kv, key_base)
        kb.ldbu(kv, kv, 0)
        kb.addl(j, j, si, category=op.ARITH)
        kb.addl(j, j, kv, category=op.ARITH)
        kb.and_(j, j, Imm(0xFF))
        kb.s4addq(addr_j, j, s_base)
        kb.ldl(sj, addr_j, 0)
        kb.stl(sj, addr_i, 0)
        kb.stl(si, addr_j, 0)
        kb.addl(i, i, Imm(1))
        kb.subq(count, count, Imm(1))
        kb.bne(count, "ksa")
        kb.halt()
        return kb.build()


class IDEASetup(SetupKernel):
    """IDEA key expansion: 16-bit slices under 25-bit key rotations."""

    name = "IDEA"

    def stage_inputs(self, memory: Memory, layout: Layout) -> None:
        # Two 64-bit big-endian halves (LDQ-loadable after byte reversal).
        memory.write_bytes(KEY_INPUT, self.key[:8][::-1] + self.key[8:][::-1])

    def expected_regions(self, layout: Layout) -> list[tuple[int, bytes]]:
        expected = b"".join(
            k.to_bytes(2, "little") for k in idea_expand(self.key)
        )
        return [(layout.keys, expected)]

    def build_program(self, layout: Layout) -> Program:
        kb = self.builder()
        hi, lo, t0, t1, out = kb.regs("hi", "lo", "t0", "t1", "out")
        kb.ldq(hi, kb.zero, KEY_INPUT)
        kb.ldq(lo, kb.zero, KEY_INPUT + 8)
        kb.ldiq(out, layout.keys)
        produced = 0
        while produced < 52:
            batch = min(8, 52 - produced)
            for slot in range(batch):
                source, shift = (hi, 48 - 16 * slot) if slot < 4 else (
                    lo, 48 - 16 * (slot - 4)
                )
                if shift:
                    kb.srl(t0, source, Imm(shift), category=op.ARITH)
                    kb.stw(t0, out, 2 * (produced + slot))
                else:
                    kb.stw(source, out, 2 * (produced + slot))
            produced += batch
            if produced >= 52:
                break
            # Rotate the 128-bit key left by 25: hi' = hi<<25 | lo>>39, etc.
            kb.sll(t0, hi, Imm(25), category=op.ROTATE)
            kb.srl(t1, lo, Imm(39), category=op.ROTATE)
            kb.bis(t0, t0, t1, category=op.ROTATE)
            kb.sll(t1, lo, Imm(25), category=op.ROTATE)
            kb.srl(lo, hi, Imm(39), category=op.ROTATE)
            kb.bis(lo, t1, lo, category=op.ROTATE)
            kb.mov(hi, t0)
        kb.halt()
        return kb.build()


class RC6Setup(SetupKernel):
    """RC5/RC6 schedule: magic-constant fill + 132 mixing iterations."""

    name = "RC6"

    def stage_inputs(self, memory: Memory, layout: Layout) -> None:
        memory.write_bytes(KEY_INPUT, self.key)  # little-endian words

    def expected_regions(self, layout: Layout) -> list[tuple[int, bytes]]:
        expected = b"".join(
            w.to_bytes(4, "little") for w in RC6(self.key)._round_keys
        )
        return [(layout.keys, expected)]

    def build_program(self, layout: Layout) -> Program:
        kb = self.builder()
        s_base, l_base = kb.regs("s_base", "l_base")
        a, b, val, amt, count = kb.regs("a", "b", "val", "amt", "count")
        i_ptr, j_ptr, s_end, l_end = kb.regs("i_ptr", "j_ptr", "s_end", "l_end")
        q_reg = kb.reg("q")
        t_words = 2 * RC6_ROUNDS + 4
        kb.ldiq(s_base, layout.keys)
        kb.ldiq(l_base, KEY_INPUT)
        # S[0] = P32; S[i] = S[i-1] + Q32.
        kb.ldiq(val, 0xB7E15163)
        kb.ldiq(q_reg, 0x9E3779B9)
        kb.ldiq(count, t_words)
        kb.mov(i_ptr, s_base)
        kb.label("fill")
        kb.stl(val, i_ptr, 0)
        kb.addl(val, val, q_reg, category=op.ARITH)
        kb.addq(i_ptr, i_ptr, Imm(4))
        kb.subq(count, count, Imm(1))
        kb.bne(count, "fill")
        # Mixing: 3 * max(c, t) = 132 iterations over S and L cyclically.
        kb.ldiq(a, 0)
        kb.ldiq(b, 0)
        kb.mov(i_ptr, s_base)
        kb.mov(j_ptr, l_base)
        kb.ldiq(s_end, layout.keys + 4 * t_words)
        kb.ldiq(l_end, KEY_INPUT + len(self.key))
        kb.ldiq(count, 3 * t_words)
        kb.label("mix")
        kb.ldl(val, i_ptr, 0)
        kb.addl(val, val, a, category=op.ARITH)
        kb.addl(val, val, b, category=op.ARITH)
        kb.rotl32(a, val, 3)
        kb.stl(a, i_ptr, 0)
        kb.ldl(val, j_ptr, 0)
        kb.addl(amt, a, b, category=op.ARITH)
        kb.addl(val, val, amt, category=op.ARITH)
        kb.rotl32_var(b, val, amt)
        kb.stl(b, j_ptr, 0)
        # Advance cyclic pointers.
        kb.addq(i_ptr, i_ptr, Imm(4))
        kb.cmpult(val, i_ptr, s_end)
        kb.cmoveq(i_ptr, val, s_base)  # wrap when past the end
        kb.addq(j_ptr, j_ptr, Imm(4))
        kb.cmpult(val, j_ptr, l_end)
        kb.cmoveq(j_ptr, val, l_base)
        kb.subq(count, count, Imm(1))
        kb.bne(count, "mix")
        kb.halt()
        return kb.build()


class RijndaelSetup(SetupKernel):
    """AES-128 key expansion, S-box drawn from byte 2 of the static T0 table."""

    name = "Rijndael"

    def stage_inputs(self, memory: Memory, layout: Layout) -> None:
        memory.write_bytes(KEY_INPUT, pack_words_be(self.key))
        memory.write_words32(STATIC_BASE, list(t_tables()[0]))

    def expected_regions(self, layout: Layout) -> list[tuple[int, bytes]]:
        expected = b"".join(
            w.to_bytes(4, "little") for w in Rijndael(self.key)._round_keys
        )
        return [(layout.keys, expected)]

    def _subword(self, kb, dest, src, t0_base, acc, t) -> None:
        """dest = SubWord(src): four S-box substitutions via T0's byte 2."""
        for byte_index in range(4):
            kb.extbl(t, src, Imm(byte_index), category=op.SUBST)
            kb.s4addq(t, t, t0_base, category=op.SUBST)
            kb.ldl(t, t, 0, category=op.SUBST)
            kb.extbl(t, t, Imm(2), category=op.SUBST)
            kb.insbl(t, t, Imm(byte_index), category=op.SUBST)
            if byte_index == 0:
                kb.mov(acc, t, category=op.SUBST)
            else:
                kb.bis(acc, acc, t, category=op.SUBST)
        kb.mov(dest, acc)

    def build_program(self, layout: Layout) -> Program:
        from repro.util.gf import GF2_8

        kb = self.builder()
        t0_base, out = kb.regs("t0_base", "out")
        w = kb.regs("w0", "w1", "w2", "w3")
        temp, acc, t = kb.regs("temp", "acc", "t")
        kb.ldiq(t0_base, STATIC_BASE)
        kb.ldiq(out, layout.keys)
        for i in range(4):
            kb.ldl(w[i], kb.zero, KEY_INPUT + 4 * i)
            kb.stl(w[i], out, 4 * i)
        field = GF2_8()
        rcon = 1
        for group in range(10):
            kb.rotl32(temp, w[3], 8)
            self._subword(kb, temp, temp, t0_base, acc, t)
            kb.ldiq(t, rcon << 24)
            kb.xor(temp, temp, t, category=op.LOGIC)
            rcon = field.mul(rcon, 2)
            kb.xor(w[0], w[0], temp, category=op.LOGIC)
            kb.xor(w[1], w[1], w[0], category=op.LOGIC)
            kb.xor(w[2], w[2], w[1], category=op.LOGIC)
            kb.xor(w[3], w[3], w[2], category=op.LOGIC)
            for i in range(4):
                kb.stl(w[i], out, 4 * (4 * (group + 1) + i))
        kb.halt()
        return kb.build()


class BlowfishSetup(SetupKernel):
    """Blowfish setup: key-XOR into P, then 521 chained kernel encryptions."""

    name = "Blowfish"

    def stage_inputs(self, memory: Memory, layout: Layout) -> None:
        # pi-initial tables; the routine overwrites them in place.
        words = pi_hex_words(18 + 1024)
        memory.write_words32(layout.keys, words[:18])
        for i in range(4):
            memory.write_words32(
                layout.tables + 0x400 * i, words[18 + 256 * i : 18 + 256 * (i + 1)]
            )
        memory.write_bytes(KEY_INPUT, pack_words_be(self.key))

    def expected_regions(self, layout: Layout) -> list[tuple[int, bytes]]:
        cipher = Blowfish(self.key)
        regions = [
            (layout.keys,
             b"".join(w.to_bytes(4, "little") for w in cipher.p_array))
        ]
        for i, sbox in enumerate(cipher.sboxes):
            regions.append(
                (layout.tables + 0x400 * i,
                 b"".join(w.to_bytes(4, "little") for w in sbox))
            )
        return regions

    def _encrypt_inline(self, kb, xl, xr, p_base, s_bases, kp, fa, fb) -> None:
        """One inlined 16-round Blowfish encryption; result back in (xl, xr).

        Output block = (loop-end right ^ P17, loop-end left ^ P16); a final
        three-move swap puts the halves back in their loop-invariant
        registers so the surrounding fill loop can repeat this body.
        """
        from repro.isa.builder import SCRATCH_REGS

        regs = [xl, xr]
        for round_index in range(16):
            kb.ldl(kp, p_base, 4 * round_index)
            kb.xor(regs[0], regs[0], kp, category=op.LOGIC)
            kb.sbox_lookup(fa, s_bases[0], regs[0], 3, 0)
            kb.sbox_lookup(fb, s_bases[1], regs[0], 2, 1)
            kb.addl(fa, fa, fb, category=op.ARITH)
            kb.sbox_lookup(fb, s_bases[2], regs[0], 1, 2)
            kb.xor(fa, fa, fb, category=op.LOGIC)
            kb.sbox_lookup(fb, s_bases[3], regs[0], 0, 3)
            kb.addl(fa, fa, fb, category=op.ARITH)
            kb.xor(regs[1], regs[1], fa, category=op.LOGIC)
            regs.reverse()
        # regs == [xl, xr] again (even number of swaps).
        kb.ldl(kp, p_base, 4 * 16)
        kb.xor(xl, xl, kp, category=op.LOGIC)   # loop-end left -> output right
        kb.ldl(kp, p_base, 4 * 17)
        kb.xor(xr, xr, kp, category=op.LOGIC)   # loop-end right -> output left
        t = SCRATCH_REGS[0]
        kb.mov(t, xl)
        kb.mov(xl, xr)
        kb.mov(xr, t)

    def build_program(self, layout: Layout) -> Program:
        kb = self.builder()
        p_base = kb.reg("p_base")
        s_bases = kb.regs("s0", "s1", "s2", "s3")
        xl, xr, kp, fa, fb = kb.regs("l", "r", "kp", "fa", "fb")
        kw = kb.regs("kw0", "kw1", "kw2", "kw3")
        ptr, end = kb.regs("ptr", "end")

        kb.ldiq(p_base, layout.keys)
        for i, base in enumerate(s_bases):
            kb.ldiq(base, layout.tables + 0x400 * i)
        for i in range(4):
            kb.ldl(kw[i], kb.zero, KEY_INPUT + 4 * i)
        # P[i] ^= key words (cyclic; 16-byte key -> period 4), unrolled.
        for i in range(18):
            kb.ldl(kp, p_base, 4 * i)
            kb.xor(kp, kp, kw[i % 4], category=op.LOGIC)
            kb.stl(kp, p_base, 4 * i)
        # Fill P then S with chained encryptions of the zero block.
        kb.ldiq(xl, 0)
        kb.ldiq(xr, 0)
        kb.mov(ptr, p_base)
        kb.ldiq(end, layout.keys + 4 * 18)
        kb.label("fill_p")
        self._encrypt_inline(kb, xl, xr, p_base, s_bases, kp, fa, fb)
        kb.stl(xl, ptr, 0)
        kb.stl(xr, ptr, 4)
        kb.addq(ptr, ptr, Imm(8))
        kb.cmpult(fa, ptr, end)
        kb.bne(fa, "fill_p")
        kb.ldiq(ptr, layout.tables)
        kb.ldiq(end, layout.tables + 4 * 1024)
        kb.label("fill_s")
        self._encrypt_inline(kb, xl, xr, p_base, s_bases, kp, fa, fb)
        kb.stl(xl, ptr, 0)
        kb.stl(xr, ptr, 4)
        kb.addq(ptr, ptr, Imm(8))
        kb.cmpult(fa, ptr, end)
        kb.bne(fa, "fill_s")
        kb.halt()
        return kb.build()
