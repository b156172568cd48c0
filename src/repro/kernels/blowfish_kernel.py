"""Blowfish RISC-A kernel.

Structure of the optimized C implementation the paper measured: the 16
Feistel rounds are fully unrolled, the half swaps are register renaming
(free), the P-array is loaded per round, and the F-function is four S-box
lookups combined with two 32-bit adds and an XOR.  The chaining vector lives
in registers across the whole CBC session.

Feature levels change only the S-box access idiom: three instructions
(extract byte / scaled add / load, 5 cycles) at baseline versus one SBOX
instruction at OPT (2 cycles via a d-cache port on 4W, 1 cycle via an SBox
cache on 4W+).  Blowfish barely uses rotates, so ROT == NOROT here.
"""

from __future__ import annotations

from repro.ciphers.blowfish import Blowfish
from repro.ciphers.modes import CBC
from repro.isa import Imm
from repro.isa import opcodes as op
from repro.isa.program import Program
from repro.kernels.runtime import CipherKernel, Layout
from repro.sim.memory import Memory


class BlowfishKernel(CipherKernel):
    name = "Blowfish"
    block_bytes = 8
    word_order = "be"

    def __init__(self, key: bytes, features):
        super().__init__(key, features)
        self.cipher = Blowfish(key)

    def reference_encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        return CBC(Blowfish(self.key), iv).encrypt(plaintext)

    def reference_decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        return CBC(Blowfish(self.key), iv).decrypt(ciphertext)

    def write_tables(self, memory: Memory, layout: Layout) -> None:
        for i, sbox in enumerate(self.cipher.sboxes):
            memory.write_words32(layout.tables + 0x400 * i, sbox)
        memory.write_words32(layout.keys, self.cipher.p_array)

    def build_program(self, layout: Layout, nblocks: int) -> Program:
        return self._build(layout, nblocks, decrypt=False)

    def build_decrypt_program(self, layout: Layout, nblocks: int) -> Program:
        """Decryption is the same network with the P-array walked backward."""
        return self._build(layout, nblocks, decrypt=True)

    def _build(self, layout: Layout, nblocks: int, decrypt: bool) -> Program:
        kb = self.builder()
        in_ptr, out_ptr, count = kb.regs("in_ptr", "out_ptr", "count")
        p_base = kb.reg("p_base")
        s_bases = kb.regs("s0", "s1", "s2", "s3")
        cl, cr = kb.regs("chain_l", "chain_r")
        left, right = kb.regs("left", "right")
        kp, fa, fb = kb.regs("kp", "fa", "fb")
        if decrypt:
            # Decryption chains with the *ciphertext* block, kept aside.
            ncl, ncr = kb.regs("next_cl", "next_cr")
        round_p = (
            [17 - i for i in range(16)] if decrypt else list(range(16))
        )
        whitening_r, whitening_l = (1, 0) if decrypt else (16, 17)

        kb.ldiq(in_ptr, layout.input)
        kb.ldiq(out_ptr, layout.output)
        kb.ldiq(count, nblocks)
        kb.ldiq(p_base, layout.keys)
        for i, base in enumerate(s_bases):
            kb.ldiq(base, layout.tables + 0x400 * i)
        kb.ldl(cl, kb.zero, layout.iv)
        kb.ldl(cr, kb.zero, layout.iv + 4)
        if self.features.has_crypto:
            for table_id in range(4):
                kb.sboxsync(table_id)

        kb.label("block_loop")
        kb.ldl(left, in_ptr, 0)
        kb.ldl(right, in_ptr, 4)
        if decrypt:
            kb.mov(ncl, left)
            kb.mov(ncr, right)
        else:
            kb.xor(left, left, cl)
            kb.xor(right, right, cr)

        # 16 unrolled rounds; the half swap is register renaming.
        xl, xr = left, right
        for p_index in round_p:
            kb.ldl(kp, p_base, 4 * p_index)
            kb.xor(xl, xl, kp, category=op.LOGIC)
            # F(xl) = ((S0[a] + S1[b]) ^ S2[c]) + S3[d], a = top byte.
            kb.sbox_lookup(fa, s_bases[0], xl, byte_index=3, table_id=0)
            kb.sbox_lookup(fb, s_bases[1], xl, byte_index=2, table_id=1)
            kb.addl(fa, fa, fb, category=op.ARITH)
            kb.sbox_lookup(fb, s_bases[2], xl, byte_index=1, table_id=2)
            kb.xor(fa, fa, fb, category=op.LOGIC)
            kb.sbox_lookup(fb, s_bases[3], xl, byte_index=0, table_id=3)
            kb.addl(fa, fa, fb, category=op.ARITH)
            kb.xor(xr, xr, fa, category=op.LOGIC)
            xl, xr = xr, xl
        # Undo the final swap, then the output whitening XORs.
        xl, xr = xr, xl
        kb.ldl(kp, p_base, 4 * whitening_r)
        kb.xor(xr, xr, kp)
        kb.ldl(kp, p_base, 4 * whitening_l)
        kb.xor(xl, xl, kp)

        if decrypt:
            kb.xor(xl, xl, cl)
            kb.xor(xr, xr, cr)
            kb.stl(xl, out_ptr, 0)
            kb.stl(xr, out_ptr, 4)
            kb.mov(cl, ncl)
            kb.mov(cr, ncr)
        else:
            # Ciphertext block = (left ^ P17, right ^ P16); it is also the
            # next block's CBC chain.
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
