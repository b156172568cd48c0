"""Tests for the command-line tools."""

import pytest

from repro.tools import crypt, kernelbench, riscasim


def test_crypt_roundtrip(tmp_path, capsys):
    source = tmp_path / "message.bin"
    encrypted = tmp_path / "ct.bin"
    recovered = tmp_path / "pt.bin"
    source.write_bytes(b"sixteen byte msg" * 4)
    key = "00" * 16
    iv = "00" * 16
    assert crypt.main(["encrypt", "--cipher", "Twofish", "--key", key,
                       "--iv", iv, str(source), str(encrypted)]) == 0
    assert crypt.main(["decrypt", "--cipher", "Twofish", "--key", key,
                       "--iv", iv, str(encrypted), str(recovered)]) == 0
    assert recovered.read_bytes() == source.read_bytes()
    assert encrypted.read_bytes() != source.read_bytes()


def test_crypt_pads_partial_blocks(tmp_path):
    source = tmp_path / "m.bin"
    out = tmp_path / "c.bin"
    source.write_bytes(b"short")
    crypt.main(["encrypt", "--cipher", "Blowfish", "--key", "00" * 16,
                str(source), str(out)])
    assert len(out.read_bytes()) == 8


def test_crypt_stream_cipher(tmp_path):
    source = tmp_path / "m.bin"
    out = tmp_path / "c.bin"
    back = tmp_path / "p.bin"
    source.write_bytes(b"odd-length payload!")
    key = "11" * 16
    crypt.main(["encrypt", "--cipher", "RC4", "--key", key,
                str(source), str(out)])
    crypt.main(["decrypt", "--cipher", "RC4", "--key", key,
                str(out), str(back)])
    assert back.read_bytes() == source.read_bytes()


def test_crypt_bad_iv(tmp_path):
    source = tmp_path / "m.bin"
    source.write_bytes(bytes(16))
    with pytest.raises(SystemExit):
        crypt.main(["encrypt", "--cipher", "Twofish", "--key", "00" * 16,
                    "--iv", "0011", str(source), str(source)])


def test_riscasim_run_and_dump(tmp_path, capsys):
    program = tmp_path / "p.s"
    program.write_text("""
    ldiq r1, 7
    stq r1, 0x400(r31)
    halt
    """)
    assert riscasim.main([str(program), "--dump", "0x400:8"]) == 0
    output = capsys.readouterr().out
    assert "instructions" in output
    assert "0700000000000000" in output


def test_riscasim_listing(tmp_path, capsys):
    program = tmp_path / "p.s"
    program.write_text("start: addq r1, r2, r3\nhalt\n")
    riscasim.main([str(program), "--list"])
    assert "addq r1" in capsys.readouterr().out


def test_riscasim_view_and_bottlenecks(tmp_path, capsys):
    program = tmp_path / "p.s"
    program.write_text("""
    ldiq r1, 10
loop:
    addq r2, r2, #1
    subq r1, r1, #1
    bne r1, loop
    halt
    """)
    riscasim.main([str(program), "--view", "0:10", "--bottlenecks"])
    output = capsys.readouterr().out
    assert "rel-to-DF" in output
    assert "mean_wait_cycles" in output


@pytest.fixture
def code_caches():
    """Both code caches, emptied after the test: they live for the whole
    process."""
    from repro.sim.backends import compiled
    from repro.sim.timing import specialized

    caches = (compiled.CODE, specialized.CODE)
    yield caches
    for cache in caches:
        cache.clear()


def test_riscasim_explain_prints_every_code_cache(capsys, code_caches):
    """``--explain`` needs no stack flag.  On the default stack, RC4 at
    2 KiB (about 40k entries, past 800 x 27) tiers its 4W pipeline up
    and the interpreter generates nothing per program; on the generic
    engine neither cache generates anything."""
    args = ["--cipher", "RC4", "--session-bytes", "2048", "--no-cache",
            "--explain"]
    generic = ["--timing-engine", "generic"]
    for extra, timing in (([], "1 function(s),"),
                          (generic, "nothing generated")):
        for cache in code_caches:
            cache.clear()
        assert riscasim.main([*args, *extra]) == 0
        output = capsys.readouterr().out
        assert "compiled backend: nothing generated in this process" in output
        assert f"timing block schedulers: {timing}" in output
        assert output.count(" 4W attr ") == (0 if extra else 1)


def test_kernelbench_encrypt_and_decrypt(capsys):
    assert kernelbench.main(["--cipher", "RC6", "--session", "128",
                             "--configs", "4W", "DF"]) == 0
    output = capsys.readouterr().out
    assert "RC6 [opt] encrypt" in output
    assert "4W" in output and "DF" in output

    assert kernelbench.main(["--cipher", "RC6", "--session", "128",
                             "--decrypt"]) == 0
    assert "decrypt" in capsys.readouterr().out
