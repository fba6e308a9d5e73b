"""EELF images: serialization round-trips and the linker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.binfmt import (
    Image,
    LinkError,
    Relocation,
    Section,
    Symbol,
    link,
    read_image,
    write_image,
)
from repro.binfmt.image import SEC_EXEC, SEC_NOBITS, SEC_WRITE
from repro.binfmt.serialize import FormatError, image_from_bytes, \
    image_to_bytes
from repro.core.executable import Executable, ExecutableError


def _sample_image():
    image = Image("sparc", kind="exec", entry=0x1000)
    text = Section(".text", vaddr=0x1000, flags=SEC_EXEC)
    text.append_word(0x01000000)
    text.append_word(0xDEADBEEF)
    image.add_section(text)
    data = Section(".data", vaddr=0x2000, flags=SEC_WRITE,
                   data=bytearray(b"hello world\x00"))
    image.add_section(data)
    bss = Section(".bss", vaddr=0x3000, flags=SEC_WRITE | SEC_NOBITS)
    bss.nobits_size = 64
    image.add_section(bss)
    image.add_symbol(Symbol("main", 0x1000, kind="func"))
    image.add_symbol(Symbol("buffer", 0x3000, kind="object",
                            binding="local", section=".bss"))
    return image


def test_roundtrip_bytes():
    image = _sample_image()
    back = image_from_bytes(image_to_bytes(image))
    assert back.arch == "sparc"
    assert back.entry == 0x1000
    assert back.get_section(".text").word_at(0x1004) == 0xDEADBEEF
    assert back.get_section(".data").data == image.get_section(".data").data
    assert back.get_section(".bss").size == 64
    assert back.find_symbol("main").value == 0x1000
    assert back.find_symbol("buffer").binding == "local"


def test_roundtrip_file(tmp_path):
    path = str(tmp_path / "a.out")
    write_image(_sample_image(), path)
    back = read_image(path)
    assert back.find_symbol("main") is not None


def test_bad_magic():
    with pytest.raises(FormatError):
        image_from_bytes(b"NOPE" + b"\x00" * 64)


def test_truncated():
    blob = image_to_bytes(_sample_image())
    with pytest.raises(FormatError):
        image_from_bytes(blob[: len(blob) // 2])


def test_section_queries():
    image = _sample_image()
    assert image.section_at(0x1004).name == ".text"
    assert image.section_at(0x2003).name == ".data"
    assert image.section_at(0x9999) is None
    assert image.word_at(0x1000) == 0x01000000
    with pytest.raises(KeyError):
        image.word_at(0x3000)  # .bss has no file bytes


def test_strip_and_hide():
    image = _sample_image()
    image.hide_symbols(["main"])
    assert image.find_symbol("main") is None
    assert image.find_symbol("buffer") is not None
    image.strip()
    assert not image.symbols


def test_relocation_roundtrip():
    image = Image("sparc", kind="obj")
    text = Section(".text", flags=SEC_EXEC)
    text.append_word(0)
    image.add_section(text)
    image.add_relocation(".text", Relocation(0, "HI22", "foo", 4))
    back = image_from_bytes(image_to_bytes(image))
    reloc = back.relocations[".text"][0]
    assert (reloc.kind, reloc.symbol, reloc.addend) == ("HI22", "foo", 4)


@given(st.binary(min_size=0, max_size=64),
       st.integers(min_value=0, max_value=0xFFFFFFF0))
def test_roundtrip_arbitrary_data(data, entry):
    image = Image("mips", kind="exec", entry=entry)
    section = Section(".data", vaddr=0x2000, flags=SEC_WRITE,
                      data=bytearray(data))
    image.add_section(section)
    back = image_from_bytes(image_to_bytes(image))
    assert bytes(back.get_section(".data").data) == data
    assert back.entry == entry


# ----------------------------------------------------------------------
# Malformed input: FormatError and nothing else
# ----------------------------------------------------------------------

_BLOB = image_to_bytes(_sample_image())


@given(st.data())
def test_truncation_raises_format_error(data):
    """Every strict prefix of an encoding promises bytes it lacks."""
    cut = data.draw(st.integers(min_value=0, max_value=len(_BLOB) - 1))
    with pytest.raises(FormatError):
        image_from_bytes(_BLOB[:cut])


@given(st.one_of(st.binary(max_size=256),
                 st.binary(max_size=256).map(lambda tail: _BLOB[:6] + tail)))
def test_garbage_never_raises_anything_else(blob):
    try:
        image_from_bytes(blob)
    except FormatError:
        pass


@given(st.data())
@settings(max_examples=200)
def test_bitflips_never_raise_anything_else(data):
    """Flipped bytes decode or raise FormatError; an image that decodes
    opens as an Executable or raises ExecutableError (e.g. an unknown
    architecture string)."""
    blob = bytearray(_BLOB)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        image = image_from_bytes(bytes(blob))
    except FormatError:
        return
    try:
        Executable(image)
    except ExecutableError:
        pass


def test_unknown_arch_is_an_executable_error():
    with pytest.raises(ExecutableError):
        Executable(Image("vax", kind="exec"))


# ----------------------------------------------------------------------
# Linker
# ----------------------------------------------------------------------

def test_link_two_objects():
    a = assemble("""
        .text
        .global _start
    _start:
        call helper
        nop
        mov 1, %g1
        ta 0
    """, "sparc")
    b = assemble("""
        .text
        .global helper
    helper:
        retl
        nop
    """, "sparc")
    image = link([a, b])
    assert image.entry == image.find_symbol("_start").value
    helper = image.find_symbol("helper")
    # The call displacement must reach helper.
    from repro.isa import get_codec

    codec = get_codec("sparc")
    start = image.find_symbol("_start").value
    call = codec.decode(image.word_at(start))
    assert codec.control_target(call, start) == helper.value


def test_link_data_and_bss_layout():
    obj = assemble("""
        .text
        .global _start
    _start:
        nop
        .data
    d:  .word 7
        .bss
    b:  .space 16
    """, "sparc")
    image = link([obj])
    text = image.get_section(".text")
    data = image.get_section(".data")
    bss = image.get_section(".bss")
    assert text.vaddr < data.vaddr < bss.vaddr
    assert data.word_at(image.find_symbol("d").value) == 7
    assert bss.size >= 16


def test_link_word_relocation():
    obj = assemble("""
        .text
        .global _start
    _start:
        nop
    target:
        nop
        .data
    tbl: .word target, target+4
    """, "sparc")
    image = link([obj])
    target = image.find_symbol("target").value
    table = image.find_symbol("tbl").value
    assert image.word_at(table) == target
    assert image.word_at(table + 4) == target + 4


def test_link_undefined_symbol():
    obj = assemble("""
        .text
        .global _start
    _start:
        call nowhere
        nop
    """, "sparc")
    with pytest.raises(LinkError):
        link([obj])


def test_link_duplicate_global():
    a = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    b = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    with pytest.raises(LinkError):
        link([a, b])


def test_link_missing_entry():
    obj = assemble(".text\n.global foo\nfoo: nop\n", "sparc")
    with pytest.raises(LinkError):
        link([obj])


def test_link_mixed_arch():
    a = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    b = assemble(".text\n.global x\nx: nop\n", "mips")
    with pytest.raises(LinkError):
        link([a, b])


def test_local_symbol_wins_over_global():
    # Each object's local label resolves within the object.
    a = assemble("""
        .text
        .global _start
    _start:
        b near
        nop
    near:
        nop
    """, "sparc")
    b = assemble("""
        .text
        .global near
    near:
        nop
    """, "sparc")
    image = link([a, b])
    from repro.isa import get_codec

    codec = get_codec("sparc")
    start = image.find_symbol("_start").value
    branch = codec.decode(image.word_at(start))
    # Branch goes to the local 'near' (start + 8), not the global one.
    assert codec.control_target(branch, start) == start + 8
