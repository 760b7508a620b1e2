"""Unit tests for the IR verifier and printer."""

import pytest

from repro.ir import (
    Call,
    Constant,
    Function,
    GlobalRef,
    GlobalVar,
    IRBuilder,
    Jump,
    Load,
    Program,
    Register,
    Ret,
    Store,
    VerificationError,
    format_function,
    format_instruction,
    format_program,
    verify_function,
    verify_program,
)


def _minimal_program():
    p = Program("p")
    p.add_global(GlobalVar("x"))
    b = IRBuilder("main", ["tid"])
    b.new_block("entry")
    b.store(GlobalRef("x"), Constant(1))
    p.add_function(b.build())
    p.add_thread("main", [0])
    p.finalize()
    return p


def test_verify_ok():
    verify_program(_minimal_program())


def test_verify_empty_function():
    with pytest.raises(VerificationError):
        verify_function(Function("empty"))


def test_verify_unterminated_block():
    f = Function("f")
    blk = f.add_block("entry")
    blk.append(Store(GlobalRef("x"), Constant(1)))
    with pytest.raises(VerificationError, match="missing terminator"):
        verify_function(f)


def test_verify_branch_to_unknown_label():
    b = IRBuilder("f")
    b.new_block("entry")
    b.jump("missing")
    f = b.function.finalize()
    with pytest.raises(VerificationError, match="unknown label"):
        verify_function(f)


def test_verify_undefined_register_use():
    f = Function("f")
    blk = f.add_block("entry")
    ghost = Register("ghost")
    blk.append(Store(GlobalRef("x"), ghost))
    blk.append(Ret())
    with pytest.raises(VerificationError, match="undefined register"):
        verify_function(f)


def test_verify_unknown_callee():
    p = _minimal_program()
    b = IRBuilder("caller")
    b.new_block("entry")
    b.call("nonexistent", [])
    p.functions["caller"] = b.build()
    with pytest.raises(VerificationError, match="unknown function"):
        verify_program(p)


def test_verify_unknown_global():
    p = Program("p")
    b = IRBuilder("f")
    b.new_block("entry")
    b.store(GlobalRef("missing"), Constant(1))
    p.add_function(b.build())
    with pytest.raises(VerificationError, match="unknown global"):
        verify_program(p)


def test_verify_thread_entry_checks():
    p = _minimal_program()
    p.add_thread("nope", [])
    with pytest.raises(VerificationError, match="not a function"):
        verify_program(p)


def test_verify_thread_arity():
    p = _minimal_program()
    p.add_thread("main", [1, 2])  # main takes one param
    with pytest.raises(VerificationError, match="args for"):
        verify_program(p)


def test_verify_use_before_definition_in_block_order_is_allowed():
    # The verifier does not check dominance: a register used in an
    # earlier block and defined in a later one passes.
    f = Function("f")
    first = f.add_block("entry")
    later = f.add_block("later")
    r = Register("r")
    first.append(Store(GlobalRef("x"), r))
    first.append(Jump("later"))
    later.append(Load(r, GlobalRef("x")))
    later.append(Ret())
    verify_function(f.finalize())


def _first_error(func, program=None):
    with pytest.raises(VerificationError) as exc:
        verify_function(func, program)
    return str(exc.value)


def test_verify_reports_structure_errors_before_undefined_uses():
    # An undefined register is used in the first block, and the second
    # block lacks its terminator: the missing terminator is reported,
    # although it comes later in the walk.
    f = Function("f")
    first = f.add_block("entry")
    first.append(Store(GlobalRef("x"), Register("ghost")))
    first.append(Jump("tail"))
    tail = f.add_block("tail")
    tail.append(Store(GlobalRef("x"), Constant(1)))
    assert _first_error(f) == "f/tail: missing terminator"


def test_verify_reports_undefined_uses_and_callees_in_instruction_order():
    p = Program("p")
    p.add_global(GlobalVar("x"))
    f = Function("f")
    blk = f.add_block("entry")
    blk.append(Call(None, "nowhere", ()))
    blk.append(Store(GlobalRef("x"), Register("ghost")))
    blk.append(Ret())
    assert _first_error(f, p) == "f: call to unknown function 'nowhere'"
    blk.instructions.reverse()
    blk.instructions.append(blk.instructions.pop(0))  # Ret last again
    assert _first_error(f, p) == "f/entry: use of undefined register %ghost"


def test_verify_reports_unknown_globals_last():
    p = Program("p")
    f = Function("f")
    blk = f.add_block("entry")
    blk.append(Store(GlobalRef("missing"), Constant(1)))
    blk.append(Store(GlobalRef("x"), Register("ghost")))
    blk.append(Ret())
    assert _first_error(f, p) == "f/entry: use of undefined register %ghost"
    blk.instructions.pop(1)
    assert _first_error(f, p) == "f: reference to unknown global @missing"


def test_format_instruction_shapes():
    r = Register("r")
    assert format_instruction(Load(r, GlobalRef("x"))) == "%r = load @x"
    assert format_instruction(Store(GlobalRef("x"), Constant(2))) == "store @x, 2"


def test_format_function_contains_blocks_and_params():
    p = _minimal_program()
    text = format_function(p.functions["main"])
    assert "func @main(%tid):" in text
    assert "entry:" in text
    assert "store @x, 1" in text


def test_format_program_contains_globals_and_threads():
    text = format_program(_minimal_program())
    assert "global @x = 0" in text
    assert "thread @main(0)" in text


def test_format_roundtrip_every_opcode(mp_program):
    # Smoke: every instruction in a real program formats without error.
    for func in mp_program.functions.values():
        for inst in func.instructions():
            assert isinstance(format_instruction(inst), str)


def test_verify_reports_a_calls_undefined_argument_before_its_unknown_callee():
    p = Program("p")
    f = Function("f")
    blk = f.add_block("entry")
    blk.append(Call(None, "nowhere", (Register("ghost"),)))
    blk.append(Ret())
    assert _first_error(f, p) == "f/entry: use of undefined register %ghost"
