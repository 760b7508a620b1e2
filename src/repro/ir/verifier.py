"""Structural well-formedness checks for IR programs.

The verifier catches malformed IR early (the frontend and hand-built
tests both go through it): unterminated blocks, branches to unknown
labels, registers defined twice or never, calls to unknown functions,
threads pointing at missing entry points.
"""

from __future__ import annotations

from repro.ir.function import Function, Program
from repro.ir.instructions import (
    LOAD_ORDERINGS,
    STORE_ORDERINGS,
    Alloca,
    AtomicAdd,
    AtomicXchg,
    BinOp,
    Br,
    Call,
    Cmp,
    CmpXchg,
    Fence,
    FenceKind,
    Gep,
    Instruction,
    Jump,
    Load,
    Observe,
    Ret,
    Store,
)
from repro.ir.values import GlobalRef, Register


class VerificationError(Exception):
    """Raised when an IR program fails structural checks."""


# What the walk checks on an instruction: a mask of the bits below.
_TERMINATOR = 1
_LOAD = 2
_STORE = 4
_FENCE = 8
_CALL = 16
#: Roles whose instructions may carry a qualifier to check.
_QUALIFIED = _LOAD | _STORE | _FENCE

#: The role of each instruction class of the IR; ``_role`` works out
#: the role of any other class.
_ROLES: dict[type, int] = {
    Alloca: 0,
    Load: _LOAD,
    Store: _STORE,
    BinOp: 0,
    Cmp: 0,
    Gep: 0,
    Br: _TERMINATOR,
    Jump: _TERMINATOR,
    Ret: _TERMINATOR,
    Call: _CALL,
    Fence: _FENCE,
    CmpXchg: 0,
    AtomicXchg: 0,
    AtomicAdd: 0,
    Observe: 0,
}


def _role(inst: Instruction) -> int:
    role = _TERMINATOR if inst.is_terminator() else 0
    if isinstance(inst, Load):
        role |= _LOAD
    if isinstance(inst, Store):
        role |= _STORE
    if isinstance(inst, Fence):
        role |= _FENCE
    if isinstance(inst, Call):
        role |= _CALL
    return role


def _check_qualifier(inst: Instruction, role: int, where: str) -> None:
    """A load's or store's ordering, or a fence's flavor, when set."""
    if role & _FENCE:
        # Flavors are free-form ISA mnemonics (the arch backend
        # registry owns the catalog), but structurally they must
        # name something, and only full fences lower to one.
        if not isinstance(inst.flavor, str) or not inst.flavor:
            raise VerificationError(f"{where}: fence flavor must be a non-empty string")
        if inst.kind is not FenceKind.FULL:
            raise VerificationError(f"{where}: compiler directives cannot carry a fence flavor")
    elif role & _LOAD and inst.ordering not in LOAD_ORDERINGS:
        raise VerificationError(
            f"{where}: bad load ordering {inst.ordering!r} (want one of {LOAD_ORDERINGS})"
        )
    elif role & _STORE and inst.ordering not in STORE_ORDERINGS:
        raise VerificationError(
            f"{where}: bad store ordering {inst.ordering!r} (want one of {STORE_ORDERINGS})"
        )


def verify_function(func: Function, program: Program | None = None) -> None:
    """Check one function in a single walk over its instructions.

    The first error raised is the one three separate passes would
    raise: block structure and definitions first (block by block),
    then register uses and callees (in instruction order), then global
    references. A use may precede its definition in block order (the
    verifier does not check dominance), so uses of registers not yet
    defined are kept and judged once the walk has seen every
    definition.
    """
    if not func.blocks:
        raise VerificationError(f"{func.name}: function has no blocks")

    name = func.name
    labels = {b.label for b in func.blocks}
    # Registers hash and compare by identity, so this is the set of
    # register objects defined so far.
    defined: set[Register] = set(func.params)
    # Candidate errors of the second pass, in instruction order: a
    # register not yet defined at its use, or an unknown callee.
    pending: list[tuple[str, Register | None, str]] = []
    unknown_global: str | None = None  # the third pass's first error
    check_names = program is not None
    functions = program.functions if check_names else {}
    global_names = program.globals if check_names else {}
    roles_get = _ROLES.get

    for block in func.blocks:
        insts = block.instructions
        if not insts:
            raise VerificationError(f"{name}/{block.label}: empty block")
        last = len(insts) - 1
        term = insts[last]
        if not term.is_terminator():
            raise VerificationError(f"{name}/{block.label}: missing terminator")
        for i, inst in enumerate(insts):
            role = roles_get(type(inst))
            if role is None:
                role = _role(inst)
            if role:
                if role & _TERMINATOR and i != last:
                    raise VerificationError(f"{name}/{block.label}: terminator not at block end")
                if role & _QUALIFIED and (
                    inst.flavor if role & _FENCE else inst.ordering
                ) is not None:
                    _check_qualifier(inst, role, f"{name}/{block.label}")
            for op in inst.operands:
                if isinstance(op, Register):
                    if op not in defined:
                        pending.append((block.label, op, ""))
                elif (
                    check_names
                    and unknown_global is None
                    and isinstance(op, GlobalRef)
                    and op.name not in global_names
                ):
                    unknown_global = op.name
            if role & _CALL and check_names and inst.callee not in functions:
                pending.append((block.label, None, inst.callee))
            dest = inst.dest
            if dest is not None:
                if dest in defined:
                    raise VerificationError(f"{name}: register {dest} defined twice")
                if dest.defining_inst is not inst:
                    raise VerificationError(
                        f"{name}: register {dest} has a stale defining_inst"
                    )
                defined.add(dest)
        if isinstance(term, Br):
            targets: tuple[str, ...] = (term.true_label, term.false_label)
        elif isinstance(term, Jump):
            targets = (term.target,)
        else:
            targets = ()
        for target in targets:
            if target not in labels:
                raise VerificationError(
                    f"{name}/{block.label}: branch to unknown label {target!r}"
                )

    # Every operand register must be defined by some instruction in this
    # function (or be a parameter). We do not enforce dominance: locals
    # flow through allocas, so cross-block register uses produced by the
    # frontend are always defined on every path; hand-built IR gets the
    # weaker check.
    for label, reg, callee in pending:
        if reg is None:
            raise VerificationError(f"{name}: call to unknown function {callee!r}")
        if reg not in defined:
            raise VerificationError(f"{name}/{label}: use of undefined register {reg}")

    # Globals referenced must exist.
    if unknown_global is not None:
        raise VerificationError(f"{name}: reference to unknown global @{unknown_global}")


def verify_program(program: Program) -> None:
    if not program.functions:
        raise VerificationError("program has no functions")
    for func in program.functions.values():
        verify_function(func, program)
    for thread in program.threads:
        if thread.func_name not in program.functions:
            raise VerificationError(
                f"thread entry {thread.func_name!r} is not a function"
            )
        func = program.functions[thread.func_name]
        if len(thread.args) != len(func.params):
            raise VerificationError(
                f"thread {thread.func_name}: {len(thread.args)} args for "
                f"{len(func.params)} params"
            )
