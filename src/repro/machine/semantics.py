"""Functional (value-level) semantics of the instruction set.

The simulator executes programs both for *timing* and for *values*;
value-level execution lets the test suite check the compiler against
NumPy reference implementations of the kernels, exactly as one would
validate generated code against the source program on real hardware.

:func:`decode_instruction` is the one place that decides which
instruction forms the machine executes.  It classifies each form once
into a :class:`DecodedInstruction` tagged with the step that applies
it, and refuses every other form with a
:class:`~repro.errors.SimulationError`, so a program holding one is
rejected before it runs.  :func:`lower_step` turns a decoded record
into a closure bound to one run's
:class:`~repro.machine.state.RegisterFile` and
:class:`~repro.machine.memory.MemorySystem`; those closures are the
instruction semantics.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from typing import Any, TypeGuard

import numpy as np

from ..errors import SimulationError
from ..isa.instructions import Instruction, OpClass
from ..isa.operands import Immediate, Operand
from ..isa.program import DataLayout
from ..isa.registers import Register, RegisterClass
from ..memo import Memo
from .memory import MemorySystem
from .state import RegisterFile

# ``Instruction`` computes every classification (``is_vector``, operand
# sets, the opcode spec …) as a property, from scratch, on each access.
# That is fine for analysis passes but dominates the simulator's inner
# loop, which re-reads the same metadata millions of times.
# :func:`decode_program` precomputes it once per program into plain
# attribute records, which :func:`lower_step` and the timing model's
# :func:`~repro.machine.pipeline.lower` read.

#: Execution dispatch tags.
T_LD_V = 0
T_LD_S = 1
T_ST_V = 2
T_ST_S = 3
T_ALU = 4
T_NEG_V = 5
T_NEG_S = 6
T_SUM = 7
T_MOV = 8
T_CMP = 9
T_BR = 10
T_BRS = 11

#: Scalar operand-location kinds (``(kind, payload)`` specs).
K_IMM = 0
K_A = 1
K_S = 2
K_VL = 3
K_VS = 4

#: ALU / compare operation codes.
OP_ADD = 0
OP_SUB = 1
OP_MUL = 2
OP_DIV = 3
CMP_LT = 0
CMP_LE = 1
CMP_EQ = 2

_ALU_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV}
_CMP_OPS = {"lt": CMP_LT, "le": CMP_LE, "eq": CMP_EQ}


class DecodedInstruction:
    """Precomputed execution + classification record for one pc."""

    __slots__ = (
        "instr", "mnemonic", "tag",
        # classification (mirrors the Instruction properties)
        "is_vector", "is_scalar_memory",
        "touches_memory", "is_branch", "is_compare", "flop_count",
        "timing_key", "pipe", "scalar_reads", "scalar_writes",
        "vector_read_idxs", "dest_reg", "dest_is_vector", "mem_stride",
        # execution operands
        "base_idx", "offset",
        "dest_vec_idx", "src_vec_idx", "src_spec", "dest_spec",
        "alu_op", "lhs_spec", "rhs_spec", "alu_scalar_result",
        "cmp_op", "target_pc", "branch_sense",
    )

    def __init__(self, instr: Instruction):
        self.instr = instr
        self.mnemonic = instr.mnemonic
        self.tag: int | None = None  # set by decode_instruction
        self.is_vector = instr.is_vector
        self.is_scalar_memory = instr.is_scalar_memory
        self.touches_memory = instr.touches_memory
        self.is_branch = instr.is_branch
        self.is_compare = instr.is_compare
        self.flop_count = instr.flop_count
        self.timing_key = instr.timing_key
        self.pipe = instr.pipe
        self.scalar_reads = tuple(
            r for r in instr.reads if not r.is_vector
        )
        self.scalar_writes = tuple(
            r for r in instr.writes if not r.is_vector
        )
        self.vector_read_idxs = tuple(
            sorted(r.index for r in instr.vector_reads)
        )
        dest = instr.destination
        self.dest_reg = dest if isinstance(dest, Register) else None
        self.dest_is_vector = (
            self.dest_reg is not None and self.dest_reg.is_vector
        )
        mem = instr.memory_operand
        self.mem_stride = mem.stride_words if mem is not None else None
        self.base_idx = None
        self.offset = None
        self.dest_vec_idx = None
        self.src_vec_idx = None
        self.src_spec = None
        self.dest_spec = None
        self.alu_op = None
        self.lhs_spec = None
        self.rhs_spec = None
        self.alu_scalar_result = None
        self.cmp_op = None
        self.target_pc = -1
        self.branch_sense = True


def _register_spec(operand: Operand):
    """``(kind, payload)`` locator of a scalar-valued register (a/s/VL/VS),
    or None for any other operand."""
    if not isinstance(operand, Register):
        return None
    cls = operand.rclass
    if cls is RegisterClass.ADDRESS:
        return (K_A, operand.index)
    if cls is RegisterClass.SCALAR:
        return (K_S, operand.index)
    if cls is RegisterClass.VECTOR_LENGTH:
        return (K_VL, 0)
    if cls is RegisterClass.VECTOR_STRIDE:
        return (K_VS, 0)
    return None


def _scalar_spec(operand: Operand, floated: bool):
    """``(kind, payload)`` locator for a scalar-valued operand: an
    immediate or a scalar-valued register, None for anything else.

    With ``floated`` an immediate's payload is converted to float here,
    once, as ALU operands need; otherwise it keeps its own int or float
    value.
    """
    if isinstance(operand, Immediate):
        return (K_IMM, float(operand.value) if floated else operand.value)
    return _register_spec(operand)


def _is_vector_register(operand: Operand) -> TypeGuard[Register]:
    return isinstance(operand, Register) and operand.is_vector


def _decode_memory(d: DecodedInstruction, instr: Instruction,
                   layout: DataLayout) -> None:
    mem = instr.memory_operand
    assert mem is not None
    offset = mem.displacement
    if mem.symbol is not None:
        offset += layout.lookup(mem.symbol).offset_bytes
    d.base_idx = mem.base.index
    d.offset = offset
    if instr.mnemonic == "ld":
        dest = instr.operands[1]
        if _is_vector_register(dest):
            d.tag = T_LD_V
            d.dest_vec_idx = dest.index
        else:
            d.dest_spec = _register_spec(dest)
            if d.dest_spec is not None:
                d.tag = T_LD_S
    else:  # st
        src = instr.operands[0]
        if _is_vector_register(src):
            d.tag = T_ST_V
            d.src_vec_idx = src.index
        else:
            d.src_spec = _register_spec(src)
            if d.src_spec is not None:
                d.tag = T_ST_S


def _decode_arithmetic(d: DecodedInstruction, instr: Instruction) -> None:
    dest = instr.destination
    if not isinstance(dest, Register):
        return
    if len(instr.operands) == 3:
        lhs_op, rhs_op = instr.operands[0], instr.operands[1]
    else:  # two-operand accumulate: dest is also the right-hand source
        lhs_op, rhs_op = instr.operands[0], dest
        if instr.mnemonic in ("sub", "div"):
            # Convex accumulate forms compute dest := dest OP src.
            lhs_op, rhs_op = rhs_op, lhs_op
    specs = []
    for op in (lhs_op, rhs_op):
        if _is_vector_register(op):
            specs.append(("v", op.index))
        else:
            spec = _scalar_spec(op, floated=True)
            if spec is None:
                return
            specs.append(spec)
    if dest.is_vector:
        d.dest_vec_idx = dest.index
    else:
        d.dest_spec = _register_spec(dest)
        if d.dest_spec is None:
            return
    d.lhs_spec, d.rhs_spec = specs
    d.alu_scalar_result = (
        d.lhs_spec[0] != "v" and d.rhs_spec[0] != "v"
    )
    d.alu_op = _ALU_OPS[instr.mnemonic]
    d.tag = T_ALU


def decode_instruction(
    instr: Instruction,
    layout: DataLayout,
    target_pc: int = -1,
) -> DecodedInstruction:
    """Build the decoded record for one instruction.

    Raises :class:`SimulationError` naming the instruction when its
    form has no lowered step: a non-register ``ld`` destination or
    ``st`` source, an ALU operand that is a memory reference, a label
    or ``VM``, a non-register ALU destination, a ``neg`` mixing vector
    and scalar, a ``sum`` into anything but a scalar register, and any
    vector ``mov`` or compare (neither has a Table 1 timing entry).
    """
    d = DecodedInstruction(instr)
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
        _decode_memory(d, instr, layout)
    elif opclass is OpClass.REDUCTION:
        src, dest = instr.operands
        if (
            _is_vector_register(src)
            and isinstance(dest, Register)
            and dest.rclass is RegisterClass.SCALAR
        ):
            d.tag = T_SUM
            d.src_vec_idx = src.index
            d.dest_spec = (K_S, dest.index)
    elif opclass is OpClass.MOVE:
        src, dest = instr.operands
        spec = _scalar_spec(src, floated=False)
        dspec = _register_spec(dest)
        if spec is not None and dspec is not None:
            d.tag = T_MOV
            d.src_spec = spec
            d.dest_spec = dspec
    elif opclass is OpClass.COMPARE:
        lhs = _scalar_spec(instr.operands[0], floated=False)
        rhs = _scalar_spec(instr.operands[1], floated=False)
        if lhs is not None and rhs is not None:
            d.tag = T_CMP
            d.lhs_spec = lhs
            d.rhs_spec = rhs
            d.cmp_op = _CMP_OPS[instr.mnemonic]
    elif opclass is OpClass.BRANCH:
        d.target_pc = target_pc
        if instr.mnemonic == "jbr":
            d.tag = T_BR
        else:
            d.tag = T_BRS
            d.branch_sense = instr.suffix == "t"
    elif instr.mnemonic == "neg":
        src, dest = instr.operands
        if _is_vector_register(src) and _is_vector_register(dest):
            d.tag = T_NEG_V
            d.src_vec_idx = src.index
            d.dest_vec_idx = dest.index
        else:
            spec = _register_spec(src)
            dspec = _register_spec(dest)
            if spec is not None and dspec is not None:
                d.tag = T_NEG_S
                d.src_spec = spec
                d.dest_spec = dspec
    else:
        _decode_arithmetic(d, instr)
    if d.tag is None:
        raise SimulationError(f"unsupported instruction form: {instr}")
    return d


#: Cross-program decode memo.  The A/X measurement codes and the chime
#: calibration variants share ``Instruction`` objects with the programs
#: they were filtered from; decoding is pure given the instruction, the
#: layout's symbol offsets, and the branch target, so the records are
#: shared too (they are immutable after decode).
_DECODE_MEMO: Memo[tuple, DecodedInstruction] = Memo("decode", 65536)


def decode_program(program) -> tuple[DecodedInstruction, ...]:
    """Decoded records for every instruction, cached on the program."""
    cached = getattr(program, "_decoded_cache", None)
    if cached is not None:
        return cached
    layout = program.layout
    layout_sig = tuple(
        (s.name, s.offset_bytes) for s in layout.symbols()
    )
    targets = program.branch_targets
    records = []
    for pc, instr in enumerate(program):
        key = (instr, layout_sig, targets[pc])
        d = _DECODE_MEMO.get(key)
        if d is None:
            d = decode_instruction(instr, layout, targets[pc])
            _DECODE_MEMO.put(key, d)
        records.append(d)
    decoded = tuple(records)
    program._decoded_cache = decoded
    return decoded


# ======================================================================
# Lowered execution: one closure per instruction
# ======================================================================

_UFUNCS = {OP_ADD: np.add, OP_SUB: np.subtract, OP_MUL: np.multiply,
           OP_DIV: np.divide}
_PY_OPS = {OP_ADD: operator.add, OP_SUB: operator.sub,
           OP_MUL: operator.mul, OP_DIV: operator.truediv}
_CMP_FNS = {CMP_LT: operator.lt, CMP_LE: operator.le, CMP_EQ: operator.eq}


def _getter(spec, regfile: RegisterFile) -> Callable[[], Any]:
    """Scalar operand fetch: an immediate as decoded, an address
    register as int, a scalar register as float, VL/VS as int."""
    kind, payload = spec
    if kind == K_IMM:
        return lambda: payload
    if kind == K_A:
        a = regfile.a
        return lambda: int(a[payload])
    if kind == K_S:
        s = regfile.s
        return lambda: float(s[payload])
    if kind == K_VL:
        return lambda: regfile.vl
    return lambda: regfile.vs


def _float_getter(spec, regfile: RegisterFile) -> Callable[[], float]:
    """Scalar ALU operand, as a float (immediates were floated at
    decode)."""
    kind, payload = spec
    if kind == K_IMM:
        return lambda: payload  # pre-floated at decode time
    if kind == K_A:
        a = regfile.a
        return lambda: float(a[payload])
    if kind == K_S:
        s = regfile.s
        return lambda: float(s[payload])
    if kind == K_VL:
        return lambda: float(regfile.vl)
    return lambda: float(regfile.vs)


def _setter(spec, regfile: RegisterFile) -> Callable[[Any], None]:
    """Scalar register write: int into an address register or VS,
    float into a scalar register; VL clamps to ``[0, max_vl]`` (the
    strip-mined loops move the remaining trip count into VL and rely on
    that clamp for full strips)."""
    kind, payload = spec
    if kind == K_A:
        a = regfile.a

        def put(value):
            a[payload] = int(value)
    elif kind == K_S:
        s = regfile.s

        def put(value):
            s[payload] = float(value)
    elif kind == K_VL:
        max_vl = regfile.max_vl

        def put(value):
            regfile.vl = max(0, min(int(value), max_vl))
    else:
        def put(value):
            regfile.vs = int(value)
    return put


def _operand(spec, regfile: RegisterFile) -> Callable[[], Any]:
    """ALU input: active vector elements, or a floated scalar."""
    if spec[0] == "v":
        v, index = regfile.v, spec[1]
        return lambda: v[index, : regfile.vl]
    return _float_getter(spec, regfile)


def _lower_alu(d: DecodedInstruction, regfile: RegisterFile):
    """Step for ``T_ALU``: a NumPy ufunc writing into the destination
    register when a vector is involved on both sides, Python float
    arithmetic on two scalars otherwise."""
    v = regfile.v
    dest = d.dest_vec_idx
    get_lhs = _operand(d.lhs_spec, regfile)
    get_rhs = _operand(d.rhs_spec, regfile)
    if dest is not None and not d.alu_scalar_result:
        ufunc = _UFUNCS[d.alu_op]

        def step():
            ufunc(get_lhs(), get_rhs(), out=v[dest, : regfile.vl])
            return False
        return step
    op = _PY_OPS[d.alu_op]
    if dest is not None:  # two scalars into a vector register
        def step():
            vl = regfile.vl
            v[dest, :vl] = np.full(vl, float(op(get_lhs(), get_rhs())))
            return False
        return step
    put = _setter(d.dest_spec, regfile)
    if d.alu_scalar_result:
        def step():
            put(float(op(get_lhs(), get_rhs())))
            return False
    else:  # a vector operand into a scalar register: element 0 survives
        def step():
            put(float(np.asarray(op(get_lhs(), get_rhs())).flat[0]))
            return False
    return step


def lower_step(
    d: DecodedInstruction,
    regfile: RegisterFile,
    memory: MemorySystem,
) -> Callable[[], bool]:
    """A closure applying ``d`` to ``regfile``/``memory``; it returns
    True when a branch is taken.

    These closures are the machine's instruction semantics.  Every tag
    :func:`decode_instruction` produces has one, so there is no other
    path an instruction's values can take.
    """
    tag = d.tag
    v, a = regfile.v, regfile.a
    if tag == T_ALU:
        return _lower_alu(d, regfile)
    if tag == T_LD_V:
        base, offset, stride = d.base_idx, d.offset, d.mem_stride
        dest = d.dest_vec_idx
        read_vector = memory.read_vector

        def step():
            vl = regfile.vl
            v[dest, :vl] = read_vector(int(a[base]) + offset, stride, vl)
            return False
        return step
    if tag == T_ST_V:
        base, offset, stride = d.base_idx, d.offset, d.mem_stride
        src = d.src_vec_idx
        write_vector = memory.write_vector

        def step():
            write_vector(int(a[base]) + offset, stride, v[src, : regfile.vl])
            return False
        return step
    if tag == T_LD_S:
        base, offset = d.base_idx, d.offset
        read_word = memory.read_word
        put = _setter(d.dest_spec, regfile)

        def step():
            put(read_word(int(a[base]) + offset))
            return False
        return step
    if tag == T_ST_S:
        base, offset = d.base_idx, d.offset
        write_word = memory.write_word
        get = _getter(d.src_spec, regfile)

        def step():
            write_word(int(a[base]) + offset, float(get()))
            return False
        return step
    if tag == T_MOV:
        put = _setter(d.dest_spec, regfile)
        get = _getter(d.src_spec, regfile)

        def step():
            put(get())
            return False
        return step
    if tag == T_CMP:
        compare = _CMP_FNS[d.cmp_op]
        get_lhs = _getter(d.lhs_spec, regfile)
        get_rhs = _getter(d.rhs_spec, regfile)

        def step():
            regfile.flag = compare(get_lhs(), get_rhs())
            return False
        return step
    if tag == T_BRS:
        if d.branch_sense:
            return lambda: regfile.flag
        return lambda: not regfile.flag
    if tag == T_BR:
        return lambda: True
    if tag == T_SUM:
        s, dest, src = regfile.s, d.dest_spec[1], d.src_vec_idx

        def step():
            s[dest] = float(v[src, : regfile.vl].sum())
            return False
        return step
    if tag == T_NEG_V:
        dest, src = d.dest_vec_idx, d.src_vec_idx

        def step():
            vl = regfile.vl
            np.negative(v[src, :vl], out=v[dest, :vl])
            return False
        return step
    # T_NEG_S, the last tag decode produces
    put = _setter(d.dest_spec, regfile)
    get = _getter(d.src_spec, regfile)

    def step():
        put(-get())
        return False
    return step
