"""Functional (value-level) semantics of the instruction set.

The simulator executes programs both for *timing* and for *values*;
value-level execution lets the test suite check the compiler against
NumPy reference implementations of the kernels, exactly as one would
validate generated code against the source program on real hardware.

:func:`execute_instruction` applies one instruction to a
:class:`~repro.machine.state.RegisterFile` and
:class:`~repro.machine.memory.MemorySystem` and returns the branch
outcome (taken target label or None).
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from typing import Any

import numpy as np

from ..errors import SimulationError
from ..isa.instructions import Instruction, OpClass
from ..isa.operands import Immediate, LabelRef, MemRef, Operand
from ..isa.program import DataLayout
from ..isa.registers import Register, RegisterClass
from .memory import MemorySystem
from .state import RegisterFile


def effective_address(
    mem: MemRef, regfile: RegisterFile, layout: DataLayout
) -> int:
    """Byte address of a memory operand: symbol base + disp + base reg."""
    address = regfile.read(mem.base) + mem.displacement
    if mem.symbol is not None:
        address += layout.lookup(mem.symbol).offset_bytes
    return int(address)


def _scalar_value(
    operand: Operand, regfile: RegisterFile
) -> float | int:
    if isinstance(operand, Immediate):
        return operand.value
    if isinstance(operand, Register):
        return regfile.read(operand)
    raise SimulationError(f"operand {operand} has no scalar value")


def _vector_or_scalar(
    operand: Operand, regfile: RegisterFile
) -> np.ndarray | float:
    """Fetch an ALU input: vector elements, or a scalar to broadcast."""
    if isinstance(operand, Register) and operand.is_vector:
        return regfile.read_vector(operand)
    return float(_scalar_value(operand, regfile))


def _alu(instr: Instruction, lhs, rhs) -> np.ndarray | float:
    mnemonic = instr.mnemonic
    if mnemonic == "add":
        return lhs + rhs
    if mnemonic == "sub":
        return lhs - rhs
    if mnemonic == "mul":
        return lhs * rhs
    if mnemonic == "div":
        return lhs / rhs
    raise SimulationError(f"no ALU semantics for {mnemonic}")


def _execute_memory(
    instr: Instruction,
    regfile: RegisterFile,
    memory: MemorySystem,
    layout: DataLayout,
) -> None:
    mem = instr.memory_operand
    assert mem is not None
    address = effective_address(mem, regfile, layout)
    if instr.mnemonic == "ld":
        dest = instr.operands[1]
        if not isinstance(dest, Register):
            raise SimulationError(f"ld destination {dest} is not a register")
        if dest.is_vector:
            values = memory.read_vector(address, mem.stride_words, regfile.vl)
            regfile.write_vector(dest, values)
        else:
            regfile.write(dest, memory.read_word(address))
    else:  # st
        src = instr.operands[0]
        if not isinstance(src, Register):
            raise SimulationError(f"st source {src} is not a register")
        if src.is_vector:
            memory.write_vector(
                address, mem.stride_words, regfile.read_vector(src)
            )
        else:
            memory.write_word(address, float(regfile.read(src)))


def _execute_arithmetic(instr: Instruction, regfile: RegisterFile) -> None:
    dest = instr.destination
    if not isinstance(dest, Register):
        raise SimulationError(f"{instr} has no register destination")
    if len(instr.operands) == 3:
        lhs = _vector_or_scalar(instr.operands[0], regfile)
        rhs = _vector_or_scalar(instr.operands[1], regfile)
    else:  # two-operand accumulate: dest is also the right-hand source
        lhs = _vector_or_scalar(instr.operands[0], regfile)
        rhs = _vector_or_scalar(dest, regfile)
        if instr.mnemonic in ("sub", "div"):
            # Convex accumulate forms compute dest := dest OP src.
            lhs, rhs = rhs, lhs
    result = _alu(instr, lhs, rhs)
    if dest.is_vector:
        if np.isscalar(result) or getattr(result, "ndim", 1) == 0:
            result = np.full(regfile.vl, float(result))
        regfile.write_vector(dest, np.asarray(result, dtype=np.float64))
    else:
        regfile.write(dest, float(np.asarray(result).flat[0])
                      if hasattr(result, "flat") else float(result))


def _execute_neg(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if not isinstance(src, Register) or not isinstance(dest, Register):
        raise SimulationError(f"neg operands must be registers: {instr}")
    if src.is_vector and dest.is_vector:
        regfile.write_vector(dest, -regfile.read_vector(src))
    elif not src.is_vector and not dest.is_vector:
        regfile.write(dest, -regfile.read(src))
    else:
        raise SimulationError(f"neg cannot mix vector and scalar: {instr}")


def _execute_sum(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if (
        not isinstance(src, Register)
        or not src.is_vector
        or not isinstance(dest, Register)
        or dest.rclass is not RegisterClass.SCALAR
    ):
        raise SimulationError(
            f"sum expects vector source and scalar destination: {instr}"
        )
    regfile.write(dest, float(regfile.read_vector(src).sum()))


def _execute_move(instr: Instruction, regfile: RegisterFile) -> None:
    src, dest = instr.operands
    if not isinstance(dest, Register):
        raise SimulationError(f"mov destination must be a register: {instr}")
    if isinstance(src, Register) and src.is_vector and dest.is_vector:
        regfile.write_vector(dest, regfile.read_vector(src).copy())
        return
    regfile.write(dest, _scalar_value(src, regfile))


def _execute_compare(instr: Instruction, regfile: RegisterFile) -> None:
    lhs = _scalar_value(instr.operands[0], regfile)
    rhs = _scalar_value(instr.operands[1], regfile)
    if instr.mnemonic == "lt":
        regfile.flag = lhs < rhs
    elif instr.mnemonic == "le":
        regfile.flag = lhs <= rhs
    elif instr.mnemonic == "eq":
        regfile.flag = lhs == rhs
    else:
        raise SimulationError(f"unknown compare {instr.mnemonic}")


def branch_target(instr: Instruction, regfile: RegisterFile) -> str | None:
    """Label the branch transfers to, or None for fall-through."""
    target = instr.operands[0]
    assert isinstance(target, LabelRef)
    if instr.mnemonic == "jbr":
        return target.name
    # jbrs: conditional on the test flag; suffix selects the sense.
    taken = regfile.flag if instr.suffix == "t" else not regfile.flag
    return target.name if taken else None


def execute_instruction(
    instr: Instruction,
    regfile: RegisterFile,
    memory: MemorySystem,
    layout: DataLayout,
) -> str | None:
    """Apply one instruction; return the taken branch label, if any."""
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
        _execute_memory(instr, regfile, memory, layout)
    elif opclass is OpClass.REDUCTION:
        _execute_sum(instr, regfile)
    elif opclass is OpClass.MOVE:
        _execute_move(instr, regfile)
    elif opclass is OpClass.COMPARE:
        _execute_compare(instr, regfile)
    elif opclass is OpClass.BRANCH:
        return branch_target(instr, regfile)
    elif instr.mnemonic == "neg":
        _execute_neg(instr, regfile)
    else:
        _execute_arithmetic(instr, regfile)
    return None


# ======================================================================
# Decoded (pre-classified) execution
# ======================================================================
#
# ``Instruction`` computes every classification (``is_vector``, operand
# sets, the opcode spec …) as a property, from scratch, on each access.
# That is fine for analysis passes but dominates the simulator's inner
# loop, which re-reads the same metadata millions of times.
# :func:`decode_program` precomputes it once per program into plain
# attribute records; :func:`lower_step` then turns each record into a
# closure bound to one run's register file and memory that applies
# exactly the same value semantics as :func:`execute_instruction` — the
# float operations and conversions are mirrored operation for
# operation, so the two paths are bit-for-bit identical.

#: Execution dispatch tags.
T_LD_V = 0
T_LD_S = 1
T_ST_V = 2
T_ST_S = 3
T_ALU = 4
T_NEG_V = 5
T_NEG_S = 6
T_SUM = 7
T_MOV_VV = 8
T_MOV = 9
T_CMP = 10
T_BR = 11
T_BRS = 12
T_LEGACY = 13  # anything decode does not specialize

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
        self.tag = T_LEGACY
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


def _scalar_spec(operand: Operand, floated: bool):
    """``(kind, payload)`` locator for a scalar-valued operand.

    With ``floated`` the immediate payload is pre-converted to float,
    matching ``_vector_or_scalar``'s ``float(...)`` wrap; otherwise the
    raw value is kept, matching ``_scalar_value``.
    """
    if isinstance(operand, Immediate):
        return (K_IMM, float(operand.value) if floated else operand.value)
    if isinstance(operand, Register):
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


def _dest_spec(register: Register):
    """``(kind, payload)`` locator for a scalar register destination."""
    cls = register.rclass
    if cls is RegisterClass.ADDRESS:
        return (K_A, register.index)
    if cls is RegisterClass.SCALAR:
        return (K_S, register.index)
    if cls is RegisterClass.VECTOR_LENGTH:
        return (K_VL, 0)
    if cls is RegisterClass.VECTOR_STRIDE:
        return (K_VS, 0)
    return None


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
        if not isinstance(dest, Register):
            return  # legacy path raises the proper error
        if dest.is_vector:
            d.tag = T_LD_V
            d.dest_vec_idx = dest.index
        else:
            spec = _dest_spec(dest)
            if spec is None:
                return
            d.tag = T_LD_S
            d.dest_spec = spec
    else:  # st
        src = instr.operands[0]
        if not isinstance(src, Register):
            return
        if src.is_vector:
            d.tag = T_ST_V
            d.src_vec_idx = src.index
        else:
            spec = _scalar_spec(src, floated=False)
            if spec is None:
                return
            d.tag = T_ST_S
            d.src_spec = spec


def _decode_arithmetic(d: DecodedInstruction, instr: Instruction) -> None:
    dest = instr.destination
    if not isinstance(dest, Register):
        return
    if len(instr.operands) == 3:
        lhs_op, rhs_op = instr.operands[0], instr.operands[1]
    else:  # two-operand accumulate: dest is also the right-hand source
        lhs_op, rhs_op = instr.operands[0], dest
        if instr.mnemonic in ("sub", "div"):
            lhs_op, rhs_op = rhs_op, lhs_op
    specs = []
    for op in (lhs_op, rhs_op):
        if isinstance(op, Register) and op.is_vector:
            specs.append(("v", op.index))
        else:
            spec = _scalar_spec(op, floated=True)
            if spec is None:
                return
            specs.append(spec)
    d.lhs_spec, d.rhs_spec = specs
    d.alu_scalar_result = (
        d.lhs_spec[0] != "v" and d.rhs_spec[0] != "v"
    )
    d.alu_op = _ALU_OPS.get(instr.mnemonic)
    if d.alu_op is None:
        return
    if dest.is_vector:
        d.dest_vec_idx = dest.index
        d.dest_spec = None
    else:
        spec = _dest_spec(dest)
        if spec is None:
            return
        d.dest_spec = spec
    d.tag = T_ALU


def decode_instruction(
    instr: Instruction,
    layout: DataLayout | None = None,
    target_pc: int = -1,
) -> DecodedInstruction:
    """Build the decoded record for one instruction.

    Without ``layout``, memory instructions keep the legacy execution
    tag (symbol offsets cannot be resolved) but all classification /
    timing fields are still valid.
    """
    d = DecodedInstruction(instr)
    opclass = instr.spec.opclass
    if opclass is OpClass.MEMORY:
        if layout is not None:
            _decode_memory(d, instr, layout)
    elif opclass is OpClass.REDUCTION:
        src, dest = instr.operands
        if (
            isinstance(src, Register) and src.is_vector
            and isinstance(dest, Register)
            and dest.rclass is RegisterClass.SCALAR
        ):
            d.tag = T_SUM
            d.src_vec_idx = src.index
            d.dest_spec = (K_S, dest.index)
    elif opclass is OpClass.MOVE:
        src, dest = instr.operands
        if isinstance(dest, Register):
            if (
                isinstance(src, Register) and src.is_vector
                and dest.is_vector
            ):
                d.tag = T_MOV_VV
                d.src_vec_idx = src.index
                d.dest_vec_idx = dest.index
            elif not dest.is_vector:
                spec = _scalar_spec(src, floated=False)
                dspec = _dest_spec(dest)
                if spec is not None and dspec is not None:
                    d.tag = T_MOV
                    d.src_spec = spec
                    d.dest_spec = dspec
    elif opclass is OpClass.COMPARE:
        lhs = _scalar_spec(instr.operands[0], floated=False)
        rhs = _scalar_spec(instr.operands[1], floated=False)
        op = _CMP_OPS.get(instr.mnemonic)
        if lhs is not None and rhs is not None and op is not None:
            d.tag = T_CMP
            d.lhs_spec = lhs
            d.rhs_spec = rhs
            d.cmp_op = op
    elif opclass is OpClass.BRANCH:
        d.target_pc = target_pc
        if instr.mnemonic == "jbr":
            d.tag = T_BR
        else:
            d.tag = T_BRS
            d.branch_sense = instr.suffix == "t"
    elif instr.mnemonic == "neg":
        src, dest = instr.operands
        if isinstance(src, Register) and isinstance(dest, Register):
            if src.is_vector and dest.is_vector:
                d.tag = T_NEG_V
                d.src_vec_idx = src.index
                d.dest_vec_idx = dest.index
            elif not src.is_vector and not dest.is_vector:
                spec = _scalar_spec(src, floated=False)
                dspec = _dest_spec(dest)
                if spec is not None and dspec is not None:
                    d.tag = T_NEG_S
                    d.src_spec = spec
                    d.dest_spec = dspec
    else:
        _decode_arithmetic(d, instr)
    return d


#: Cross-program decode memo.  The A/X measurement codes and the chime
#: calibration variants share ``Instruction`` objects with the programs
#: they were filtered from; decoding is pure given the instruction, the
#: layout's symbol offsets, and the branch target, so the records are
#: shared too (they are immutable after decode).
_DECODE_CACHE: dict = {}
_DECODE_CACHE_MAX = 65536


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
    if len(_DECODE_CACHE) > _DECODE_CACHE_MAX:
        _DECODE_CACHE.clear()
    records = []
    for pc, instr in enumerate(program):
        key = (instr, layout_sig, targets[pc])
        d = _DECODE_CACHE.get(key)
        if d is None:
            d = decode_instruction(instr, layout, targets[pc])
            _DECODE_CACHE[key] = d
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
    """Raw scalar operand fetch (mirror of ``_scalar_value``)."""
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
    """Floated scalar ALU operand (mirror of ``_vector_or_scalar``)."""
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
    """Scalar register write (mirror of ``RegisterFile.write``)."""
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
    arithmetic (as ``_alu`` does on two scalars) otherwise."""
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
    layout: DataLayout,
) -> Callable[[], bool]:
    """A closure applying ``d`` to ``regfile``/``memory``; it returns
    True when a branch is taken.

    Value-for-value mirror of :func:`execute_instruction` — every float
    operation and int/float conversion happens in the same order on the
    same Python/NumPy types, so results are bit-for-bit identical.
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
    if tag == T_MOV_VV:
        dest, src = d.dest_vec_idx, d.src_vec_idx

        def step():
            vl = regfile.vl
            v[dest, :vl] = v[src, :vl]
            return False
        return step
    if tag == T_NEG_V:
        dest, src = d.dest_vec_idx, d.src_vec_idx

        def step():
            vl = regfile.vl
            np.negative(v[src, :vl], out=v[dest, :vl])
            return False
        return step
    if tag == T_NEG_S:
        put = _setter(d.dest_spec, regfile)
        get = _getter(d.src_spec, regfile)

        def step():
            put(-get())
            return False
        return step
    # Fallback: the reference interpreter (also raises the proper
    # errors for malformed instructions).
    instr = d.instr
    return lambda: (
        execute_instruction(instr, regfile, memory, layout) is not None
    )
