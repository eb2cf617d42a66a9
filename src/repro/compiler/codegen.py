"""Whole-kernel code generation.

Drives the compilation of a mini-Fortran kernel into a runnable
Convex-style :class:`~repro.isa.program.Program`:

1. semantic analysis and loop discovery;
2. vectorization of every innermost vectorizable DO loop (strip-mined
   at VL = 128, one address register per stream group, memory-resident
   scalars, FP constants hoisted into ``s`` registers — spilled
   constants are reloaded inside the loop, which is what splits chimes
   in LFK8);
3. scalar compilation of everything else (outer loops, IF/GOTO
   control, and non-vectorizable loops via the scalar fallback).

The result is a :class:`CompiledKernel` carrying the program, the
scalar slot map for the runner, and per-loop diagnostics for the MACS
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompileError, VectorizationError
from ..isa.builder import AsmBuilder
from ..isa.operands import Immediate, MemRef
from ..isa.program import Program
from ..isa.registers import Register, areg, sreg, vreg
from ..lang.analysis import (
    LoopAnalysis,
    analyze_loop,
    collect_integer_constants,
    constant_int,
)
from ..lang.ast import (
    ArrayRef,
    Assign,
    Continue,
    Dimension,
    DoLoop,
    IfGoto,
    SourceProgram,
    Stmt,
    VarRef,
    walk_statements,
)
from ..lang.parser import parse_source
from ..lang.semantics import SymbolTable, analyze_program
from .ir import ScalarKind, ScalarOperand, Stream, VectorLoopIR, VectorOpKind
from .options import DEFAULT_OPTIONS, CompilerOptions
from .regalloc import (
    AllocationResult,
    SPILL_SLOT_WORDS,
    SPILL_SYMBOL,
    allocate_registers,
)
from .scalar import (
    LITERALS_SYMBOL,
    SCALARS_SYMBOL,
    ScalarCompiler,
    ScalarEnvironment,
    expression_is_real,
)
from .vectorizer import Vectorizer


@dataclass
class LoopPlan:
    """Vectorization outcome for one DO loop."""

    loop: DoLoop
    analysis: LoopAnalysis
    vectorized: bool
    reason: str | None = None
    ir: VectorLoopIR | None = None
    allocation: AllocationResult | None = None
    nested: bool = False
    #: instructions emitted per loop *entry* before the strip loop
    #: (trip-count/address setup, constant loads, reduction init, guard)
    preheader_instructions: int = 0
    #: instructions emitted per loop entry after the strip loop
    epilogue_instructions: int = 0


@dataclass
class CompiledKernel:
    """A compiled kernel, ready to run on the simulator."""

    name: str
    program: Program
    table: SymbolTable
    scalar_slots: dict[str, int]
    literal_values: list[float]
    loops: list[LoopPlan]
    options: CompilerOptions
    source: SourceProgram
    #: False when reuse_shifted_loads rewrote loads (perf-equivalent only)
    functionally_exact: bool = True

    def initial_data(
        self, user_data: dict[str, np.ndarray] | None = None
    ) -> dict[str, np.ndarray]:
        """Merge user array data with the literal-constant region."""
        data = dict(user_data or {})
        if self.literal_values:
            data[LITERALS_SYMBOL] = np.asarray(self.literal_values, float)
        return data

    def scalar_word_offset(self, name: str) -> int:
        """Word offset of a scalar variable inside the memory image."""
        symbol = self.program.layout.lookup(SCALARS_SYMBOL)
        try:
            slot = self.scalar_slots[name]
        except KeyError:
            raise CompileError(
                f"kernel {self.name!r} has no scalar {name!r}; "
                f"known: {sorted(self.scalar_slots)}"
            ) from None
        return symbol.offset_words + slot

    @property
    def vectorized_loops(self) -> list[LoopPlan]:
        return [p for p in self.loops if p.vectorized]

    def innermost_vector_plan(self) -> LoopPlan:
        plans = self.vectorized_loops
        if not plans:
            raise CompileError(
                f"kernel {self.name!r} has no vectorized loop"
            )
        return plans[0]


#: Data symbol holding a vector of zeros (partial-sum initialization).
VZERO_SYMBOL = "VZERO"


class _RegisterPlan:
    """Physical register assignments shared by the whole kernel."""

    def __init__(
        self,
        options: CompilerOptions,
        constants: list[ScalarOperand],
        needs_fp_scratch: bool,
        needs_reduction_acc: bool,
        max_groups: int,
    ):
        # ---- address registers -------------------------------------
        # a0 = zero base; counter and stream groups from the top;
        # scalar scratch from the bottom.
        available = options.address_registers
        self.counter = available - 1  # a7
        group_top = self.counter - 1
        self.group_regs = [group_top - i for i in range(max_groups)]
        lowest_group = (
            self.group_regs[-1] if self.group_regs else self.counter
        )
        self.a_scratch = tuple(range(1, min(4, lowest_group)))
        if len(self.a_scratch) < 2:
            raise CompileError(
                f"too many stream groups ({max_groups}): no address "
                "registers left for scalar scratch"
            )
        # ---- scalar (s) registers ----------------------------------
        next_s = 0
        self.reduction_acc: int | None = None
        if needs_reduction_acc:
            self.reduction_acc = next_s
            next_s += 1
        self.s_scratch: tuple[int, ...] = ()
        if needs_fp_scratch:
            self.s_scratch = (next_s, next_s + 1)
            next_s += 2
        remaining = options.scalar_fp_registers - next_s
        if remaining < 0:
            raise CompileError("no scalar registers left for constants")
        self.const_regs: dict[str, int] = {}
        self.spilled_consts: set[str] = set()
        self.staging: int | None = None
        if len(constants) <= remaining:
            for operand in constants:
                self.const_regs[operand.name] = next_s
                next_s += 1
        else:
            # Reserve one staging register for in-loop reloads.
            in_regs = max(remaining - 1, 0)
            for operand in constants[:in_regs]:
                self.const_regs[operand.name] = next_s
                next_s += 1
            self.staging = next_s
            for operand in constants[in_regs:]:
                self.spilled_consts.add(operand.name)


class CodeGenerator:
    """Compiles one kernel AST into a program."""

    def __init__(
        self,
        source: SourceProgram,
        name: str,
        options: CompilerOptions = DEFAULT_OPTIONS,
    ):
        self.source = source
        self.name = name
        self.options = options
        self.table = analyze_program(source)
        self.builder = AsmBuilder(name)
        self.loops: list[LoopPlan] = []
        self._plan_by_loop: dict[int, LoopPlan] = {}
        self._goto_labels: dict[str, str] = {}
        self._hidden_counter = 0
        self._functionally_exact = True
        self._constants = collect_integer_constants(source.statements)

    # ------------------------------------------------------------------
    # Phase 1: vectorization planning
    # ------------------------------------------------------------------

    def _plan_loops(self) -> None:
        def visit(statements: list[Stmt], depth: int) -> None:
            for stmt in statements:
                if not isinstance(stmt, DoLoop):
                    continue
                has_inner_do = any(
                    isinstance(s, DoLoop) for s in stmt.body
                )
                if has_inner_do:
                    visit(stmt.body, depth + 1)
                    continue
                plan = self._plan_single_loop(stmt, nested=depth > 0)
                self.loops.append(plan)
                self._plan_by_loop[id(stmt)] = plan

        visit(self.source.statements, 0)

    def _plan_single_loop(self, loop: DoLoop, nested: bool) -> LoopPlan:
        analysis = analyze_loop(
            loop, self.table, ivdep=self.options.ivdep,
            constants=self._constants,
        )
        if not analysis.vectorizable:
            if not self.options.allow_scalar_fallback:
                raise VectorizationError(
                    f"{self.name}: loop over {loop.var!r}: {analysis.reason}"
                )
            return LoopPlan(
                loop, analysis, vectorized=False, reason=analysis.reason,
                nested=nested,
            )
        try:
            ir = Vectorizer(
                analysis, self.table, self.options, nested
            ).build()
            allocation = allocate_registers(ir)
        except (VectorizationError, CompileError) as exc:
            if not self.options.allow_scalar_fallback:
                raise
            return LoopPlan(
                loop, analysis, vectorized=False, reason=str(exc),
                nested=nested,
            )
        if self.options.reuse_shifted_loads:
            self._functionally_exact = False
        return LoopPlan(
            loop, analysis, vectorized=True, ir=ir,
            allocation=allocation, nested=nested,
        )

    # ------------------------------------------------------------------
    # Phase 2: register planning
    # ------------------------------------------------------------------

    def _build_register_plan(self) -> _RegisterPlan:
        constants: list[ScalarOperand] = []
        seen: set[str] = set()
        needs_reduction_acc = False
        max_groups = 0
        for plan in self.loops:
            if not plan.vectorized:
                continue
            assert plan.ir is not None
            for operand in plan.ir.scalars:
                if operand.name not in seen:
                    seen.add(operand.name)
                    constants.append(operand)
            if plan.ir.reduction is not None:
                if plan.ir.reduction.style == "direct-sum":
                    needs_reduction_acc = True
            max_groups = max(max_groups, len(self._stream_groups(plan.ir)))
        needs_fp_scratch = self._kernel_has_scalar_fp_work()
        return _RegisterPlan(
            self.options, constants, needs_fp_scratch,
            needs_reduction_acc, max_groups,
        )

    def _kernel_has_scalar_fp_work(self) -> bool:
        for plan in self.loops:
            if not plan.vectorized:
                return True  # scalar fallback computes reals in s regs
            assert plan.ir is not None
            if plan.ir.reduction is not None:
                return True  # reduction epilogues use fp scratch
        vector_loop_ids = {
            id(p.loop) for p in self.loops if p.vectorized
        }

        def scan(statements: list[Stmt]) -> bool:
            for stmt in statements:
                if isinstance(stmt, DoLoop):
                    if id(stmt) in vector_loop_ids:
                        continue
                    if scan(stmt.body):
                        return True
                elif isinstance(stmt, Assign):
                    if isinstance(stmt.target, ArrayRef):
                        return True
                    if not self.table.is_integer(stmt.target.name):
                        return True
                elif isinstance(stmt, IfGoto):
                    if expression_is_real(
                        stmt.condition.left, self.table
                    ) or expression_is_real(stmt.condition.right, self.table):
                        return True
            return False

        return scan(self._statements_outside_vector_loops())

    def _statements_outside_vector_loops(self) -> list[Stmt]:
        vector_loop_ids = {
            id(p.loop) for p in self.loops if p.vectorized
        }
        collected: list[Stmt] = []

        def visit(statements: list[Stmt]) -> None:
            for stmt in statements:
                if isinstance(stmt, DoLoop):
                    if id(stmt) in vector_loop_ids:
                        continue
                    visit(stmt.body)
                else:
                    collected.append(stmt)

        visit(self.source.statements)
        return collected

    @staticmethod
    def _stream_groups(ir: VectorLoopIR) -> list[tuple]:
        groups: list[tuple] = []
        for stream in ir.streams:
            if stream.array == SPILL_SYMBOL:
                continue  # spill slots address through a0 directly
            signature = stream.group_signature()
            if signature not in groups:
                groups.append(signature)
        return groups

    # ------------------------------------------------------------------
    # Phase 3: emission
    # ------------------------------------------------------------------

    def compile(self) -> CompiledKernel:
        self._plan_loops()
        self.plan = self._build_register_plan()
        self.env = ScalarEnvironment(
            builder=self.builder,
            table=self.table,
            a_scratch=self.plan.a_scratch,
            s_scratch=self.plan.s_scratch,
        )
        self.scalar = ScalarCompiler(self.env)
        self._collect_goto_labels()
        # Prologue: the permanent zero base register.
        self.builder.mov(Immediate(0), areg(0), comment="zero base")
        self._emit_statements(self.source.statements)
        self._allocate_data_regions()
        program = self.builder.build()
        if self.options.verify:
            self._verify_program(program)
        return CompiledKernel(
            name=self.name,
            program=program,
            table=self.table,
            scalar_slots=dict(self.env.slots),
            literal_values=self.env.literal_values(),
            loops=self.loops,
            options=self.options,
            source=self.source,
            functionally_exact=self._functionally_exact,
        )

    def _verify_program(self, program) -> None:
        """Post-codegen lint gate (``CompilerOptions.verify``).

        Imported lazily: ``repro.analysis`` sits above the compiler in
        the layering and must not be a hard import dependency.
        """
        from ..analysis import Severity, lint_program
        from ..errors import LintError

        errors = [
            finding
            for finding in lint_program(program)
            if finding.severity >= Severity.ERROR
        ]
        if errors:
            details = "; ".join(f.format() for f in errors[:5])
            more = len(errors) - 5
            if more > 0:
                details += f"; ... and {more} more"
            raise LintError(
                f"{self.name}: generated program failed verification "
                f"with {len(errors)} lint error(s): {details}"
            )

    def _collect_goto_labels(self) -> None:
        for stmt in walk_statements(self.source.statements):
            if isinstance(stmt, IfGoto):
                self._goto_labels.setdefault(
                    stmt.target, self.builder.fresh_label("G")
                )

    def _allocate_data_regions(self) -> None:
        for info in self.table.arrays.values():
            self.builder.data(info.name, info.size_words)
        self.builder.data(
            SCALARS_SYMBOL, max(len(self.env.slots), 1)
        )
        self.builder.data(
            LITERALS_SYMBOL, max(len(self.env.literal_slots), 1)
        )
        self.builder.data(VZERO_SYMBOL, SPILL_SLOT_WORDS)
        spill_slots = max(
            (
                p.allocation.spill_slots_used
                for p in self.loops
                if p.allocation is not None
            ),
            default=0,
        )
        if spill_slots:
            self.builder.data(
                SPILL_SYMBOL, spill_slots * SPILL_SLOT_WORDS
            )

    def _hidden_slot(self, prefix: str) -> str:
        self._hidden_counter += 1
        return f"__{prefix}{self._hidden_counter}"

    # -- statement dispatch ---------------------------------------------

    def _emit_statements(self, statements: list[Stmt]) -> None:
        for stmt in statements:
            label = getattr(stmt, "label", None)
            if label is not None and label in self._goto_labels:
                self.builder.label(self._goto_labels[label])
            if isinstance(stmt, Dimension):
                self._anchor_pending_label()
                continue
            if isinstance(stmt, Continue):
                self._anchor_pending_label()
                continue
            if isinstance(stmt, Assign):
                self._emit_scalar_assign(stmt)
            elif isinstance(stmt, IfGoto):
                self.scalar.emit_compare_and_branch(
                    stmt.condition,
                    self._goto_labels[stmt.target],
                    branch_if_true=True,
                )
            elif isinstance(stmt, DoLoop):
                plan = self._plan_by_loop.get(id(stmt))
                if plan is not None and plan.vectorized:
                    self._emit_vector_loop(plan)
                else:
                    self._emit_scalar_loop(stmt)
            else:
                raise CompileError(
                    f"cannot compile statement {type(stmt).__name__}"
                )

    def _anchor_pending_label(self) -> None:
        """If a GOTO label is pending with no instruction to carry it,
        emit a one-cycle no-op anchor."""
        if self.builder._pending_label is not None:
            self.builder.mov(areg(0), areg(0), comment="label anchor")

    def _emit_scalar_assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, VarRef):
            if self.table.is_integer(target.name):
                scratch = areg(self.env.a_scratch[0])
                self.scalar.eval_int(
                    stmt.expr, scratch, scratch=self.env.a_scratch[1:]
                )
                self.builder.sstore(
                    scratch, self.env.slot_mem(target.name),
                    comment=str(stmt),
                )
            else:
                if not self.env.s_scratch:
                    raise CompileError(
                        "no fp scratch registers planned for scalar "
                        f"assignment {stmt}"
                    )
                scratch = sreg(self.env.s_scratch[0])
                self.scalar.eval_fp(
                    stmt.expr, scratch, scratch=self.env.s_scratch[1:]
                )
                self.builder.sstore(
                    scratch, self.env.slot_mem(target.name),
                    comment=str(stmt),
                )
        else:
            scratch = sreg(self.env.s_scratch[0])
            self.scalar.eval_fp(
                stmt.expr, scratch, scratch=self.env.s_scratch[1:]
            )
            mem = self.scalar.element_mem(
                target, areg(self.env.a_scratch[0])
            )
            self.builder.sstore(scratch, mem, comment=str(stmt))

    # -- scalar loops -----------------------------------------------------

    def _trip_count_expr(self, loop: DoLoop):
        from ..lang.ast import BinOp

        return BinOp(
            "/",
            BinOp("+", BinOp("-", loop.upper, loop.lower), loop.step),
            loop.step,
        )

    def _emit_scalar_loop(self, loop: DoLoop) -> None:
        b = self.builder
        a1 = areg(self.env.a_scratch[0])
        trips_slot = self._hidden_slot("trips")
        self.scalar.eval_int(
            self._trip_count_expr(loop), a1,
            scratch=self.env.a_scratch[1:],
        )
        b.sstore(a1, self.env.slot_mem(trips_slot))
        self.scalar.eval_int(
            loop.lower, a1, scratch=self.env.a_scratch[1:]
        )
        b.sstore(a1, self.env.slot_mem(loop.var))
        top = b.fresh_label("SL")
        exit_label = b.fresh_label("SX")
        b.label(top)
        b.sload(self.env.slot_mem(trips_slot), a1)
        b.compare_lt(Immediate(0), a1)
        b.branch_false(exit_label)
        self._emit_statements(loop.body)
        # Advance the loop variable by the (possibly runtime) step.
        b.sload(self.env.slot_mem(loop.var), a1)
        step_const = constant_int(loop.step)
        if step_const is not None:
            b.add_imm(step_const, a1)
        else:
            a2 = areg(self.env.a_scratch[1])
            self.scalar.eval_int(
                loop.step, a2, scratch=self.env.a_scratch[2:]
            )
            b.op("add", a2, a1, suffix="w")
        b.sstore(a1, self.env.slot_mem(loop.var))
        b.sload(self.env.slot_mem(trips_slot), a1)
        b.sub_imm(1, a1)
        b.sstore(a1, self.env.slot_mem(trips_slot))
        b.jump(top)
        b.label(exit_label)
        b.mov(areg(0), areg(0), comment="loop exit anchor")

    # -- vector loops -------------------------------------------------------

    def _stream_mem(
        self, stream: Stream, group_of: dict[tuple, int]
    ) -> MemRef:
        if stream.array == SPILL_SYMBOL:
            return MemRef(
                base=areg(0),
                displacement=stream.base.const * 8,
                symbol=SPILL_SYMBOL,
                stride_words=stream.stride_words,
            )
        group_reg = group_of[stream.group_signature()]
        return MemRef(
            base=areg(group_reg),
            displacement=stream.base.const * 8,
            symbol=stream.array,
            stride_words=stream.stride_words,
        )

    def _resolve_scalar_operand(self, operand: ScalarOperand) -> Register:
        """Register holding a scalar operand, reloading spills in-loop."""
        reg_index = self.plan.const_regs.get(operand.name)
        if reg_index is not None:
            return sreg(reg_index)
        if self.plan.staging is None:
            raise CompileError(
                f"scalar operand {operand.name} has neither a register "
                "nor a staging register"
            )
        staging = sreg(self.plan.staging)
        self._emit_constant_load(operand, staging)
        return staging

    def _emit_constant_load(
        self, operand: ScalarOperand, dest: Register
    ) -> None:
        if operand.kind is ScalarKind.VARIABLE:
            self.builder.sload(
                self.env.slot_mem(operand.name), dest,
                comment=operand.name,
            )
        elif operand.kind is ScalarKind.LITERAL:
            assert operand.value is not None
            self.builder.sload(
                self.env.literal_mem(operand.value), dest,
                comment=f"literal {operand.value}",
            )
        else:  # HOISTED
            assert operand.expr is not None
            self.scalar.eval_fp(
                operand.expr, dest, scratch=self.env.s_scratch[1:]
            )

    def _emit_vector_loop(self, plan: LoopPlan) -> None:
        assert plan.ir is not None and plan.allocation is not None
        b = self.builder
        ir = plan.ir
        loop = plan.loop
        counter = areg(self.plan.counter)
        emitted_before_preheader = len(b)

        # --- stream groups -------------------------------------------
        group_of: dict[tuple, int] = {}
        representatives: dict[tuple, Stream] = {}
        for stream in ir.streams:
            if stream.array == SPILL_SYMBOL:
                continue
            signature = stream.group_signature()
            if signature not in group_of:
                index = len(group_of)
                if index >= len(self.plan.group_regs):
                    raise CompileError(
                        f"{self.name}: loop needs more than "
                        f"{len(self.plan.group_regs)} stream groups"
                    )
                group_of[signature] = self.plan.group_regs[index]
                representatives[signature] = stream

        # --- preheader ------------------------------------------------
        used_const_names = {s.name for s in ir.scalars}
        for operand in ir.scalars:
            reg_index = self.plan.const_regs.get(operand.name)
            if reg_index is not None:
                self._emit_constant_load(operand, sreg(reg_index))
            elif operand.kind is ScalarKind.HOISTED:
                raise CompileError(
                    f"hoisted scalar {operand.name} cannot be spilled"
                )
        self.scalar.eval_int(
            self._trip_count_expr(loop), counter,
            scratch=self.env.a_scratch,
        )
        for signature, stream in representatives.items():
            self.scalar.eval_linear_form_bytes(
                stream.base, areg(group_of[signature])
            )
        self._emit_induction_finals(plan, counter)
        self._emit_reduction_preheader(plan)
        exit_label = b.fresh_label("VX")
        b.compare_lt(Immediate(0), counter)
        b.branch_false(exit_label)
        plan.preheader_instructions = len(b) - emitted_before_preheader

        # --- strip loop -------------------------------------------------
        top = b.fresh_label("VL")
        b.label(top)
        b.set_vl(counter, comment="VL = min(remaining, 128)")
        for allocated in plan.allocation.ops:
            self._emit_vector_op(allocated, group_of)
        self._emit_reduction_body(plan)
        vl = self.options.vector_length
        for signature, group_reg in group_of.items():
            stride = signature[0]
            b.add_imm(8 * stride * vl, areg(group_reg),
                      comment="advance stream group")
        b.sub_imm(vl, counter)
        b.compare_lt(Immediate(0), counter)
        b.branch_true(top)
        b.label(exit_label)
        b.mov(areg(0), areg(0), comment="vector loop exit anchor")
        emitted_before_epilogue = len(b)
        self._emit_reduction_epilogue(plan)
        plan.epilogue_instructions = len(b) - emitted_before_epilogue

    def _emit_induction_finals(self, plan: LoopPlan, counter) -> None:
        """Store post-loop values of all induction variables.

        Runs in the preheader (after stream addresses captured the entry
        values): ``var_final = var_entry + step * trips``.
        """
        b = self.builder
        a1 = areg(self.env.a_scratch[0])
        a2 = areg(self.env.a_scratch[1])
        for name, induction in plan.analysis.inductions.items():
            b.mov(counter, a1)
            if induction.step != 1:
                b.op("mul", Immediate(induction.step), a1, suffix="w")
            if name == plan.loop.var:
                self.scalar.eval_int(
                    plan.loop.lower, a2, scratch=self.env.a_scratch[2:]
                )
            else:
                b.sload(self.env.slot_mem(name), a2)
            b.op("add", a2, a1, suffix="w")
            b.sstore(a1, self.env.slot_mem(name),
                     comment=f"{name} after loop")

    # -- reductions ----------------------------------------------------

    def _reduction_home_mem(self, plan: LoopPlan) -> MemRef:
        reduction = plan.analysis.reduction
        assert reduction is not None
        target = reduction.target
        if isinstance(target, VarRef):
            return self.env.slot_mem(target.name)
        return self.scalar.element_mem(
            target, areg(self.env.a_scratch[0])
        )

    def _emit_reduction_preheader(self, plan: LoopPlan) -> None:
        ir = plan.ir
        assert ir is not None
        if ir.reduction is None:
            return
        b = self.builder
        if ir.reduction.style == "direct-sum":
            assert self.plan.reduction_acc is not None
            b.sload(
                self._reduction_home_mem(plan),
                sreg(self.plan.reduction_acc),
                comment="reduction accumulator",
            )
        else:
            assert ir.reduction.accumulator is not None
            acc_reg = plan.allocation.pinned_regs[ir.reduction.accumulator]
            # Zero the accumulator through the multiply pipe (s = s - s;
            # acc = s * acc): unlike a load of zeros this does not take
            # the memory port, so it overlaps the first strip's loads.
            zero = sreg(self.env.s_scratch[0])
            b.op("sub", zero, zero, suffix="d", comment="zero scalar")
            b.set_vl(Immediate(128))
            b.op(
                "mul", zero, vreg(acc_reg), vreg(acc_reg), suffix="d",
                comment="zero partial sums (lint:ok uninit-read)",
            )

    def _emit_reduction_body(self, plan: LoopPlan) -> None:
        ir = plan.ir
        assert ir is not None
        reduction = ir.reduction
        if reduction is None or reduction.style != "direct-sum":
            return
        b = self.builder
        contribution_reg = plan.allocation.final_regs[reduction.contribution]
        tmp = sreg(self.env.s_scratch[0])
        acc = sreg(self.plan.reduction_acc)
        b.vsum(vreg(contribution_reg), tmp, comment="strip reduction")
        mnemonic = "add" if reduction.op == "+" else "sub"
        b.op(mnemonic, tmp, acc, suffix="d",
             comment="accumulate strip sum")

    def _emit_reduction_epilogue(self, plan: LoopPlan) -> None:
        ir = plan.ir
        assert ir is not None
        reduction = ir.reduction
        if reduction is None:
            return
        b = self.builder
        if reduction.style == "direct-sum":
            b.sstore(
                sreg(self.plan.reduction_acc),
                self._reduction_home_mem(plan),
                comment="store reduction result",
            )
            return
        assert reduction.accumulator is not None
        acc_reg = plan.allocation.pinned_regs[reduction.accumulator]
        s_sum = sreg(self.env.s_scratch[0])
        s_home = sreg(self.env.s_scratch[1])
        b.set_vl(Immediate(128))
        b.vsum(vreg(acc_reg), s_sum, comment="final reduction")
        home = self._reduction_home_mem(plan)
        b.sload(home, s_home)
        b.op("add", s_sum, s_home, suffix="d")
        b.sstore(s_home, home, comment="store reduction result")

    # -- vector op emission -----------------------------------------------

    def _emit_vector_op(self, allocated, group_of: dict[tuple, int]) -> None:
        op = allocated.op
        b = self.builder
        if op.kind is VectorOpKind.LOAD:
            mem = self._stream_mem(op.stream, group_of)
            comment = op.stream.array
            if self.options.reuse_shifted_loads:
                # Shifted-reuse is performance-equivalent only: a
                # collapsed stream can leave this load feeding a
                # degenerate self-cancelling op (LFK12's Y(k+1)-Y(k)),
                # making the load dead in the emitted code.
                comment += " (lint:ok dead-store)"
            b.vload(mem, vreg(allocated.output_reg), comment=comment)
            return
        if op.kind is VectorOpKind.STORE:
            mem = self._stream_mem(op.stream, group_of)
            source = allocated.input_regs[0]
            assert isinstance(source, int)
            b.vstore(vreg(source), mem, comment=op.stream.array)
            return
        operands = []
        for physical in allocated.input_regs:
            if isinstance(physical, int):
                operands.append(vreg(physical))
            else:
                operands.append(self._resolve_scalar_operand(physical))
        if op.kind is VectorOpKind.NEG:
            b.vneg(operands[0], vreg(allocated.output_reg))
            return
        mnemonic = {
            VectorOpKind.ADD: "add",
            VectorOpKind.SUB: "sub",
            VectorOpKind.MUL: "mul",
            VectorOpKind.DIV: "div",
        }[op.kind]
        b.op(
            mnemonic, operands[0], operands[1],
            vreg(allocated.output_reg), suffix="d",
        )


def compile_kernel(
    source: str | SourceProgram,
    name: str = "kernel",
    options: CompilerOptions = DEFAULT_OPTIONS,
) -> CompiledKernel:
    """Compile mini-Fortran source text (or AST) into a program."""
    ast = parse_source(source) if isinstance(source, str) else source
    return CodeGenerator(ast, name, options).compile()
