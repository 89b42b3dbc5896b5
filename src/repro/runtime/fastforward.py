"""Analytical fast-forward execution engine.

Between migration points, blocking syscalls, and hDSM faults there is
nothing for the engine shell to do: a straight-line run of lowered
instructions charges a precomputable cycle cost and transforms thread
state in a way that is fully determined by the block's IR.  The exact
interpreter (:class:`repro.runtime.execution.ExecutionEngine`) still
pays per-instruction dispatch for every one of them; at warehouse
scale that dispatch *is* the wall (ROADMAP item 2).

:class:`FastExecutionEngine` removes it.  For every machine function a
thread executes it compiles — once per CPU model, from the
:mod:`repro.ir.summary` block summaries — a *region*: all the
function's basic blocks rendered as one Python function with an
internal dispatch loop, entered at any block label.  Loops therefore
iterate inside compiled code, one function call per scheduler slice
instead of one dispatch per instruction; mid-block resume positions
(after a call or a migration) get tiny single-chunk stub regions that
hand over to the whole-function region at the next branch.  The
compiled region:

* folds every static cycle cost into left-to-right constant chains
  (``cycles = cycles + c3 + c4``) that perform the **same float
  additions in the same order** as the interpreter — never
  reassociated, never pre-summed, which is what keeps results
  bit-identical;
* evaluates ``Work`` bursts in closed form (``amount * expansion``,
  then the burst's cycle/instret contributions) exactly as the
  interpreter does, iteration by iteration so float accumulation
  order is preserved;
* inlines operand access (registers, frame slots), DSM residency
  pre-checks, and operator semantics from the shared
  :mod:`repro.ir.semantics` tables;
* checks the remaining slice budget before every chunk and hands
  control back to the engine shell at calls, returns, migrations,
  syscalls, and slice exhaustion.

One emitter, :meth:`_RegionBuilder.gen_chunk`, lowers every
instruction kind once, in one of two accounting modes: *closed form*
(chained costs behind one budget gate per chunk) and *per
instruction* (a budget check and a cost statement per instruction),
which a whole-function region enters when the remaining budget cannot
cover the closed form, so the slice ends inside compiled code.
Single-chunk resume stubs hand such a tail to the inherited
``_interp_slice`` instead (``_TAIL``).

The scheduler, commit points, slice structure (256-instruction
budget), syscall layer, migration path, and DSM are all inherited
unchanged, which is why every ``RunResult`` fact and golden checksum
is reproduced bit for bit.

Cross-validation (``REPRO_VALIDATE=1``): regions shrink to single
closed-form chunks and, after each one runs, the engine replays its
instruction range against the *exact* interpreter's independently
derived cycle tables, raising :class:`FastForwardDivergence` on the
first cycles/instret mismatch — this is what catches a stale or
corrupted block summary.  A short-budget tail goes to the exact
interpreter (``_TAIL``) rather than the per-instruction mode, so that
mode is covered by the fast/exact equivalence tests, not by the
replay; its lowering is the same code the replay checks.
"""

from typing import Dict, List, Tuple

from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Br,
    CBr,
    Call,
    Const,
    InlineAsm,
    Load,
    MigPoint,
    Ret,
    StackAlloc,
    Store,
    Syscall,
    UnOp,
    Work,
)
from repro.ir.semantics import truncdiv
from repro.ir.summary import block_summaries
from repro.isa.isa import InstrClass
from repro.runtime.execution import ExecutionEngine, ExecutionError
from repro.validate import enabled as _validate_enabled
from repro.validate.errors import InvariantViolation


class FastForwardDivergence(InvariantViolation):
    """The fast path disagreed with the exact interpreter's accounting.

    Raised only under ``REPRO_VALIDATE=1``, where every compiled
    segment is replayed lock-step against the exact engine's cycle
    tables.  In practice this means a block summary no longer matches
    the IR it claims to summarize.
    """

    def __init__(self, detail: str, state=None):
        super().__init__("fastforward", "segment-accounting", detail, state)


def _f2i(a):
    """``f2i`` with the interpreter's exact error behaviour."""
    try:
        return int(a)
    except ValueError as exc:
        raise ExecutionError(str(exc)) from None


# Region exit kinds (first element of the return tuple).
_DONE = 0  # slice budget exhausted in a partial chunk; pc already set
_SHELL = 1  # pc parked at a syscall; finish the slice exactly
_MIGRATE = 2  # a = target machine, b = site_id
_CALL = 3  # a = Call instr, b = evaluated args
_RET = 4  # a = return value
_RESUME = 5  # a, b = next (block, index); continue fast-forwarding
_TAIL = 6  # a, b = next (block, index); budget too small, finish exactly

# Operator expression templates, mirroring repro.ir.semantics exactly.
# div/mod expand C-style truncation inline (same quotients/remainders
# and the same ZeroDivisionError as ``semantics.truncdiv``, without a
# Python call per operation).
_INT_EXPR = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "div": (
        "((int({a}) // int({b})) if (int({a}) < 0) == (int({b}) < 0)"
        " else -(-int({a}) // int({b})))"
    ),
    "mod": (
        "((int({a}) % int({b})) if (int({a}) % int({b})) == 0"
        " or (int({a}) >= 0) == (int({b}) >= 0)"
        " else (int({a}) % int({b})) - int({b}))"
    ),
    "and": "(int({a}) & int({b}))",
    "or": "(int({a}) | int({b}))",
    "xor": "(int({a}) ^ int({b}))",
    "shl": "((int({a}) << int({b})) & 0xFFFFFFFFFFFFFFFF)",
    "shr": "(int({a}) >> int({b}))",
    "eq": "(1 if {a} == {b} else 0)",
    "ne": "(1 if {a} != {b} else 0)",
    "lt": "(1 if {a} < {b} else 0)",
    "le": "(1 if {a} <= {b} else 0)",
    "gt": "(1 if {a} > {b} else 0)",
    "ge": "(1 if {a} >= {b} else 0)",
    "min": "min({a}, {b})",
    "max": "max({a}, {b})",
}
_FLOAT_EXPR = dict(_INT_EXPR)
_FLOAT_EXPR.update(
    {
        "div": "({a} / {b})",
        "mod": "(({a} - {b} * int({a} / {b})) if {b} else 0.0)",
    }
)
_UNOP_EXPR = {
    "mov": "{a}",
    "neg": "(-{a})",
    "not": "(~int({a}))",
    "i2f": "float({a})",
    "f2i": "_f2i({a})",
    "sqrt": "(abs({a}) ** 0.5)",
    "abs": "abs({a})",
}


# source text -> compiled code object, shared process-wide.
_CODE_CACHE: Dict[str, object] = {}


class _Region:
    """A compiled dispatch function plus the entry label to start at."""

    __slots__ = ("fn", "entry")

    def __init__(self, fn, entry: int):
        self.fn = fn
        self.entry = entry

    def at_entry(self, entry: int) -> "_Region":
        """The same compiled function, entered at label ``entry``."""
        return _Region(self.fn, entry)


class _RegionBuilder:
    """Generates the Python source for one region of a machine function.

    ``single=True`` builds a one-chunk region whose branch exits always
    return to the trampoline: used for mid-block resume stubs (cheap to
    compile, executed once per resume) and for all validating builds
    (the lock-step replay needs one linear instruction range).
    ``single=False`` builds the whole function — every block — as one
    dispatch loop entered via a label parameter, so loops iterate
    entirely inside compiled code and each machine function compiles
    exactly once per CPU model.
    """

    def __init__(self, engine, mf, cpu, validating: bool, single: bool):
        self.engine = engine
        self.mf = mf
        self.cpu = cpu
        self.validating = validating
        self.single = single or validating
        self.loc = engine._locations(mf)
        self.summaries = block_summaries(mf)
        # Physical register -> region-local variable.  Register traffic
        # is the hottest state access; inside a region registers live
        # in Python locals and are written back to ``thread.regs`` once
        # at region exit (the engine shell and ``_push_frame`` /
        # ``_pop_frame`` read the dict between regions).  Keyed by
        # *physical* register so IR variables sharing one register
        # share one local, exactly like the dict they replace.
        self.regmap: Dict[str, str] = {}
        for var in mf.fn.var_types:
            where = self.loc[var]
            if where[0] == "r" and where[1] not in self.regmap:
                self.regmap[where[1]] = f"_g{len(self.regmap)}"
        self.ns: Dict[str, object] = {
            "_truncdiv": truncdiv,
            "_f2i": _f2i,
            "_mf": mf,
        }
        self.lines: List[str] = []
        self.pend_c: List[str] = []  # pending cycle-constant chain terms
        self.pend_i: List[str] = []  # pending instret-constant chain terms
        self._tmp = 0
        # (block, start index, partial?) -> dispatch label.  Partial
        # chunks step instructions one at a time with budget checks —
        # the compiled equivalent of the interpreter finishing a slice.
        self.labels: Dict[Tuple[str, int, bool], int] = {}
        self.worklist: List[Tuple[str, int, bool]] = []

    # --------------------------------------------------- emit helpers

    def emit(self, line: str, depth: int = 0) -> None:
        """Append one source line, indented ``depth`` levels."""
        self.lines.append("    " * depth + line)

    def fresh(self) -> str:
        """A new region-local temporary name."""
        self._tmp += 1
        return f"t{self._tmp}"

    def intern(self, obj) -> str:
        """Bind a constant object into the region's namespace."""
        name = f"_k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def flush(self, depth: int = 0) -> None:
        """Emit the pending cycle and instret chains, then clear them."""
        # One chained statement == the same sequence of left-to-right
        # binary additions the interpreter performs; folding the
        # constants into one sum would reassociate and break
        # bit-identity.
        if self.pend_c:
            self.emit("cycles = cycles + " + " + ".join(self.pend_c), depth)
            del self.pend_c[:]
        if self.pend_i:
            self.emit("instret = instret + " + " + ".join(self.pend_i), depth)
            del self.pend_i[:]

    def resident(self, addr: str, write: bool, depth: int = 0) -> None:
        """Emit the DSM residency pre-check for the word at ``addr``.

        A page already in the thread's read (``_c1``) or write (``_c2``)
        set costs nothing; otherwise ``_dsm_charge`` faults it in and
        the cost lands in ``extra``, as in ``_interp_slice``.
        """
        self.emit(f"if ({addr} >> 12) not in _c{2 if write else 1}:", depth)
        self.emit(f"    extra = extra + _dc(thread, {addr}, {write})", depth)

    def read(self, op, depth: int = 0) -> str:
        """Emit the load of operand ``op``; return an expression for it."""
        if not isinstance(op, str):
            return repr(op)
        where = self.loc[op]
        if where[0] == "r":
            return self.regmap[where[1]]
        t = self.fresh()
        self.emit(f"{t}a = cfa - {where[1]}", depth)
        self.resident(f"{t}a", False, depth)
        self.emit(f"{t} = _mg({t}a, 0)", depth)
        return t

    def write(self, name: str, expr: str, depth: int = 0) -> None:
        """Emit the store of ``expr`` to variable ``name``."""
        where = self.loc[name]
        if where[0] == "r":
            self.emit(f"{self.regmap[where[1]]} = {expr}", depth)
            return
        t = self.fresh()
        self.emit(f"{t} = {expr}", depth)
        self.emit(f"{t}a = cfa - {where[1]}", depth)
        self.resident(f"{t}a", True, depth)
        self.emit(f"mem[{t}a] = {t}", depth)

    # ------------------------------------------------- region growing

    def label_for(self, block: str, start: int, partial: bool = False) -> int:
        """Dispatch label of a chunk, queueing it for generation."""
        key = (block, start, partial)
        label = self.labels.get(key)
        if label is None:
            label = len(self.labels)
            self.labels[key] = label
            self.worklist.append(key)
        return label

    def jump(self, block: str, depth: int) -> None:
        """Transfer to ``(block, 0)``.

        Whole-function builds dispatch in-region (every block has a
        label), so loops never leave compiled code.  Single-chunk
        builds always return to the trampoline: resume stubs hand over
        to the whole-function region after one chunk, and validating
        builds need ``(entry, consumed)`` to describe one linear
        range, which an in-region loop (even a self-loop) would break.
        """
        if self.single:
            self.emit(
                f"_rv = (5, {block!r}, 0, budget, cycles, instret, extra)",
                depth,
            )
            self.emit("break", depth)
            return
        label = self.label_for(block, 0)
        self.emit(f"_L = {label}", depth)
        self.emit("continue", depth)

    # ------------------------------------------------ chunk generation

    def gen_chunk(self, block: str, start: int, partial: bool) -> None:
        """Generate one chunk: instructions from ``start`` to the
        chunk's exit (branch, call, return, syscall, or block end).

        The generated statements perform the same state updates and
        the same per-accumulator float additions, in the same order,
        as ``_interp_slice`` stepping the same instructions.  The two
        modes differ only in accounting:

        * closed form (``partial=False``): cycle and instret terms join
          the pending chains, one budget gate up front decides whether
          the whole chunk fits the slice, and exits report
          ``budget - n`` for the ``n`` instructions consumed;
        * per instruction (``partial=True``), entered when the closed
          form does not fit: the budget is checked and decremented
          before every instruction and each cost is added in its own
          statement (the interpreter's ``cycles += tab[idx]``), so the
          slice ends inside compiled code (``_DONE``); branch exits
          enter the target's closed-form chunk and its gate.
        """
        mf = self.mf
        cpu = self.cpu
        cyc = self.summaries[block].cycles_per_instr(cpu)
        instrs = mf.fn.blocks[block].instrs
        emit, read, write = self.emit, self.read, self.write

        if partial:
            def cost(term: str) -> None:
                emit(f"cycles = cycles + {term}")

            def count(term: str) -> None:
                emit(f"instret = instret + {term}")

            def left(n: int) -> str:
                return "budget"
        else:
            cost, count = self.pend_c.append, self.pend_i.append

            def left(n: int) -> str:
                return f"budget - {n}"

            # Budget gate: the whole chunk runs in closed form or not
            # at all, which preserves the slice structure bit for bit.
            consume = self._chunk_consume(instrs, start)
            if consume:
                emit(f"if budget < {consume}:")
                if self.single:
                    # Validating builds and resume stubs leave the
                    # short-budget tail to the exact interpreter.
                    emit(
                        f"    _rv = (6, {block!r}, {start}, budget, "
                        "cycles, instret, extra)"
                    )
                    emit("    break")
                else:
                    # Finish the slice in the per-instruction variant
                    # of this same chunk.
                    emit(f"    _L = {self.label_for(block, start, True)}")
                    emit("    continue")

        k = start
        while True:
            instr = instrs[k]
            cls = instr.__class__
            n = k - start + 1  # budget consumed through this instruction

            if cls is Syscall:
                # Stop *before* the syscall: the exact interpreter
                # handles it (blocking, wakes, process exit) and
                # charges its budget/cycles itself.
                self.flush()
                emit(f"thread.pc = ({block!r}, {k})")
                emit(f"_rv = (1, 0, 0, {left(n - 1)}, cycles, instret, extra)")
                emit("break")
                return

            if partial:
                emit("if budget == 0:")
                emit(f"    thread.pc = ({block!r}, {k})")
                emit("    _rv = (0, 0, 0, 0, cycles, instret, extra)")
                emit("    break")
                emit("budget = budget - 1")
            cost(repr(cyc[k]))

            if cls is BinOp:
                a = read(instr.a)
                b = read(instr.b)
                table = _FLOAT_EXPR if instr.vt.is_float else _INT_EXPR
                write(instr.dst, table[instr.op].format(a=a, b=b))
                count("1")
                k += 1
            elif cls is Load:
                a = read(instr.addr)
                t = self.fresh()
                emit(f"{t} = int({a}) + {instr.offset}")
                self.resident(t, False)
                write(instr.dst, f"_mg({t}, 0)")
                count("1")
                k += 1
            elif cls is Store:
                a = read(instr.addr)
                t = self.fresh()
                emit(f"{t} = int({a}) + {instr.offset}")
                self.resident(t, True)
                s = read(instr.src)
                emit(f"mem[{t}] = {s}")
                count("1")
                k += 1
            elif cls is Const:
                write(instr.dst, repr(instr.value))
                count("1")
                k += 1
            elif cls is UnOp:
                a = read(instr.a)
                write(instr.dst, _UNOP_EXPR[instr.op].format(a=a))
                count("1")
                k += 1
            elif cls is Work:
                am = read(instr.amount)
                wcls = InstrClass(instr.kind)
                expansion = mf.isa.expansion(wcls)
                cpi = cpu.cpi.get(wcls, 1.0)
                t = self.fresh()
                emit(f"{t} = {am} * {expansion!r}")
                # Static costs precede the burst's, as exactly stepped.
                self.flush()
                emit(f"cycles = cycles + {t} * {cpi!r}")
                emit(f"instret = instret + {t}")
                if self.validating:
                    emit(f"dyn.append({am})")
                if instr.pages is not None:
                    p = read(instr.pages)
                    iname = self.intern(instr)
                    emit(
                        f"extra = extra + self._touch_range"
                        f"(thread, {iname}, int({p}))"
                    )
                k += 1
            elif cls is CBr:
                c = read(instr.cond)
                count("2")
                self.flush()
                if not partial:
                    emit(f"budget = budget - {n}")
                emit(f"if {c}:")
                self.jump(instr.if_true, 1)
                self.jump(instr.if_false, 0)
                return
            elif cls is Br:
                count("1")
                self.flush()
                if not partial:
                    emit(f"budget = budget - {n}")
                self.jump(instr.target, 0)
                return
            elif cls is MigPoint:
                count("5")
                self.flush()
                t = self.fresh()
                emit(f"{t} = _rt(_tid)")
                emit("if _hk is not None:")
                emit(
                    f"    _hk(thread, {mf.name!r}, {instr.point_id}, "
                    "thread.instructions + instret)"
                )
                emit(f"if {t} is not None and {t} != _mn:")
                emit(f"    thread.pc = ({block!r}, {k + 1})")
                emit(
                    f"    _rv = (2, {t}, {instr.site_id}, {left(n)}, "
                    "cycles, instret, extra)"
                )
                emit("    break")
                k += 1
            elif cls is Call:
                self.flush()
                args = [read(a) for a in instr.args]
                emit(f"frame.resume = ({block!r}, {k})")
                emit(f"frame.call_site_id = {instr.site_id}")
                emit(f"thread.pc = ({block!r}, {k})")
                iname = self.intern(instr)
                emit(
                    f"_rv = (3, {iname}, [{', '.join(args)}], "
                    f"{left(n)}, cycles, instret, extra)"
                )
                emit("break")
                return
            elif cls is Ret:
                v = read(instr.value) if instr.value is not None else "0"
                epilogue = len(mf.frame.saved_reg_depths) + 2
                cost(repr(epilogue * cpu.cpi.get(InstrClass.LOAD, 1.0)))
                count(str(3 + epilogue))
                self.flush()
                emit(f"_rv = (4, {v}, 0, {left(n)}, cycles, instret, extra)")
                emit("break")
                return
            elif cls is AddrOf:
                t = self.fresh()
                emit(
                    f"{t} = self._resolve_symbol"
                    f"(thread, _mf, frame, {instr.symbol!r})"
                )
                write(instr.dst, t)
                count("1")
                k += 1
            elif cls is StackAlloc:
                depth = mf.frame.buffer_depths[instr.name][0]
                write(instr.dst, f"cfa - {depth}")
                count("1")
                k += 1
            elif cls is InlineAsm:
                count(str(instr.instr_estimate))
                k += 1
            else:  # pragma: no cover
                raise ExecutionError(
                    f"fast-forward: unknown instruction {cls.__name__}"
                )

    @staticmethod
    def _chunk_consume(instrs, start: int) -> int:
        """Slice budget the chunk consumes when it completes."""
        k = start
        while True:
            cls = instrs[k].__class__
            if cls is Syscall:
                return k - start
            if cls in (Br, CBr, Call, Ret):
                return k - start + 1
            k += 1

    # ----------------------------------------------------------- build

    def build(self, entry_block: str, entry_start: int) -> _Region:
        """Generate, compile and load the region entered at
        ``(entry_block, entry_start)``; chunks are generated from a
        worklist until every label they jump to exists."""
        if not self.single:
            # Whole-function build: one label per block, one compile
            # per (machine function, CPU model) for the whole run.
            for b in self.mf.fn.blocks:
                self.label_for(b, 0)
        entry = self.label_for(entry_block, entry_start)
        chunks: List[Tuple[int, List[str]]] = []
        while self.worklist:
            block, start, partial = self.worklist.pop(0)
            label = self.labels[(block, start, partial)]
            self.lines = []
            self.gen_chunk(block, start, partial)
            assert not self.pend_c and not self.pend_i
            chunks.append((label, self.lines))

        params = (
            "self, thread, frame, regs, mem, cache, "
            "budget, cycles, instret, extra, entry"
        )
        if self.validating:
            params += ", dyn"
        out = [f"def _region({params}):"]
        out.append("    cfa = frame.cfa")
        out.append("    _dc = self._dsm_charge")
        out.append("    _mg = mem.get")
        out.append("    _rt = self.process.vdso.read_target")
        out.append("    _hk = self.hooks.on_migration_point")
        out.append("    _tid = thread.tid")
        out.append("    _mn = thread.machine_name")
        out.append("    _c1 = cache[1]")
        out.append("    _c2 = cache[2]")
        out.append("    _rg = regs.get")
        # Registers enter as locals.  ``None`` marks "absent from the
        # dict and never written here": the epilogue skips those so the
        # dict's key set — visible to checkpoint images and migration —
        # is exactly what per-instruction interpretation leaves behind.
        for reg, local in self.regmap.items():
            out.append(f"    {local} = _rg({reg!r})")
        out.append("    _L = entry")
        out.append("    while True:")
        for i, (label, lines) in enumerate(sorted(chunks)):
            kw = "if" if i == 0 else "elif"
            out.append(f"        {kw} _L == {label}:")
            for line in lines:
                out.append("            " + line)
        for reg, local in self.regmap.items():
            out.append(f"    if {local} is not None: regs[{reg!r}] = {local}")
        out.append("    return _rv")
        source = "\n".join(out) + "\n"
        if self.single:
            filename = (
                f"<fastforward {self.mf.name}:{entry_block}:{entry_start}"
                f":{self.cpu.name}>"
            )
        else:
            filename = f"<fastforward {self.mf.name}:{self.cpu.name}>"
        # Code objects are pure functions of the source text; identical
        # rebuilds (same workload run again, tests, benchmarks) reuse
        # the compiled object instead of paying ``compile`` again.
        code = _CODE_CACHE.get(source)
        if code is None:
            code = compile(source, filename, "exec")
            _CODE_CACHE[source] = code
        exec(code, self.ns)
        return _Region(self.ns["_region"], entry)


class FastExecutionEngine(ExecutionEngine):
    """Drop-in engine running compiled regions between shell events."""

    # ------------------------------------------------------------ slice

    def _run_slice(self, thread) -> None:
        machine = self._slice_preamble(thread)
        process = self.process
        mem = process.space._mem
        cpu = machine.cpu
        regs = thread.regs
        budget = self.batch
        cycles = 0.0
        instret = 0.0
        extra = 0.0
        cache = self._cache_for(thread.tid, process.dsm.epoch)
        frame = thread.frames[-1]
        mf = frame.mf
        block, idx = thread.pc
        validating = _validate_enabled()

        while budget > 0:
            regions = self._region_table(mf, cpu, validating)
            region = regions.get((block, idx))
            if region is None:
                builder = _RegionBuilder(
                    self, mf, cpu, validating, single=idx != 0
                )
                region = builder.build(block, idx)
                if builder.single:
                    regions[(block, idx)] = region
                else:
                    # One compiled function serves every block entry of
                    # this machine function; share it under each key.
                    for (b, s, partial), label in builder.labels.items():
                        if not partial:
                            regions[(b, s)] = region.at_entry(label)
                    region = regions[(block, idx)]
            if validating:
                dyn: List[float] = []
                kind, a, b, nbudget, ncycles, ninstret, extra = region.fn(
                    self, thread, frame, regs, mem, cache,
                    budget, cycles, instret, extra, region.entry, dyn,
                )
                self._validate_segment(
                    mf, cpu, block, idx, budget - nbudget, dyn,
                    cycles, instret, ncycles, ninstret,
                )
                budget, cycles, instret = nbudget, ncycles, ninstret
            else:
                kind, a, b, budget, cycles, instret, extra = region.fn(
                    self, thread, frame, regs, mem, cache,
                    budget, cycles, instret, extra, region.entry,
                )
            if kind == _DONE:
                # Slice exhausted inside a compiled partial chunk; the
                # region already stored thread.pc.
                self._commit(thread, machine, cycles, instret, extra)
                return
            elif kind == _RESUME:
                block, idx = a, b
            elif kind == _TAIL:
                # Not enough slice left to run the next block in
                # closed form: finish the slice with the exact
                # interpreter so the 256-instruction slice structure
                # (and hence the scheduler interleaving) is preserved.
                thread.pc = (a, b)
                self._interp_slice(thread, machine, budget, cycles, instret, extra)
                return
            elif kind == _CALL:
                callee = self._push_frame(thread, mf, frame, a, b, mem)
                frame = thread.frames[-1]
                mf = callee
                block, idx = thread.pc
                cycles += cpu.cycles_for(mf.prologue_counts)
                instret += sum(mf.prologue_counts.values())
            elif kind == _RET:
                done = self._pop_frame(thread, a, mem, cpu)
                if done:
                    self._commit(thread, machine, cycles, instret, extra)
                    self._thread_finished(thread, a)
                    return
                frame = thread.frames[-1]
                mf = frame.mf
                block, idx = thread.pc
            elif kind == _SHELL:
                # Parked at a syscall: the exact interpreter executes
                # it (and the rest of the slice) with shared state.
                self._interp_slice(thread, machine, budget, cycles, instret, extra)
                return
            else:  # _MIGRATE — pc already advanced past the point
                self._commit(thread, machine, cycles, instret, extra)
                self._do_migration(thread, a, b)
                return

        thread.pc = (block, idx)
        self._commit(thread, machine, cycles, instret, extra)

    # ---------------------------------------------------------- tables

    def _region_table(self, mf, cpu, validating: bool) -> Dict:
        cache = getattr(mf, "_fast_segments", None)
        if cache is None:
            cache = {}
            mf._fast_segments = cache
        key = (cpu.name, validating)
        regions = cache.get(key)
        if regions is None:
            regions = {}
            cache[key] = regions
        return regions

    # ----------------------------------------------- cross-validation

    def _validate_segment(
        self,
        mf,
        cpu,
        block: str,
        start: int,
        consumed: int,
        dyn: List[float],
        cycles0: float,
        instret0: float,
        cycles1: float,
        instret1: float,
    ) -> None:
        """Replay a segment against the exact engine's cycle tables.

        The replay starts from the same accumulator values and performs
        the interpreter's additions in the interpreter's order, using
        the independently derived ``_cycles`` tables (not the block
        summaries the compiled code was generated from).  Any
        difference — a corrupted summary constant, a wrong expansion
        factor, a miscounted instruction — surfaces as a bitwise
        mismatch.

        Under validation, regions are single straight-line chunks, so
        ``(start, consumed)`` fully determines the executed range.
        """
        instrs = mf.fn.blocks[block].instrs
        tab = self._cycles(mf, cpu)[block]
        cyc = cycles0
        ins = instret0
        di = 0
        for k in range(start, start + consumed):
            instr = instrs[k]
            cls = instr.__class__
            cyc += tab[k]
            if cls is Work:
                wcls = InstrClass(instr.kind)
                expanded = dyn[di] * mf.isa.expansion(wcls)
                di += 1
                cyc += expanded * cpu.cpi.get(wcls, 1.0)
                ins += expanded
            elif cls is CBr:
                ins += 2
            elif cls is Br:
                ins += 1
            elif cls is MigPoint:
                ins += 5
            elif cls is InlineAsm:
                ins += instr.instr_estimate
            elif cls is Call:
                pass  # the shell charges the callee prologue
            elif cls is Ret:
                epilogue = len(mf.frame.saved_reg_depths) + 2
                cyc += epilogue * cpu.cpi.get(InstrClass.LOAD, 1.0)
                ins += 3 + epilogue
            else:
                ins += 1
        if cyc != cycles1 or ins != instret1:
            raise FastForwardDivergence(
                f"segment {mf.name}:{block}@{start} (+{consumed} instrs) "
                f"on {cpu.name}: fast path reported cycles={cycles1!r} "
                f"instret={instret1!r}, exact replay gives cycles={cyc!r} "
                f"instret={ins!r}",
                state={
                    "function": mf.name,
                    "block": block,
                    "start": start,
                    "consumed": consumed,
                    "fast_cycles": cycles1,
                    "exact_cycles": cyc,
                    "fast_instret": instret1,
                    "exact_instret": ins,
                },
            )
