"""The execution engine: pc/npc CPUs for SPARC and MIPS.

Both CPUs use the architectural pc/npc pair, which makes delayed branches
and annulment fall out naturally: a taken transfer replaces *npc* while
the delay-slot instruction (at the old npc) still executes; an annulled
untaken branch skips it.

For speed, each distinct decoded instruction is compiled once into a
closure ("prepared op"); the flyweight instruction cache keeps the number
of closures small.
"""

from repro.binfmt import layout
from repro.env import env_choice
from repro.isa import bits, get_codec
from repro.isa.base import Category
from repro.obs import metrics as _metrics
from repro.obs.trace import TRACER as _TRACER
from repro.obs.trace import span as _span
from repro.sim.memory import Memory, MemoryFault
from repro.sim.syscalls import ExitProgram, SyscallHandler

M32 = 0xFFFFFFFF

_C_INSTRUCTIONS = _metrics.counter("sim.instructions")
_C_FLY_HITS = _metrics.counter("sim.flyweight.hits")
_C_FLY_MISSES = _metrics.counter("sim.flyweight.misses")
_C_FLY_COMPILES = _metrics.counter("sim.flyweight.compiles")
_C_FLY_EVICTIONS = _metrics.counter("sim.flyweight.evictions")
# Block-engine counters and the CPU attribute each one mirrors; the
# fallback.* ones say why the engine single-stepped.
_C_BLOCKS = tuple(
    (_metrics.counter("sim.blocks." + name), attr) for name, attr in (
        ("hits", "block_hits"), ("misses", "block_misses"),
        ("compiles", "block_compiles"), ("evictions", "block_evictions"),
        ("invalidations", "block_invalidations"),
        ("fallback.cold", "fallback_cold"),
        ("fallback.budget", "fallback_budget"),
        ("fallback.uncompilable", "fallback_uncompilable"),
        ("fallback.resume", "fallback_resume")))
_C_RUNS = _metrics.counter("sim.runs")

# Default cap on prepared-op closures per CPU.  Large enough that a
# whole program compiles once (hit rates stay ~1), small enough that a
# long-lived session simulating many binaries cannot grow without bound.
PREPARED_CACHE_CAP = 4096

# Block-engine defaults: compiled blocks cached per CPU, and the
# maximum instructions fused into one block (also the conservative
# bound the budget check uses before entering a block).
BLOCK_CACHE_CAP = 1024
BLOCK_MAX_LEN = 48

# Execution engines: "block" compiles basic blocks to specialized
# Python (repro.sim.blocks), "handwritten" is the seed per-instruction
# interpreter, "spawn" derives per-instruction semantics from the
# machine description (no block compilation — see repro.spawn.executor).
ENGINES = ("block", "handwritten", "spawn")
DEFAULT_ENGINE = "block"


def default_engine():
    """The engine used when a Simulator is built without an explicit
    choice: ``$REPRO_SIM_ENGINE`` when set to a valid engine name,
    else ``"block"``."""
    return env_choice("REPRO_SIM_ENGINE", DEFAULT_ENGINE, ENGINES)


class SimulationError(Exception):
    """Illegal instruction, window underflow, runaway program, etc."""


class SimulationTimeout(SimulationError):
    """The step budget ran out before the program exited.

    Distinct from other simulation errors so callers (notably the
    verify cosimulation oracle) can tell "diverged" from "ran long",
    and carries where execution was when the budget expired.
    """

    def __init__(self, pc, steps):
        super().__init__(
            "program ran %d steps without exiting (pc 0x%x)" % (steps, pc))
        self.pc = pc
        self.steps = steps


class Simulator:
    """Load an EELF executable and execute it."""

    def __init__(self, image, stdin_text="", max_steps=50_000_000,
                 count_pcs=False, mem_hook=None, brk_base=None,
                 engine=None, prepared_cache_cap=PREPARED_CACHE_CAP,
                 strict_memory=False, block_cache_cap=BLOCK_CACHE_CAP,
                 block_max_len=BLOCK_MAX_LEN):
        self.image = image
        # A zero or negative cap would evict the entry just inserted
        # (the only one), recompiling every instruction forever while
        # the hit counters read as all-miss — a configuration error,
        # not a mode.
        if prepared_cache_cap < 1:
            raise ValueError("prepared_cache_cap must be >= 1, got %r"
                             % (prepared_cache_cap,))
        if block_cache_cap < 1:
            raise ValueError("block_cache_cap must be >= 1, got %r"
                             % (block_cache_cap,))
        if block_max_len < 1:
            raise ValueError("block_max_len must be >= 1, got %r"
                             % (block_max_len,))
        self.prepared_cache_cap = prepared_cache_cap
        self.block_cache_cap = block_cache_cap
        self.block_max_len = block_max_len
        self.memory = Memory(strict=strict_memory)
        for section in image.sections.values():
            if section.flags & 4:  # SEC_NOBITS: zero pages materialize lazily
                continue
            self.memory.write_bytes(section.vaddr, bytes(section.data))
        if brk_base is not None:
            self.brk = brk_base
        else:
            self.brk = layout.align_up(
                image.address_limit() + layout.HEAP_GAP, 16
            )
        self.max_steps = max_steps
        self.instructions_executed = 0
        # High-water marks of what _record_telemetry already merged into
        # the process-wide counters (the simulator's own totals stay
        # cumulative; the registry only ever receives deltas).
        self._reported_instructions = 0
        self._reported_compiles = 0
        self._reported_evictions = 0
        self._reported_fly_hits = 0
        self._reported_blocks = {}
        self._reported_categories = {}
        self.count_pcs = count_pcs
        self.pc_counts = {}
        self.mem_hook = mem_hook
        self.syscalls = SyscallHandler(self, stdin_text=stdin_text)
        if engine is None:
            engine = default_engine()
        self.engine = engine
        if engine == "spawn":
            # Description-driven execution: semantics come from the spawn
            # machine description instead of the handwritten CPU model.
            # Per-instruction by design (the description has no block
            # view); it still gets the shared dispatch-loop fixes.
            from repro.spawn.executor import SpawnCPU

            self.cpu = SpawnCPU(self)
        elif engine == "block":
            from repro.sim.blocks import BlockMipsCPU, BlockSparcCPU

            if image.arch == "sparc":
                self.cpu = BlockSparcCPU(self)
            elif image.arch == "mips":
                self.cpu = BlockMipsCPU(self)
            else:
                raise SimulationError("no CPU model for arch %r"
                                      % image.arch)
        elif engine == "handwritten":
            if image.arch == "sparc":
                self.cpu = SparcCPU(self)
            elif image.arch == "mips":
                self.cpu = MipsCPU(self)
            else:
                raise SimulationError("no CPU model for arch %r"
                                      % image.arch)
        else:
            raise ValueError("unknown engine %r (expected one of %s)"
                             % (engine, ", ".join(ENGINES)))

    def sbrk(self, increment):
        old = self.brk
        self.brk = (self.brk + bits.to_s32(increment) + 15) & ~15
        return old

    @property
    def output(self):
        return self.syscalls.output

    @property
    def exit_code(self):
        return self.syscalls.exit_code

    def run(self):
        """Execute until exit; returns the exit code."""
        try:
            with _span("sim.run", arch=self.image.arch) as sp:
                try:
                    self.cpu.run()
                except ExitProgram as exit_request:
                    self.syscalls.exit_code = exit_request.code
                    sp.set(exit_code=exit_request.code,
                           instructions=self.instructions_executed)
                    return exit_request.code
        finally:
            self._record_telemetry()
        # Cumulative work, not the per-call budget: a resumed run that
        # times out again reports everything executed so far.
        raise SimulationTimeout(self.cpu.pc, self.instructions_executed)

    def _record_telemetry(self):
        """Flush flyweight/instruction metrics accrued since last flush.

        ``instructions_executed``, ``compiles``, and ``evictions`` are
        cumulative over the simulator's lifetime, but a simulator can
        be flushed more than once — the cosim oracle flushes after its
        stepping loop, a timed-out run can be resumed and re-run, and
        the serve daemon reuses nothing but still funnels many runs
        through one metrics registry.  Merging the raw totals would
        re-count everything already reported, so only the delta since
        the previous flush is merged.
        """
        cpu = self.cpu
        executed = self.instructions_executed - self._reported_instructions
        compiles = getattr(cpu, "compiles", 0)
        evictions = getattr(cpu, "evictions", 0)
        compiles_delta = compiles - self._reported_compiles
        evictions_delta = evictions - self._reported_evictions
        self._reported_instructions += executed
        self._reported_compiles = compiles
        self._reported_evictions = evictions
        _C_RUNS.inc()
        _C_INSTRUCTIONS.inc(executed)
        _C_FLY_COMPILES.inc(compiles_delta)
        _C_FLY_MISSES.inc(compiles_delta)
        fly_hits = getattr(cpu, "fly_hits", None)
        if fly_hits is None:
            # Per-instruction engines: every executed instruction either
            # hit the prepared cache or compiled, so the difference is
            # the exact hit count (the cap validation above guarantees
            # an insert is never its own eviction victim).
            _C_FLY_HITS.inc(executed - compiles_delta)
        else:
            # Block engine: most instructions execute inside compiled
            # blocks and never touch the prepared cache, so the CPU
            # counts its single-step hits exactly.
            _C_FLY_HITS.inc(fly_hits - self._reported_fly_hits)
            self._reported_fly_hits = fly_hits
        _C_FLY_EVICTIONS.inc(evictions_delta)
        for counter, attr in _C_BLOCKS:
            total = getattr(cpu, attr, 0)
            reported = self._reported_blocks.get(attr, 0)
            if total != reported:
                counter.inc(total - reported)
                self._reported_blocks[attr] = total
        categories = getattr(self.cpu, "category_counts", None)
        if categories:
            for category, count in categories.items():
                name = "sim.category.%s" % category.name.lower()
                reported = self._reported_categories.get(name, 0)
                self._reported_categories[name] = count
                _metrics.counter(name).inc(count - reported)


def run_image(image, stdin_text="", max_steps=50_000_000, count_pcs=False,
              strict_memory=False, engine=None):
    """Convenience: simulate *image* and return the finished Simulator."""
    simulator = Simulator(image, stdin_text=stdin_text, max_steps=max_steps,
                          count_pcs=count_pcs, strict_memory=strict_memory,
                          engine=engine)
    simulator.run()
    return simulator


class _BaseCPU:
    """Shared fetch/dispatch loop with prepared-op compilation."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.memory = simulator.memory
        self.codec = get_codec(simulator.image.arch)
        self.pc = simulator.image.entry
        self.npc = self.pc + 4
        self._prepared = {}
        self._prepared_cap = getattr(simulator, "prepared_cache_cap",
                                     PREPARED_CACHE_CAP)
        self.compiles = 0  # flyweight-cache misses (one compile each)
        self.evictions = 0  # prepared ops dropped by the size cap
        self.category_counts = None  # filled by the telemetry loop

    def run(self):
        # Telemetry is checked ONCE, out here: the disabled path below is
        # byte-for-byte the seed dispatch loop, so disabled telemetry
        # costs nothing per instruction.
        if _TRACER.enabled:
            self._run_counting()
            return
        simulator = self.simulator
        memory = self.memory
        decode = self.codec.decode
        prepared = self._prepared
        cap = self._prepared_cap
        # The budget is cumulative across resumed runs: a timed-out
        # simulator run() again continues with what remains of
        # max_steps, it does not get a fresh allowance.
        budget = simulator.max_steps - simulator.instructions_executed
        count_pcs = simulator.count_pcs
        pc_counts = simulator.pc_counts
        steps = 0
        while steps < budget:
            pc = self.pc
            if count_pcs:
                pc_counts[pc] = pc_counts.get(pc, 0) + 1
            word = memory.load(pc, 4)
            inst = decode(word)
            op = prepared.get(inst)
            if op is None:
                op = self._prepare(inst)
                prepared[inst] = op
                self.compiles += 1
                if len(prepared) > cap:
                    # Evict the oldest entry (insertion order); hits pay
                    # nothing for the cap, and a re-missed instruction
                    # simply recompiles and re-enters at the tail.
                    prepared.pop(next(iter(prepared)))
                    self.evictions += 1
            steps += 1
            # Kept current so the SYS_CYCLES trap can report it.
            simulator.instructions_executed += 1
            op()

    def run_until(self, stop_pcs, budget):
        """Execute until the next fetch pc lands in *stop_pcs*.

        The lockstep stepping hook for the verify cosimulation oracle:
        the caller advances two simulators sync point to sync point and
        compares architectural state between calls.  At least one
        instruction always executes (the current pc is typically itself
        a stop).  Raises :class:`SimulationTimeout` when *budget*
        instructions run without reaching a stop; ``ExitProgram``
        propagates to the caller.  Returns the instructions executed.
        """
        simulator = self.simulator
        memory = self.memory
        decode = self.codec.decode
        prepared = self._prepared
        cap = self._prepared_cap
        # The same counting split as run(): a cosim-driven run under
        # telemetry (or with count_pcs) must profile every stepped
        # instruction, not silently skip them.
        count_pcs = simulator.count_pcs
        pc_counts = simulator.pc_counts
        categories = None
        if _TRACER.enabled:
            categories = self.category_counts
            if categories is None:
                categories = self.category_counts = {}
        steps = 0
        while steps < budget:
            pc = self.pc
            if count_pcs:
                pc_counts[pc] = pc_counts.get(pc, 0) + 1
            word = memory.load(pc, 4)
            inst = decode(word)
            op = prepared.get(inst)
            if op is None:
                op = self._prepare(inst)
                prepared[inst] = op
                self.compiles += 1
                if len(prepared) > cap:
                    prepared.pop(next(iter(prepared)))
                    self.evictions += 1
            if categories is not None:
                categories[inst.category] = \
                    categories.get(inst.category, 0) + 1
            steps += 1
            simulator.instructions_executed += 1
            op()
            if self.pc in stop_pcs:
                return steps
        raise SimulationTimeout(self.pc, steps)

    def _run_counting(self):
        """The dispatch loop with per-category instruction accounting.

        Only entered when telemetry is enabled; the counts land in the
        ``sim.category.*`` counters when the run finishes (even on
        program exit, which unwinds through here as ExitProgram).
        """
        simulator = self.simulator
        memory = self.memory
        decode = self.codec.decode
        prepared = self._prepared
        cap = self._prepared_cap
        budget = simulator.max_steps - simulator.instructions_executed
        count_pcs = simulator.count_pcs
        pc_counts = simulator.pc_counts
        # Cumulative across resumed runs, like compiles/evictions: the
        # telemetry flush merges deltas, so the totals must only grow.
        categories = self.category_counts
        if categories is None:
            categories = self.category_counts = {}
        steps = 0
        while steps < budget:
            pc = self.pc
            if count_pcs:
                pc_counts[pc] = pc_counts.get(pc, 0) + 1
            word = memory.load(pc, 4)
            inst = decode(word)
            op = prepared.get(inst)
            if op is None:
                op = self._prepare(inst)
                prepared[inst] = op
                self.compiles += 1
                if len(prepared) > cap:
                    # Evict the oldest entry (insertion order); hits pay
                    # nothing for the cap, and a re-missed instruction
                    # simply recompiles and re-enters at the tail.
                    prepared.pop(next(iter(prepared)))
                    self.evictions += 1
            category = inst.category
            categories[category] = categories.get(category, 0) + 1
            steps += 1
            simulator.instructions_executed += 1
            op()

    def _advance(self):
        self.pc = self.npc
        self.npc += 4

    def _transfer(self, target):
        """Taken control transfer: the delay slot at npc still executes."""
        self.pc = self.npc
        self.npc = target

    def _transfer_annulled(self, target):
        """Transfer that annuls its delay slot (ba,a)."""
        self.pc = target
        self.npc = target + 4

    def _skip_delay(self):
        """Untaken annulled branch: skip the delay slot."""
        self.pc = self.npc + 4
        self.npc = self.pc + 4

    def _prepare(self, inst):
        raise NotImplementedError


# ----------------------------------------------------------------------
# SPARC
# ----------------------------------------------------------------------

def _sparc_cond_test(cond):
    """Return a function of (n, z, v, c) implementing branch condition."""
    tests = {
        "a": lambda n, z, v, c: True,
        "n": lambda n, z, v, c: False,
        "e": lambda n, z, v, c: z,
        "ne": lambda n, z, v, c: not z,
        "l": lambda n, z, v, c: bool(n ^ v),
        "le": lambda n, z, v, c: bool(z or (n ^ v)),
        "ge": lambda n, z, v, c: not (n ^ v),
        "g": lambda n, z, v, c: not (z or (n ^ v)),
        "cs": lambda n, z, v, c: bool(c),
        "leu": lambda n, z, v, c: bool(c or z),
        "gu": lambda n, z, v, c: not (c or z),
        "cc": lambda n, z, v, c: not c,
        "pos": lambda n, z, v, c: not n,
        "neg": lambda n, z, v, c: bool(n),
        "vs": lambda n, z, v, c: bool(v),
        "vc": lambda n, z, v, c: not v,
    }
    return tests[cond]


class SparcCPU(_BaseCPU):
    """SPARC V8 subset with unbounded register windows."""

    def __init__(self, simulator):
        super().__init__(simulator)
        self.r = [0] * 32
        self.windows = []  # stack of (locals, ins) tuples
        self.icc = (0, 0, 0, 0)  # n, z, v, c
        self.y = 0
        # Initial stack pointer.
        self.r[14] = layout.STACK_BASE - 64

    # -- register helpers -------------------------------------------------
    def read_reg(self, number):
        return self.r[number]

    def write_reg(self, number, value):
        if number:
            self.r[number] = value & M32

    def _set_cc_arith(self, a, b, result_wide, is_sub):
        result = result_wide & M32
        n = result >> 31
        z = 1 if result == 0 else 0
        if is_sub:
            v = ((a ^ b) & (a ^ result)) >> 31
            c = 1 if b > a else 0
        else:
            v = (~(a ^ b) & (a ^ result)) >> 31 & 1
            c = 1 if result_wide > M32 else 0
        self.icc = (n, z, v & 1, c)

    def _set_cc_logic(self, result):
        self.icc = (result >> 31, 1 if result == 0 else 0, 0, 0)

    # -- preparation ------------------------------------------------------
    def _prepare(self, inst):
        name = inst.name
        category = inst.category
        f = inst.f
        r = self.r

        if category is Category.INVALID:
            def illegal():
                raise SimulationError(
                    "illegal instruction 0x%08x at pc 0x%x" % (inst.word, self.pc)
                )
            return illegal

        if name == "sethi":
            rd = f["rd"]
            value = (f["imm22"] << 10) & M32
            def sethi():
                if rd:
                    r[rd] = value
                self._advance()
            return sethi

        if name in _SPARC_ALU:
            return self._prepare_alu(inst)
        if category is Category.BRANCH:
            return self._prepare_branch(inst)
        if name == "call":
            disp = f["disp30"] << 2
            def call():
                r[15] = self.pc
                self._transfer((self.pc + disp) & M32)
            return call
        if name == "jmpl":
            return self._prepare_jmpl(inst)
        if category.is_memory:
            return self._prepare_memory(inst)
        if name == "save":
            read2 = self._source2(inst)
            rs1 = f["rs1"]
            rd = f["rd"]
            def save():
                result = (r[rs1] + read2()) & M32
                self.windows.append((r[16:24], r[24:32]))
                r[24:32] = r[8:16]
                r[16:24] = [0] * 8
                r[8:16] = [0] * 8
                if rd:
                    r[rd] = result
                self._advance()
            return save
        if name == "restore":
            read2 = self._source2(inst)
            rs1 = f["rs1"]
            rd = f["rd"]
            def restore():
                if not self.windows:
                    raise SimulationError("register window underflow")
                result = (r[rs1] + read2()) & M32
                r[8:16] = r[24:32]
                saved_locals, saved_ins = self.windows.pop()
                r[16:24] = saved_locals
                r[24:32] = saved_ins
                if rd:
                    r[rd] = result
                self._advance()
            return restore
        if name == "ta":
            def trap():
                number = r[1]
                args = r[8:14]
                result = self.simulator.syscalls.dispatch(number, args)
                r[8] = result & M32
                self._advance()
            return trap
        if name == "rdpsr":
            rd = f["rd"]
            def rdpsr():
                n, z, v, c = self.icc
                if rd:
                    r[rd] = (n << 23) | (z << 22) | (v << 21) | (c << 20)
                self._advance()
            return rdpsr
        if name == "wrpsr":
            rs1 = f["rs1"]
            def wrpsr():
                value = r[rs1]
                self.icc = ((value >> 23) & 1, (value >> 22) & 1,
                            (value >> 21) & 1, (value >> 20) & 1)
                self._advance()
            return wrpsr
        raise SimulationError("no semantics for %s" % name)

    def _source2(self, inst):
        """Reader for the reg-or-immediate second source."""
        f = inst.f
        r = self.r
        if f.get("iflag"):
            value = f["simm13"] & M32
            return lambda: value
        rs2 = f["rs2"]
        return lambda: r[rs2]

    def _prepare_alu(self, inst):
        name = inst.name
        f = inst.f
        r = self.r
        rs1 = f["rs1"]
        rd = f["rd"]
        read2 = self._source2(inst)
        operation = _SPARC_ALU[name]
        sets_cc = name.endswith("cc")
        base = name[:-2] if sets_cc else name

        if base in ("add", "sub"):
            is_sub = base == "sub"
            def arith():
                a = r[rs1]
                b = read2()
                wide = a - b + 0x100000000 if is_sub else a + b
                if sets_cc:
                    self._set_cc_arith(a, b, wide, is_sub)
                if rd:
                    r[rd] = wide & M32
                self._advance()
            return arith

        if base in ("umul", "smul", "udiv", "sdiv"):
            def muldiv():
                a = r[rs1]
                b = read2()
                if base == "umul":
                    product = a * b
                    self.y = (product >> 32) & M32
                    result = product & M32
                elif base == "smul":
                    product = bits.to_s32(a) * bits.to_s32(b)
                    self.y = (product >> 32) & M32
                    result = product & M32
                elif base == "udiv":
                    if b == 0:
                        raise SimulationError("division by zero at 0x%x" % self.pc)
                    result = (a // b) & M32
                else:
                    if b == 0:
                        raise SimulationError("division by zero at 0x%x" % self.pc)
                    sa, sb = bits.to_s32(a), bits.to_s32(b)
                    quotient = abs(sa) // abs(sb)
                    if (sa < 0) != (sb < 0):
                        quotient = -quotient
                    result = quotient & M32
                if rd:
                    r[rd] = result
                self._advance()
            return muldiv

        def logic():
            result = operation(r[rs1], read2()) & M32
            if sets_cc:
                self._set_cc_logic(result)
            if rd:
                r[rd] = result
            self._advance()
        return logic

    def _prepare_branch(self, inst):
        f = inst.f
        disp = f["disp22"] << 2
        cond = inst.cond
        annulled = bool(f["aflag"])
        test = _sparc_cond_test(cond)

        if cond == "a":
            if annulled:
                def branch_always_annul():
                    self._transfer_annulled((self.pc + disp) & M32)
                return branch_always_annul
            def branch_always():
                self._transfer((self.pc + disp) & M32)
            return branch_always
        if cond == "n":
            if annulled:
                def branch_never_annul():
                    self._skip_delay()
                return branch_never_annul
            def branch_never():
                self._advance()
            return branch_never

        def branch():
            n, z, v, c = self.icc
            if test(n, z, v, c):
                self._transfer((self.pc + disp) & M32)
            elif annulled:
                self._skip_delay()
            else:
                self._advance()
        return branch

    def _prepare_jmpl(self, inst):
        f = inst.f
        r = self.r
        rs1 = f["rs1"]
        rd = f["rd"]
        read2 = self._source2(inst)
        def jmpl():
            target = (r[rs1] + read2()) & M32
            if rd:
                r[rd] = self.pc
            if target & 3:
                raise SimulationError("misaligned jump to 0x%x" % target)
            self._transfer(target)
        return jmpl

    def _prepare_memory(self, inst):
        f = inst.f
        r = self.r
        rs1 = f["rs1"]
        rd = f["rd"]
        read2 = self._source2(inst)
        width = inst.mem_width
        signed = inst.mem_signed
        is_store = inst.category is Category.STORE
        memory = self.memory
        hook = self.simulator.mem_hook

        if is_store:
            def store():
                addr = (r[rs1] + read2()) & M32
                if hook is not None:
                    hook(True, addr, width)
                memory.store(addr, width, r[rd])
                self._advance()
            return store

        def load():
            addr = (r[rs1] + read2()) & M32
            if hook is not None:
                hook(False, addr, width)
            value = memory.load(addr, width, signed)
            if rd:
                r[rd] = value & M32
            self._advance()
        return load


_SPARC_ALU = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andn": lambda a, b: a & ~b,
    "orn": lambda a, b: a | (~b & M32),
    "xnor": lambda a, b: ~(a ^ b) & M32,
    "addcc": lambda a, b: a + b,
    "subcc": lambda a, b: a - b,
    "andcc": lambda a, b: a & b,
    "orcc": lambda a, b: a | b,
    "xorcc": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: bits.to_s32(a) >> (b & 31),
    "umul": None,
    "smul": None,
    "udiv": None,
    "sdiv": None,
}


# ----------------------------------------------------------------------
# MIPS
# ----------------------------------------------------------------------

class MipsCPU(_BaseCPU):
    """MIPS-I-like subset with HI/LO and branch-likely annulment."""

    def __init__(self, simulator):
        super().__init__(simulator)
        self.r = [0] * 32
        self.hi = 0
        self.lo = 0
        self.r[29] = layout.STACK_BASE - 64  # $sp

    def _prepare(self, inst):
        name = inst.name
        f = inst.f
        r = self.r
        category = inst.category

        if category is Category.INVALID:
            def illegal():
                raise SimulationError(
                    "illegal instruction 0x%08x at pc 0x%x" % (inst.word, self.pc)
                )
            return illegal

        if name in _MIPS_REG3:
            operation = _MIPS_REG3[name]
            rd, rs, rt = f["rd"], f["rs"], f["rt"]
            def reg3():
                result = operation(r[rs], r[rt]) & M32
                if rd:
                    r[rd] = result
                self._advance()
            return reg3
        if name in ("sll", "srl", "sra"):
            rd, rt, shamt = f["rd"], f["rt"], f["shamt"]
            operation = _MIPS_SHIFT[name]
            def shift():
                result = operation(r[rt], shamt) & M32
                if rd:
                    r[rd] = result
                self._advance()
            return shift
        if name in ("sllv", "srlv", "srav"):
            rd, rt, rs = f["rd"], f["rt"], f["rs"]
            operation = _MIPS_SHIFT[name[:-1]]
            def shiftv():
                result = operation(r[rt], r[rs] & 31) & M32
                if rd:
                    r[rd] = result
                self._advance()
            return shiftv
        if name in _MIPS_IMM:
            operation = _MIPS_IMM[name]
            rt, rs = f["rt"], f["rs"]
            imm = f.get("imm16", f.get("uimm16", 0))
            def immediate():
                result = operation(r[rs], imm) & M32
                if rt:
                    r[rt] = result
                self._advance()
            return immediate
        if name == "lui":
            rt = f["rt"]
            value = (f["uimm16"] << 16) & M32
            def lui():
                if rt:
                    r[rt] = value
                self._advance()
            return lui
        if category is Category.BRANCH:
            return self._prepare_branch(inst)
        if name in ("j", "jal"):
            index = f["target26"] << 2
            is_call = name == "jal"
            def jump():
                target = ((self.pc + 4) & 0xF0000000) | index
                if is_call:
                    r[31] = self.pc + 8
                self._transfer(target)
            return jump
        if name == "jr":
            rs = f["rs"]
            def jump_register():
                target = r[rs]
                if target & 3:
                    raise SimulationError("misaligned jump to 0x%x" % target)
                self._transfer(target)
            return jump_register
        if name == "jalr":
            rs, rd = f["rs"], f["rd"]
            def jump_and_link_register():
                target = r[rs]
                if target & 3:
                    raise SimulationError("misaligned jump to 0x%x" % target)
                if rd:
                    r[rd] = self.pc + 8
                self._transfer(target)
            return jump_and_link_register
        if name == "syscall":
            def syscall():
                number = r[2]
                args = r[4:8]
                result = self.simulator.syscalls.dispatch(number, args)
                r[2] = result & M32
                self._advance()
            return syscall
        if name in ("mfhi", "mflo"):
            rd = f["rd"]
            from_hi = name == "mfhi"
            def move_from():
                if rd:
                    r[rd] = self.hi if from_hi else self.lo
                self._advance()
            return move_from
        if name in ("mult", "multu", "div", "divu"):
            rs, rt = f["rs"], f["rt"]
            def muldiv():
                a, b = r[rs], r[rt]
                if name == "mult":
                    product = bits.to_s32(a) * bits.to_s32(b)
                    self.hi = (product >> 32) & M32
                    self.lo = product & M32
                elif name == "multu":
                    product = a * b
                    self.hi = (product >> 32) & M32
                    self.lo = product & M32
                else:
                    if b == 0:
                        raise SimulationError("division by zero at 0x%x" % self.pc)
                    if name == "div":
                        sa, sb = bits.to_s32(a), bits.to_s32(b)
                        quotient = abs(sa) // abs(sb)
                        if (sa < 0) != (sb < 0):
                            quotient = -quotient
                        remainder = sa - quotient * sb
                        self.lo = quotient & M32
                        self.hi = remainder & M32
                    else:
                        self.lo = (a // b) & M32
                        self.hi = (a % b) & M32
                self._advance()
            return muldiv
        if category.is_memory:
            return self._prepare_memory(inst)
        raise SimulationError("no semantics for %s" % name)

    def _prepare_branch(self, inst):
        f = inst.f
        r = self.r
        disp = (f["imm16"] << 2) + 4
        annulled = inst.annul_untaken
        name = inst.name
        rs = f["rs"]
        rt = f.get("rt", 0)
        # beql/bnel etc: strip the trailing 'l' to get the base test.
        likely = ("beql", "bnel", "blezl", "bgtzl", "bltzl", "bgezl")
        base = name[:-1] if name in likely else name

        def test():
            a = bits.to_s32(r[rs])
            if base == "beq":
                return r[rs] == r[rt]
            if base == "bne":
                return r[rs] != r[rt]
            if base == "blez":
                return a <= 0
            if base == "bgtz":
                return a > 0
            if base == "bltz":
                return a < 0
            if base == "bgez":
                return a >= 0
            raise SimulationError("unknown branch %s" % name)

        def branch():
            if test():
                self._transfer((self.pc + disp) & M32)
            elif annulled:
                self._skip_delay()
            else:
                self._advance()
        return branch

    def _prepare_memory(self, inst):
        f = inst.f
        r = self.r
        rs, rt = f["rs"], f["rt"]
        imm = f["imm16"]
        width = inst.mem_width
        signed = inst.mem_signed
        is_store = inst.category is Category.STORE
        memory = self.memory
        hook = self.simulator.mem_hook

        if is_store:
            def store():
                addr = (r[rs] + imm) & M32
                if hook is not None:
                    hook(True, addr, width)
                memory.store(addr, width, r[rt])
                self._advance()
            return store

        def load():
            addr = (r[rs] + imm) & M32
            if hook is not None:
                hook(False, addr, width)
            value = memory.load(addr, width, signed)
            if rt:
                r[rt] = value & M32
            self._advance()
        return load


_MIPS_REG3 = {
    "addu": lambda a, b: a + b,
    "subu": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: ~(a | b),
    "slt": lambda a, b: 1 if bits.to_s32(a) < bits.to_s32(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
}

_MIPS_SHIFT = {
    "sll": lambda a, s: a << s,
    "srl": lambda a, s: a >> s,
    "sra": lambda a, s: bits.to_s32(a) >> s,
}

_MIPS_IMM = {
    "addiu": lambda a, imm: a + imm,
    "slti": lambda a, imm: 1 if bits.to_s32(a) < imm else 0,
    "sltiu": lambda a, imm: 1 if a < (imm & M32) else 0,
    "andi": lambda a, imm: a & imm,
    "ori": lambda a, imm: a | imm,
    "xori": lambda a, imm: a ^ imm,
}
