"""Block-compiling execution engine (``engine="block"``).

The per-instruction engine in :mod:`repro.sim.machine` pays a fetch,
a decode-cache probe, and a closure call for every architectural
instruction.  This engine decodes a *basic block* once — a straight
run of instructions ending at a control-transfer instruction (CTI),
its delay slot, or a configurable maximum length — and compiles it
into one specialized Python function: operands and pc-relative
targets are folded to constants, the pc/npc delay bookkeeping is
fused away for the straight-line interior, and condition codes live
in locals between instructions.  Compiled blocks are cached per entry
pc within the current text version (a write into an executable
section bumps ``text_version`` and empties the cache, which is the
flyweight eviction story for ``(pc, text-version)`` keys with zero
stale residency) under the same FIFO eviction accounting as the
prepared-op flyweight, reported through the ``sim.blocks.*``
counters.

Two process-wide memo layers sit behind the per-simulator caches:
generated source → code object (``_compile_source``), and per-Image
``(mode, stops, max_len, pc)`` → code entry (``image._block_memo``).
The factory code is simulator-independent — every constant is folded
into the source, state is passed at bind time — so a fresh simulator
over an already-seen image binds ready-made code objects instead of
re-decoding and re-emitting, and skips the single-step warm-up for
memoized pcs.  The memo is only consulted and populated while
``text_version`` is 0 (memory's executable ranges still equal the
image's); once a simulator writes its own text, its compiles go
private.

Observable equivalence with the per-instruction engine is the
contract:

* ``max_steps`` is honored exactly — a block only runs when its
  worst-case length fits the remaining budget, otherwise execution
  falls back to single stepping.
* ``run_until`` blocks are truncated so no interior pc is a stop pc;
  cosim sync points land between instructions exactly as before.
* ``count_pcs`` increments are emitted immediately before each
  instruction's semantics, so profiles match even on crashing runs.
  Category telemetry is aggregated per exit path (a mid-block fault
  may under-count categories by the tail of one block; pc counts,
  registers, and memory never drift).
* ``mem_hook`` fires once per access, before the access, as in the
  interpreter.
* Stores into an executable section invalidate the block caches and
  abort the current block at the store, so self-modifying (or
  runtime-edited) text re-decodes before the next instruction runs.

Known, documented divergence: inside a compiled block ``cpu.pc`` and
``cpu.icc`` are only synchronized at block exits (and before every
syscall dispatch and memory hook that can observe them mid-block they
are *not* repaired) — exception messages fold the faulting pc at
compile time instead of reading ``cpu.pc``, so user-visible errors
still name the right instruction.
"""

import struct

from repro.isa import bits
from repro.isa.base import Category
from repro.obs.trace import TRACER as _TRACER
from repro.sim.machine import (
    M32,
    MipsCPU,
    SimulationError,
    SimulationTimeout,
    SparcCPU,
    _MIPS_IMM,
    _MIPS_REG3,
    _SPARC_ALU,
)

# A block compiles only once its entry pc has been looked up this many
# times, in run() and run_until() alike; until then it is single-stepped
# (a pc another simulator of the same image already compiled binds at
# once).  Measured on a 2-core x86 host, CPython 3.11: one block compile
# (emit ~85 us + compile() ~380 us + bind ~6 us) costs ~470 us, while
# single-stepping costs ~3.4-5 us per instruction against ~0.2-0.4 us
# compiled.  A typical ~10-instruction block therefore saves ~30-50 us
# per compiled visit, and a compile pays for itself after ~10-15
# visits.  Most generated and co-simulated code runs once or twice, so
# compiling on the second visit wastes the compile; waiting the full
# break-even leaves every hot loop single-stepping for as long.  8 sits
# between: fuzz_meta co-simulation ran ~1.45x the throughput of 2, with
# 16 no better, and cold runs of the workload corpus stayed within the
# host's noise of 2.
WARM_THRESHOLD = 8

# Source -> code object memo shared by every simulator in the process.
# Generated source embeds every constant (pcs, operands, text ranges),
# so equal source means equal code; repeated runs over the same image —
# cosim pairs, benchmark reruns, daemon request streams — skip
# bytecode compilation entirely.  FIFO-bounded like the other caches.
_CODE_CACHE = {}
_CODE_CACHE_CAP = 4096


def _compile_source(source, filename):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
        _CODE_CACHE[source] = code
    return code

# Globals shared by every generated block function: rarely-executed
# names resolve here, hot names are bound as factory locals.
_EXEC_GLOBALS = {
    "to_s32": bits.to_s32,
    "SimulationError": SimulationError,
    "_WORD": struct.Struct(">I"),
    "_HALF": struct.Struct(">H"),
    "_Z16": (0,) * 16,
}
for _category in Category:
    _EXEC_GLOBALS["_CAT_%s" % _category.name] = _category
del _category


# A compiled cache entry is a plain ``(max_len, func)`` tuple — one
# UNPACK in the dispatch loop instead of two attribute loads.  ``func``
# executes the block and returns its instruction count; ``max_len``
# bounds any path for the budget check.  ``func is None`` marks a pc
# the compiler cannot handle (the dispatch loop single-steps it
# forever).
#
# The emitter itself produces *code entries* ``(max_len, code object)``:
# the factory code is simulator-independent (every constant — pcs,
# operands, text bounds — is folded into the source), so it is memoized
# on the Image and shared by every simulator running unmodified text.
# Binding a code entry to one simulator's state (registers, memory,
# syscalls, profile dicts) turns it into the ``(max_len, func)`` form
# the dispatch loop executes.
_UNCOMPILABLE = (1, None)

# Per-image memo cap: code entries for every (mode, stop set, pc) seen
# across all simulators of one image.  FIFO like the other caches.
BLOCK_MEMO_CAP = 4096


def _reg(number):
    return "r[%d]" % number if number else "0"


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------

class _Emitter(object):
    """Builds the Python source of one block, instruction by
    instruction, tracking per-path state (condition-code locals on
    SPARC, category tallies) so each exit path writes back exactly
    what it dirtied."""

    BASE = "        "  # statement indent inside ``def _block():``

    def __init__(self, cpu, mode, stops):
        self.cpu = cpu
        self.count_pcs, self.counting, self.hooked = mode
        self.stops = stops
        self.lines = []
        self.ntmp = 0
        self.path_cats = []
        self.max_count = 0
        self.needs = set()  # which factory-local helpers to bind

    # -- shared helpers ------------------------------------------------
    def tmp(self):
        self.ntmp += 1
        return "_t%d" % self.ntmp

    def count(self, ind, pc, inst):
        if self.count_pcs:
            self.lines.append("%spc_counts[%d] = _pg(%d, 0) + 1"
                              % (ind, pc, pc))
        if self.counting:
            self.path_cats.append(inst.category)

    def snapshot(self):
        return (len(self.path_cats), self._state())

    def restore(self, snap):
        ncats, state = snap
        del self.path_cats[ncats:]
        self._restore_state(state)

    def _state(self):
        return None

    def _restore_state(self, state):
        pass

    def flags_writeback(self, ind):
        pass

    def flush_exit_prologue(self, ind):
        self.flags_writeback(ind)
        if self.counting and self.path_cats:
            tally = {}
            for category in self.path_cats:
                tally[category] = tally.get(category, 0) + 1
            for category in sorted(tally, key=lambda c: c.name):
                name = "_CAT_%s" % category.name
                self.lines.append("%scat[%s] = _cg(%s, 0) + %d"
                                  % (ind, name, name, tally[category]))

    def exit_const(self, ind, count, target):
        self.flush_exit_prologue(ind)
        out = self.lines
        out.append("%scpu.pc = %d" % (ind, target))
        out.append("%scpu.npc = %d" % (ind, target + 4))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def exit_var(self, ind, count, var):
        self.flush_exit_prologue(ind)
        out = self.lines
        out.append("%scpu.pc = %s" % (ind, var))
        out.append("%scpu.npc = %s + 4" % (ind, var))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def emit_trap(self, ind, pc, count, num_expr, args_expr, result_reg):
        """A system trap ends the block: architectural state (flags,
        counts, pc/npc) is written back *before* dispatch so a syscall
        — or the ExitProgram unwind — observes exactly what the
        interpreter would show."""
        out = self.lines
        self.flush_exit_prologue(ind)
        out.append("%scpu.pc = %d" % (ind, pc))
        out.append("%scpu.npc = %d" % (ind, pc + 4))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        t = self.tmp()
        out.append("%s%s = syscalls.dispatch(%s, %s)"
                   % (ind, t, num_expr, args_expr))
        out.append("%sr[%d] = %s & 4294967295" % (ind, result_reg, t))
        out.append("%scpu.pc = %d" % (ind, pc + 4))
        out.append("%scpu.npc = %d" % (ind, pc + 8))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def _emit_store(self, ind, a, width, value_expr):
        """The store proper, with the aligned common case inlined as a
        direct page write (a width-aligned access never crosses a page
        boundary).  The misaligned path falls back to ``mem_store``,
        which carries the strict-mode fault and byte-wise semantics."""
        out = self.lines
        if width == 4:
            self.needs.update(("mem", "page", "word"))
            out.append("%sif %s & 3:" % (ind, a))
            out.append("%s    mem_store(%s, 4, %s)" % (ind, a, value_expr))
            out.append("%selse:" % ind)
            p = self.tmp()
            out.append("%s    %s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s    _wp(%s, %s & 4095, (%s) & 4294967295)"
                       % (ind, p, a, value_expr))
        elif width == 1:
            self.needs.add("page")
            p = self.tmp()
            out.append("%s%s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s%s[%s & 4095] = (%s) & 255"
                       % (ind, p, a, value_expr))
        elif width == 2:
            self.needs.update(("mem", "page", "half"))
            out.append("%sif %s & 1:" % (ind, a))
            out.append("%s    mem_store(%s, 2, %s)" % (ind, a, value_expr))
            out.append("%selse:" % ind)
            p = self.tmp()
            out.append("%s    %s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s    _hp(%s, %s & 4095, (%s) & 65535)"
                       % (ind, p, a, value_expr))
        else:
            self.needs.add("mem")
            out.append("%smem_store(%s, %d, %s)" % (ind, a, width,
                                                    value_expr))

    def _emit_load(self, ind, a, width, signed, dest_reg):
        """Register load with the aligned hit inlined (an unmapped page
        reads as zero, as in :meth:`Memory.load`); a sign-extended
        value is re-masked to 32 bits exactly as the interpreter's
        prepared ops do."""
        out = self.lines
        fallback = "mem_load(%s, %d, %s)" % (a, width, signed)
        if signed:
            fallback += " & 4294967295"
        if width == 4:
            self.needs.update(("mem", "page", "word"))
            p = self.tmp()
            out.append("%sif %s & 3:" % (ind, a))
            out.append("%s    r[%d] = %s" % (ind, dest_reg, fallback))
            out.append("%selse:" % ind)
            out.append("%s    %s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s    r[%d] = _wu(%s, %s & 4095)[0] "
                       "if %s is not None else 0"
                       % (ind, dest_reg, p, a, p))
        elif width == 1:
            self.needs.add("page")
            p = self.tmp()
            b = self.tmp()
            out.append("%s%s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s%s = %s[%s & 4095] if %s is not None else 0"
                       % (ind, b, p, a, p))
            if signed:
                # (b - 256) & M32 == b + 4294967040 for the negative
                # half; the positive half passes through unchanged.
                out.append("%sr[%d] = %s + 4294967040 if %s > 127 else %s"
                           % (ind, dest_reg, b, b, b))
            else:
                out.append("%sr[%d] = %s" % (ind, dest_reg, b))
        elif width == 2:
            self.needs.update(("mem", "page", "half"))
            p = self.tmp()
            h = self.tmp()
            out.append("%sif %s & 1:" % (ind, a))
            out.append("%s    r[%d] = %s" % (ind, dest_reg, fallback))
            out.append("%selse:" % ind)
            out.append("%s    %s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s    %s = _hu(%s, %s & 4095)[0] "
                       "if %s is not None else 0" % (ind, h, p, a, p))
            if signed:
                out.append("%s    r[%d] = %s + 4294901760 "
                           "if %s > 32767 else %s"
                           % (ind, dest_reg, h, h, h))
            else:
                out.append("%s    r[%d] = %s" % (ind, dest_reg, h))
        else:
            self.needs.add("mem")
            out.append("%sr[%d] = %s" % (ind, dest_reg, fallback))

    def emit_memory(self, ind, pc, inst, idx, in_slot, addr_expr,
                    value_expr, dest_reg):
        out = self.lines
        width = inst.mem_width
        cpu = self.cpu
        if inst.category is Category.STORE:
            a = self.tmp()
            out.append("%s%s = %s" % (ind, a, addr_expr))
            if self.hooked:
                out.append("%shook(True, %s, %d)" % (ind, a, width))
            self._emit_store(ind, a, width, value_expr)
            if cpu._text_ranges:
                out.append("%sif %d <= %s < %d:"
                           % (ind, cpu._text_lo, a, cpu._text_hi))
                if in_slot:
                    # The block ends right after the slot: invalidate,
                    # but no compiled tail remains to abort.
                    out.append("%s    cpu._text_write(%s)" % (ind, a))
                else:
                    out.append("%s    if cpu._text_write(%s):" % (ind, a))
                    # Self-modifying text: the rest of this block may
                    # be stale, so exit at the next pc and re-decode.
                    self.exit_const(ind + "        ", idx + 1, pc + 4)
            return
        signed = inst.mem_signed
        a = self.tmp()
        out.append("%s%s = %s" % (ind, a, addr_expr))
        if self.hooked:
            out.append("%shook(False, %s, %d)" % (ind, a, width))
        if dest_reg:
            self._emit_load(ind, a, width, signed, dest_reg)
        elif width in (2, 4):
            # Zero destination: an *aligned* access can neither fault
            # nor store, so only the misaligned path (strict-mode
            # fault parity) still has to run.
            self.needs.add("mem")
            out.append("%sif %s & %d:" % (ind, a, width - 1))
            out.append("%s    mem_load(%s, %d, %s)" % (ind, a, width,
                                                       signed))
        elif width not in (1, 2, 4):
            self.needs.add("mem")
            out.append("%smem_load(%s, %d, %s)" % (ind, a, width, signed))

    def is_nop_branch(self, inst):
        return False

    def fuse_cti(self, ind, pc, inst, count):
        """Emit an unconditional, constant-target CTI *inline* and hand
        the scan its continuation pc, or return None when this CTI must
        end the block.  Fusing calls and unconditional branches is what
        lets blocks span whole call chains instead of stopping every
        handful of instructions."""
        return None

    def fusable_slot(self, pc):
        """``fetch_slot`` for fusion sites: additionally refuses a
        store when text invalidation is armed — the store's early-exit
        path assumes the block ends right after the slot, which is no
        longer true once a continuation is fused behind it."""
        slot = self.fetch_slot(pc)
        if (slot is not None and slot.category is Category.STORE
                and self.cpu._text_ranges):
            return None
        return slot

    # -- driver --------------------------------------------------------
    def compile(self, pc0):
        cpu = self.cpu
        memory = cpu.memory
        decode = cpu.codec.decode
        stops = self.stops
        max_len = cpu._block_max_len
        ind = self.BASE
        pc = pc0
        count = 0
        complete = False
        while count < max_len:
            # `count` (not `pc != pc0`) guards the entry pc: a fused
            # loop may revisit pc0 mid-block, and if pc0 is a stop the
            # interpreter would halt there.
            if stops is not None and count and pc in stops:
                break
            inst = decode(memory.load(pc, 4))
            if self.emittable(inst):
                self.count(ind, pc, inst)
                self.emit_inst(ind, pc, inst, count, False)
                count += 1
                pc += 4
                continue
            if self.is_nop_branch(inst):
                # A statically-untaken, non-annulling branch is a nop:
                # its delay slot is just the next instruction.
                self.count(ind, pc, inst)
                count += 1
                pc += 4
                continue
            fused = self.fuse_cti(ind, pc, inst, count)
            if fused is not None:
                count, pc = fused
                continue
            complete = self.emit_cti(ind, pc, inst, count)
            break
        if not complete:
            if count == 0:
                return _UNCOMPILABLE
            # Ended before an unfusable instruction, at a stop pc, or
            # at the length cap: fall through to the dispatch loop.
            self.exit_const(ind, count, pc)
        return self.finish(pc0)

    def fetch_slot(self, pc):
        """The delay-slot instruction at ``pc + 4``, when it can be
        fused into this block (compilable, not itself delayed, and not
        a run_until stop — a mid-delay stop must come from the
        single-step path so pc/npc land exactly as the interpreter
        leaves them)."""
        slot_pc = pc + 4
        if self.stops is not None and slot_pc in self.stops:
            return None
        inst = self.cpu.codec.decode(self.cpu.memory.load(slot_pc, 4))
        if self.emittable(inst):
            return inst
        return None

    def emit_slot(self, ind, slot_pc, slot, idx):
        self.count(ind, slot_pc, slot)
        self.emit_inst(ind, slot_pc, slot, idx, True)

    def finish(self, pc0):
        header = [
            "def _factory(cpu, sim, r, memory, syscalls, pc_counts, cat):",
        ]
        if "mem" in self.needs:
            header.append("    mem_load = memory.load")
            header.append("    mem_store = memory.store")
        if "page" in self.needs:
            header.append("    _pget = memory._pages.get")
            header.append("    _mkpage = memory._page")
        if "word" in self.needs:
            header.append("    _wu = _WORD.unpack_from")
            header.append("    _wp = _WORD.pack_into")
        if "half" in self.needs:
            header.append("    _hu = _HALF.unpack_from")
            header.append("    _hp = _HALF.pack_into")
        if self.count_pcs:
            header.append("    _pg = pc_counts.get")
        if self.counting:
            header.append("    _cg = cat.get")
        header.append("    def _block():")
        body = list(self.lines)
        if self.hooked:
            # Re-read per execution: cosim and tools may rebind the
            # hook between runs without reconstructing the simulator.
            body.insert(0, "        hook = sim.mem_hook")
        source = "\n".join(header + body + ["    return _block"])
        code = _compile_source(source, "<block 0x%x>" % pc0)
        return (self.max_count, code)


# ----------------------------------------------------------------------
# SPARC
# ----------------------------------------------------------------------

_SPARC_COND = {
    "e": "z",
    "ne": "not z",
    "l": "n ^ v",
    "le": "z or (n ^ v)",
    "ge": "not (n ^ v)",
    "g": "not (z or (n ^ v))",
    "cs": "c",
    "leu": "c or z",
    "gu": "not (c or z)",
    "cc": "not c",
    "pos": "not n",
    "neg": "n",
    "vs": "v",
    "vc": "not v",
}

_SPARC_SIMPLE = frozenset(_SPARC_ALU) | frozenset(
    ("sethi", "save", "restore", "rdpsr", "wrpsr"))


class _SparcEmitter(_Emitter):

    def __init__(self, cpu, mode, stops):
        _Emitter.__init__(self, cpu, mode, stops)
        self.flags_loaded = False
        self.flags_dirty = False

    def _state(self):
        return (self.flags_loaded, self.flags_dirty)

    def _restore_state(self, state):
        self.flags_loaded, self.flags_dirty = state

    def ensure_flags(self, ind):
        if not self.flags_loaded:
            self.lines.append(ind + "n, z, v, c = cpu.icc")
            self.flags_loaded = True

    def set_flags_dirty(self):
        self.flags_loaded = True
        self.flags_dirty = True

    def flags_writeback(self, ind):
        if self.flags_dirty:
            self.lines.append(ind + "cpu.icc = (n, z, v, c)")

    # -- operand helpers -----------------------------------------------
    def src2_const(self, f):
        return f["simm13"] & M32 if f.get("iflag") else None

    def src2_expr(self, f):
        const = self.src2_const(f)
        if const is not None:
            return str(const)
        return _reg(f["rs2"])

    def add_expr(self, rs1, f):
        """``(r[rs1] + src2) & M32`` with constant/zero folding."""
        const = self.src2_const(f)
        if const is not None:
            if rs1 == 0:
                return str(const)
            if const == 0:
                return "r[%d]" % rs1
            return "(r[%d] + %d) & 4294967295" % (rs1, const)
        rs2 = f["rs2"]
        if rs1 == 0:
            return _reg(rs2)
        if rs2 == 0:
            return "r[%d]" % rs1
        return "(r[%d] + r[%d]) & 4294967295" % (rs1, rs2)

    # -- classification ------------------------------------------------
    def emittable(self, inst):
        category = inst.category
        if category is Category.INVALID or category.is_control:
            return False
        if category.is_memory:
            return True
        return inst.name in _SPARC_SIMPLE

    def is_nop_branch(self, inst):
        # ``bn`` without annulment advances like a nop and its "slot"
        # is simply the next instruction.
        return (inst.category is Category.BRANCH and inst.cond == "n"
                and not inst.f["aflag"])

    # -- straight-line instructions --------------------------------------
    def emit_inst(self, ind, pc, inst, idx, in_slot):
        name = inst.name
        f = inst.f
        out = self.lines
        if inst.category.is_memory:
            addr = self.add_expr(f["rs1"], f)
            self.emit_memory(ind, pc, inst, idx, in_slot, addr,
                             _reg(f["rd"]), f["rd"])
            return
        if name == "sethi":
            if f["rd"]:
                out.append("%sr[%d] = %d"
                           % (ind, f["rd"], (f["imm22"] << 10) & M32))
            return
        if name in _SPARC_ALU:
            self.emit_alu(ind, pc, inst, name, f)
            return
        if name == "save":
            t = self.tmp()
            out.append("%s%s = %s" % (ind, t, self.add_expr(f["rs1"], f)))
            out.append("%scpu.windows.append((r[16:24], r[24:32]))" % ind)
            out.append("%sr[24:32] = r[8:16]" % ind)
            out.append("%sr[8:24] = _Z16" % ind)
            if f["rd"]:
                out.append("%sr[%d] = %s" % (ind, f["rd"], t))
            return
        if name == "restore":
            out.append("%sif not cpu.windows:" % ind)
            out.append("%s    raise SimulationError("
                       "'register window underflow')" % ind)
            t = self.tmp()
            out.append("%s%s = %s" % (ind, t, self.add_expr(f["rs1"], f)))
            out.append("%sr[8:16] = r[24:32]" % ind)
            tl, ti = self.tmp(), self.tmp()
            out.append("%s%s, %s = cpu.windows.pop()" % (ind, tl, ti))
            out.append("%sr[16:24] = %s" % (ind, tl))
            out.append("%sr[24:32] = %s" % (ind, ti))
            if f["rd"]:
                out.append("%sr[%d] = %s" % (ind, f["rd"], t))
            return
        if name == "rdpsr":
            if f["rd"]:
                self.ensure_flags(ind)
                out.append("%sr[%d] = (n << 23) | (z << 22) | (v << 21)"
                           " | (c << 20)" % (ind, f["rd"]))
            return
        if name == "wrpsr":
            t = self.tmp()
            out.append("%s%s = %s" % (ind, t, _reg(f["rs1"])))
            out.append("%sn = (%s >> 23) & 1" % (ind, t))
            out.append("%sz = (%s >> 22) & 1" % (ind, t))
            out.append("%sv = (%s >> 21) & 1" % (ind, t))
            out.append("%sc = (%s >> 20) & 1" % (ind, t))
            self.set_flags_dirty()
            return
        raise AssertionError("emittable() admitted %s" % name)

    def emit_alu(self, ind, pc, inst, name, f):
        out = self.lines
        sets_cc = name.endswith("cc")
        base = name[:-2] if sets_cc else name
        rs1 = f["rs1"]
        rd = f["rd"]
        A = _reg(rs1)
        B = self.src2_expr(f)
        const = self.src2_const(f)

        if base in ("add", "sub"):
            if not sets_cc:
                if not rd:
                    return
                if base == "add":
                    out.append("%sr[%d] = %s" % (ind, rd,
                                                 self.add_expr(rs1, f)))
                elif const == 0:
                    out.append("%sr[%d] = %s" % (ind, rd, A))
                else:
                    out.append("%sr[%d] = (%s - %s) & 4294967295"
                               % (ind, rd, A, B))
                return
            a, b, res = self.tmp(), self.tmp(), self.tmp()
            op = "-" if base == "sub" else "+"
            out.append("%s%s = %s" % (ind, a, A))
            out.append("%s%s = %s" % (ind, b, B))
            out.append("%s%s = (%s %s %s) & 4294967295"
                       % (ind, res, a, op, b))
            out.append("%sn = %s >> 31" % (ind, res))
            out.append("%sz = 1 if %s == 0 else 0" % (ind, res))
            if base == "sub":
                out.append("%sv = (((%s ^ %s) & (%s ^ %s)) >> 31) & 1"
                           % (ind, a, b, a, res))
                out.append("%sc = 1 if %s > %s else 0" % (ind, b, a))
            else:
                out.append("%sv = ((~(%s ^ %s) & (%s ^ %s)) >> 31) & 1"
                           % (ind, a, b, a, res))
                out.append("%sc = 1 if %s + %s > 4294967295 else 0"
                           % (ind, a, b))
            self.set_flags_dirty()
            if rd:
                out.append("%sr[%d] = %s" % (ind, rd, res))
            return

        if base in ("sll", "srl", "sra"):
            if not rd:
                return
            if const is not None:
                k = const & 31
                if base == "sll":
                    expr = A if k == 0 else \
                        "(%s << %d) & 4294967295" % (A, k)
                elif base == "srl":
                    expr = A if k == 0 else "%s >> %d" % (A, k)
                else:
                    expr = "(to_s32(%s) >> %d) & 4294967295" % (A, k)
            else:
                if base == "sll":
                    expr = "(%s << (%s & 31)) & 4294967295" % (A, B)
                elif base == "srl":
                    expr = "%s >> (%s & 31)" % (A, B)
                else:
                    expr = "(to_s32(%s) >> (%s & 31)) & 4294967295" % (A, B)
            out.append("%sr[%d] = %s" % (ind, rd, expr))
            return

        if base in ("umul", "smul"):
            p = self.tmp()
            if base == "umul":
                out.append("%s%s = %s * %s" % (ind, p, A, B))
            else:
                out.append("%s%s = to_s32(%s) * to_s32(%s)" % (ind, p, A, B))
            out.append("%scpu.y = (%s >> 32) & 4294967295" % (ind, p))
            if rd:
                out.append("%sr[%d] = %s & 4294967295" % (ind, rd, p))
            return

        if base in ("udiv", "sdiv"):
            b = self.tmp()
            out.append("%s%s = %s" % (ind, b, B))
            out.append("%sif %s == 0:" % (ind, b))
            out.append("%s    raise SimulationError("
                       "'division by zero at 0x%x')" % (ind, pc))
            if base == "udiv":
                if rd:
                    out.append("%sr[%d] = (%s // %s) & 4294967295"
                               % (ind, rd, A, b))
                return
            sa, sb, q = self.tmp(), self.tmp(), self.tmp()
            out.append("%s%s = to_s32(%s)" % (ind, sa, A))
            out.append("%s%s = to_s32(%s)" % (ind, sb, b))
            out.append("%s%s = abs(%s) // abs(%s)" % (ind, q, sa, sb))
            out.append("%sif (%s < 0) != (%s < 0):" % (ind, sa, sb))
            out.append("%s    %s = -%s" % (ind, q, q))
            if rd:
                out.append("%sr[%d] = %s & 4294967295" % (ind, rd, q))
            return

        # Bitwise family: results stay within 32 bits, so the inverted
        # operand of andn/orn/xnor folds into a constant xor.
        if base == "and":
            expr = "%s & %s" % (A, B)
        elif base == "or":
            expr = "%s | %s" % (A, B)
        elif base == "xor":
            expr = "%s ^ %s" % (A, B)
        elif base == "andn":
            expr = "%s & %s" % (A, str(const ^ M32) if const is not None
                                else "(%s ^ 4294967295)" % B)
        elif base == "orn":
            expr = "%s | %s" % (A, str(const ^ M32) if const is not None
                                else "(%s ^ 4294967295)" % B)
        elif base == "xnor":
            if const is not None:
                expr = "%s ^ %d" % (A, const ^ M32)
            else:
                expr = "(%s ^ %s) ^ 4294967295" % (A, B)
        else:
            raise AssertionError("unhandled ALU op %s" % name)
        if not sets_cc:
            if rd:
                out.append("%sr[%d] = %s" % (ind, rd, expr))
            return
        res = self.tmp()
        out.append("%s%s = %s" % (ind, res, expr))
        out.append("%sn = %s >> 31" % (ind, res))
        out.append("%sz = 1 if %s == 0 else 0" % (ind, res))
        out.append("%sv = 0" % ind)
        out.append("%sc = 0" % ind)
        self.set_flags_dirty()
        if rd:
            out.append("%sr[%d] = %s" % (ind, rd, res))

    # -- control transfers ---------------------------------------------
    def fuse_cti(self, ind, pc, inst, count):
        name = inst.name
        f = inst.f
        if inst.category is Category.BRANCH:
            cond = inst.cond
            annulled = bool(f["aflag"])
            if cond == "a":
                target = (pc + (f["disp22"] << 2)) & M32
                if annulled:
                    self.count(ind, pc, inst)
                    return count + 1, target
                slot = self.fusable_slot(pc)
                if slot is None:
                    return None
                self.count(ind, pc, inst)
                self.emit_slot(ind, pc + 4, slot, count + 1)
                return count + 2, target
            if cond == "n" and annulled:
                self.count(ind, pc, inst)
                return count + 1, pc + 8
            return None
        if name == "call":
            slot = self.fusable_slot(pc)
            if slot is None:
                return None
            target = (pc + (f["disp30"] << 2)) & M32
            self.count(ind, pc, inst)
            self.lines.append("%sr[15] = %d" % (ind, pc))
            self.emit_slot(ind, pc + 4, slot, count + 1)
            return count + 2, target
        return None

    def emit_cti(self, ind, pc, inst, idx):
        name = inst.name
        f = inst.f
        out = self.lines

        if name == "ta":
            self.count(ind, pc, inst)
            self.emit_trap(ind, pc, idx + 1, "r[1]", "r[8:14]", 8)
            return True

        if inst.category is Category.BRANCH:
            cond = inst.cond
            annulled = bool(f["aflag"])
            target = (pc + (f["disp22"] << 2)) & M32
            if cond == "a" and annulled:
                self.count(ind, pc, inst)
                self.exit_const(ind, idx + 1, target)
                return True
            if cond == "n":  # annulled: plain bn is handled as a nop
                self.count(ind, pc, inst)
                self.exit_const(ind, idx + 1, pc + 8)
                return True
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            if cond == "a":
                self.count(ind, pc, inst)
                self.emit_slot(ind, pc + 4, slot, idx + 1)
                self.exit_const(ind, idx + 2, target)
                return True
            self.count(ind, pc, inst)
            self.ensure_flags(ind)
            out.append("%sif %s:" % (ind, _SPARC_COND[cond]))
            snap = self.snapshot()
            self.emit_slot(ind + "    ", pc + 4, slot, idx + 1)
            self.exit_const(ind + "    ", idx + 2, target)
            self.restore(snap)
            if annulled:
                self.exit_const(ind, idx + 1, pc + 8)
            else:
                self.emit_slot(ind, pc + 4, slot, idx + 1)
                self.exit_const(ind, idx + 2, pc + 8)
            return True

        if name == "call":
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            target = (pc + (f["disp30"] << 2)) & M32
            self.count(ind, pc, inst)
            out.append("%sr[15] = %d" % (ind, pc))
            self.emit_slot(ind, pc + 4, slot, idx + 1)
            self.exit_const(ind, idx + 2, target)
            return True

        if name == "jmpl":
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            self.count(ind, pc, inst)
            t = self.tmp()
            out.append("%s%s = %s" % (ind, t, self.add_expr(f["rs1"], f)))
            if f["rd"]:
                out.append("%sr[%d] = %d" % (ind, f["rd"], pc))
            out.append("%sif %s & 3:" % (ind, t))
            out.append("%s    raise SimulationError("
                       "'misaligned jump to 0x%%x' %% %s)" % (ind, t))
            self.emit_slot(ind, pc + 4, slot, idx + 1)
            self.exit_var(ind, idx + 2, t)
            return True

        return False


# ----------------------------------------------------------------------
# MIPS
# ----------------------------------------------------------------------

_MIPS_LIKELY = ("beql", "bnel", "blezl", "bgtzl", "bltzl", "bgezl")

_MIPS_SIMPLE = frozenset(_MIPS_REG3) | frozenset(_MIPS_IMM) | frozenset(
    ("sll", "srl", "sra", "sllv", "srlv", "srav", "lui",
     "mfhi", "mflo", "mult", "multu", "div", "divu"))


class _MipsEmitter(_Emitter):

    def emittable(self, inst):
        category = inst.category
        if category is Category.INVALID or category.is_control:
            return False
        if category.is_memory:
            return True
        return inst.name in _MIPS_SIMPLE

    def addr_expr(self, rs, imm):
        if rs == 0:
            return str(imm & M32)
        if imm == 0:
            return "r[%d]" % rs
        return "(r[%d] + %d) & 4294967295" % (rs, imm)

    @staticmethod
    def _branch_parts(inst):
        name = inst.name
        base = name[:-1] if name in _MIPS_LIKELY else name
        f = inst.f
        return base, f["rs"], f.get("rt", 0)

    def _static_branch(self, inst):
        """True/False when the branch outcome is decidable at compile
        time (``$zero`` comparisons), None when it is dynamic."""
        base, rs, rt = self._branch_parts(inst)
        if base in ("beq", "bne"):
            if rs == rt:
                return base == "beq"
            if rs == 0 or rt == 0:
                return None
            return None
        if rs == 0:
            return base in ("blez", "bgez")
        return None

    def _branch_test(self, inst):
        base, rs, rt = self._branch_parts(inst)
        A = _reg(rs)
        if base == "beq":
            return "%s == %s" % (A, _reg(rt))
        if base == "bne":
            return "%s != %s" % (A, _reg(rt))
        if base == "blez":
            return "to_s32(%s) <= 0" % A
        if base == "bgtz":
            return "to_s32(%s) > 0" % A
        if base == "bltz":
            return "to_s32(%s) < 0" % A
        if base == "bgez":
            return "to_s32(%s) >= 0" % A
        return None

    def is_nop_branch(self, inst):
        if inst.category is not Category.BRANCH or inst.annul_untaken:
            return False
        return self._static_branch(inst) is False

    # -- straight-line instructions --------------------------------------
    def emit_inst(self, ind, pc, inst, idx, in_slot):
        name = inst.name
        f = inst.f
        out = self.lines
        category = inst.category

        if category.is_memory:
            addr = self.addr_expr(f["rs"], f["imm16"])
            self.emit_memory(ind, pc, inst, idx, in_slot, addr,
                             _reg(f["rt"]), f["rt"])
            return

        if name in _MIPS_REG3:
            rd, rs, rt = f["rd"], f["rs"], f["rt"]
            if not rd:
                return
            A, B = _reg(rs), _reg(rt)
            if name == "addu":
                if rs == 0:
                    expr = B
                elif rt == 0:
                    expr = A
                else:
                    expr = "(%s + %s) & 4294967295" % (A, B)
            elif name == "subu":
                expr = A if rt == 0 else "(%s - %s) & 4294967295" % (A, B)
            elif name == "and":
                expr = "%s & %s" % (A, B)
            elif name == "or":
                expr = "%s | %s" % (A, B)
            elif name == "xor":
                expr = "%s ^ %s" % (A, B)
            elif name == "nor":
                expr = "(%s | %s) ^ 4294967295" % (A, B)
            elif name == "slt":
                expr = "1 if to_s32(%s) < to_s32(%s) else 0" % (A, B)
            else:  # sltu
                expr = "1 if %s < %s else 0" % (A, B)
            out.append("%sr[%d] = %s" % (ind, rd, expr))
            return

        if name in ("sll", "srl", "sra"):
            rd, rt, k = f["rd"], f["rt"], f["shamt"]
            if not rd:
                return
            A = _reg(rt)
            if name == "sll":
                expr = A if k == 0 else "(%s << %d) & 4294967295" % (A, k)
            elif name == "srl":
                expr = A if k == 0 else "%s >> %d" % (A, k)
            else:
                expr = "(to_s32(%s) >> %d) & 4294967295" % (A, k)
            out.append("%sr[%d] = %s" % (ind, rd, expr))
            return

        if name in ("sllv", "srlv", "srav"):
            rd, rt, rs = f["rd"], f["rt"], f["rs"]
            if not rd:
                return
            A, S = _reg(rt), "(%s & 31)" % _reg(rs)
            if name == "sllv":
                expr = "(%s << %s) & 4294967295" % (A, S)
            elif name == "srlv":
                expr = "%s >> %s" % (A, S)
            else:
                expr = "(to_s32(%s) >> %s) & 4294967295" % (A, S)
            out.append("%sr[%d] = %s" % (ind, rd, expr))
            return

        if name in _MIPS_IMM:
            rt, rs = f["rt"], f["rs"]
            if not rt:
                return
            imm = f.get("imm16", f.get("uimm16", 0))
            A = _reg(rs)
            if name == "addiu":
                expr = self.addr_expr(rs, imm)
            elif name == "slti":
                expr = "1 if to_s32(%s) < %d else 0" % (A, imm)
            elif name == "sltiu":
                expr = "1 if %s < %d else 0" % (A, imm & M32)
            elif name == "andi":
                expr = "%s & %d" % (A, imm)
            elif name == "ori":
                expr = A if imm == 0 else "%s | %d" % (A, imm)
            else:  # xori
                expr = "%s ^ %d" % (A, imm)
            out.append("%sr[%d] = %s" % (ind, rt, expr))
            return

        if name == "lui":
            if f["rt"]:
                out.append("%sr[%d] = %d"
                           % (ind, f["rt"], (f["uimm16"] << 16) & M32))
            return

        if name in ("mfhi", "mflo"):
            if f["rd"]:
                out.append("%sr[%d] = cpu.%s"
                           % (ind, f["rd"],
                              "hi" if name == "mfhi" else "lo"))
            return

        if name in ("mult", "multu"):
            rs, rt = f["rs"], f["rt"]
            p = self.tmp()
            if name == "mult":
                out.append("%s%s = to_s32(%s) * to_s32(%s)"
                           % (ind, p, _reg(rs), _reg(rt)))
            else:
                out.append("%s%s = %s * %s" % (ind, p, _reg(rs), _reg(rt)))
            out.append("%scpu.hi = (%s >> 32) & 4294967295" % (ind, p))
            out.append("%scpu.lo = %s & 4294967295" % (ind, p))
            return

        if name in ("div", "divu"):
            rs, rt = f["rs"], f["rt"]
            A = _reg(rs)
            b = self.tmp()
            out.append("%s%s = %s" % (ind, b, _reg(rt)))
            out.append("%sif %s == 0:" % (ind, b))
            out.append("%s    raise SimulationError("
                       "'division by zero at 0x%x')" % (ind, pc))
            if name == "divu":
                out.append("%scpu.lo = %s // %s" % (ind, A, b))
                out.append("%scpu.hi = %s %% %s" % (ind, A, b))
                return
            sa, sb, q = self.tmp(), self.tmp(), self.tmp()
            out.append("%s%s = to_s32(%s)" % (ind, sa, A))
            out.append("%s%s = to_s32(%s)" % (ind, sb, b))
            out.append("%s%s = abs(%s) // abs(%s)" % (ind, q, sa, sb))
            out.append("%sif (%s < 0) != (%s < 0):" % (ind, sa, sb))
            out.append("%s    %s = -%s" % (ind, q, q))
            out.append("%scpu.lo = %s & 4294967295" % (ind, q))
            out.append("%scpu.hi = (%s - %s * %s) & 4294967295"
                       % (ind, sa, q, sb))
            return

        raise AssertionError("emittable() admitted %s" % name)

    # -- control transfers ---------------------------------------------
    def fuse_cti(self, ind, pc, inst, count):
        name = inst.name
        f = inst.f
        if inst.category is Category.BRANCH:
            decided = self._static_branch(inst)
            if decided is False and inst.annul_untaken:
                self.count(ind, pc, inst)
                return count + 1, pc + 8
            if decided is True:
                slot = self.fusable_slot(pc)
                if slot is None:
                    return None
                target = (pc + (f["imm16"] << 2) + 4) & M32
                self.count(ind, pc, inst)
                self.emit_slot(ind, pc + 4, slot, count + 1)
                return count + 2, target
            return None
        if name in ("j", "jal"):
            slot = self.fusable_slot(pc)
            if slot is None:
                return None
            target = ((pc + 4) & 0xF0000000) | (f["target26"] << 2)
            self.count(ind, pc, inst)
            if name == "jal":
                self.lines.append("%sr[31] = %d" % (ind, pc + 8))
            self.emit_slot(ind, pc + 4, slot, count + 1)
            return count + 2, target
        return None

    def emit_cti(self, ind, pc, inst, idx):
        name = inst.name
        f = inst.f
        out = self.lines

        if name == "syscall":
            self.count(ind, pc, inst)
            self.emit_trap(ind, pc, idx + 1, "r[2]", "r[4:8]", 2)
            return True

        if inst.category is Category.BRANCH:
            annulled = inst.annul_untaken
            target = (pc + (f["imm16"] << 2) + 4) & M32
            decided = self._static_branch(inst)
            if decided is False:  # annulled: plain case is a nop above
                self.count(ind, pc, inst)
                self.exit_const(ind, idx + 1, pc + 8)
                return True
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            if decided is True:
                self.count(ind, pc, inst)
                self.emit_slot(ind, pc + 4, slot, idx + 1)
                self.exit_const(ind, idx + 2, target)
                return True
            test = self._branch_test(inst)
            if test is None:
                return False
            self.count(ind, pc, inst)
            out.append("%sif %s:" % (ind, test))
            snap = self.snapshot()
            self.emit_slot(ind + "    ", pc + 4, slot, idx + 1)
            self.exit_const(ind + "    ", idx + 2, target)
            self.restore(snap)
            if annulled:
                self.exit_const(ind, idx + 1, pc + 8)
            else:
                self.emit_slot(ind, pc + 4, slot, idx + 1)
                self.exit_const(ind, idx + 2, pc + 8)
            return True

        if name in ("j", "jal"):
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            target = ((pc + 4) & 0xF0000000) | (f["target26"] << 2)
            self.count(ind, pc, inst)
            if name == "jal":
                out.append("%sr[31] = %d" % (ind, pc + 8))
            self.emit_slot(ind, pc + 4, slot, idx + 1)
            self.exit_const(ind, idx + 2, target)
            return True

        if name in ("jr", "jalr"):
            slot = self.fetch_slot(pc)
            if slot is None:
                return False
            self.count(ind, pc, inst)
            t = self.tmp()
            out.append("%s%s = %s" % (ind, t, _reg(f["rs"])))
            out.append("%sif %s & 3:" % (ind, t))
            out.append("%s    raise SimulationError("
                       "'misaligned jump to 0x%%x' %% %s)" % (ind, t))
            if name == "jalr" and f["rd"]:
                out.append("%sr[%d] = %d" % (ind, f["rd"], pc + 8))
            self.emit_slot(ind, pc + 4, slot, idx + 1)
            self.exit_var(ind, idx + 2, t)
            return True

        return False


# ----------------------------------------------------------------------
# Dispatch loops
# ----------------------------------------------------------------------

class _BlockMixin(object):
    """Block-compiling dispatch shared by both architectures.

    Sits in front of the per-instruction CPU in the MRO: the parent
    supplies register state and prepared-op semantics (the single-step
    fallback), this mixin supplies the block cache and its run loops.
    """

    _EMITTER = None  # set by subclasses

    def __init__(self, simulator):
        super(_BlockMixin, self).__init__(simulator)
        self._block_caches = {}  # mode -> {entry pc: (max_len, func)}
        self._until_caches = {}  # same, truncated at the active stops
        self._until_stops = None
        self._until_visits = {}  # run_until's warm-up, per stop set
        self._block_cap = simulator.block_cache_cap
        self._block_max_len = simulator.block_max_len
        self._visits = {}
        # Code entries shared across every simulator of this image:
        # valid only while this CPU's text is untouched (text_version
        # 0 means memory's executable ranges still equal the image's).
        memo = getattr(simulator.image, "_block_memo", None)
        if memo is None:
            memo = simulator.image._block_memo = {}
        self._memo = memo
        self.text_version = 0
        self.block_compiles = 0
        self.block_hits = 0
        self.block_misses = 0
        self.block_evictions = 0
        self.block_invalidations = 0
        self.fly_hits = 0  # exact single-step prepared-cache hits
        # Single steps by reason: below the warm threshold, block longer
        # than the remaining budget, uncompilable pc, and "resume" — pc
        # inside a delay slot (a run resumed there, or the slot of a
        # single-stepped CTI).  Their sum is the number of single steps.
        self.fallback_cold = 0
        self.fallback_budget = 0
        self.fallback_uncompilable = 0
        self.fallback_resume = 0
        ranges = []
        for section in simulator.image.sections.values():
            if section.is_exec:
                ranges.append((section.vaddr, section.vaddr + section.size))
        self._text_ranges = ranges
        if ranges:
            # 3-byte slack below each range start so a misaligned store
            # spilling into text from below still invalidates.
            self._text_lo = min(lo for lo, _ in ranges) - 3
            self._text_hi = max(hi for _, hi in ranges)
        else:
            self._text_lo, self._text_hi = 1, 0

    # -- cache plumbing ------------------------------------------------
    def _mode(self, counting):
        simulator = self.simulator
        if counting and self.category_counts is None:
            self.category_counts = {}
        return (simulator.count_pcs, counting,
                simulator.mem_hook is not None)

    def _compile(self, pc, mode, stops):
        if self.text_version:
            # Text diverged from the image: compile privately, never
            # touch the shared memo.
            return self._bind(self._EMITTER(self, mode, stops).compile(pc))
        memo = self._memo
        # Callers may pass stop pcs as any set type; freeze for the key.
        key = (mode, None if stops is None else frozenset(stops),
               self._block_max_len, pc)
        code_entry = memo.get(key)
        if code_entry is None:
            code_entry = self._EMITTER(self, mode, stops).compile(pc)
            memo[key] = code_entry
            if len(memo) > BLOCK_MEMO_CAP:
                memo.pop(next(iter(memo)))
        return self._bind(code_entry)

    def _memo_warm(self, pc, mode, stops):
        """True when another simulator already compiled this block —
        skip the single-step warm-up and bind it immediately."""
        return (not self.text_version
                and (mode, None if stops is None else frozenset(stops),
                     self._block_max_len, pc) in self._memo)

    def _bind(self, code_entry):
        """Turn a shareable ``(max_len, code)`` entry into this
        simulator's executable ``(max_len, func)`` entry."""
        max_count, code = code_entry
        if code is None:
            return _UNCOMPILABLE
        namespace = {}
        exec(code, _EXEC_GLOBALS, namespace)
        simulator = self.simulator
        func = namespace["_factory"](self, simulator, self.r, self.memory,
                                     simulator.syscalls,
                                     simulator.pc_counts,
                                     self.category_counts)
        return (max_count, func)

    def _insert(self, cache, pc, block):
        self.block_compiles += 1
        cache[pc] = block
        if len(cache) > self._block_cap:
            cache.pop(next(iter(cache)))
            self.block_evictions += 1

    def _text_write(self, addr):
        """A store landed in (or within 3 bytes below) an executable
        section: bump the text version and drop every compiled block.
        Returns True when the caches were invalidated."""
        for lo, hi in self._text_ranges:
            if lo - 3 <= addr < hi:
                break
        else:
            return False
        self.text_version += 1
        self.block_invalidations += 1
        for cache in self._block_caches.values():
            cache.clear()
        for cache in self._until_caches.values():
            cache.clear()
        self._visits.clear()
        self._until_visits.clear()
        return True

    def _prepare(self, inst):
        op = super(_BlockMixin, self)._prepare(inst)
        if inst.category is Category.STORE and self._text_ranges:
            reader = self._store_addr_reader(inst)
            lo, hi = self._text_lo, self._text_hi
            text_write = self._text_write
            def checked_store():
                addr = reader()
                op()
                if lo <= addr < hi:
                    text_write(addr)
            return checked_store
        return op

    def _step_one(self, count_pcs, counting):
        """Single-step fallback: byte-for-byte the interpreter's loop
        body, plus exact flyweight-hit accounting (the cheap path here
        is cold by construction)."""
        simulator = self.simulator
        pc = self.pc
        if count_pcs:
            counts = simulator.pc_counts
            counts[pc] = counts.get(pc, 0) + 1
        word = self.memory.load(pc, 4)
        inst = self.codec.decode(word)
        prepared = self._prepared
        op = prepared.get(inst)
        if op is None:
            op = self._prepare(inst)
            prepared[inst] = op
            self.compiles += 1
            if len(prepared) > self._prepared_cap:
                prepared.pop(next(iter(prepared)))
                self.evictions += 1
        else:
            self.fly_hits += 1
        if counting:
            categories = self.category_counts
            categories[inst.category] = categories.get(inst.category, 0) + 1
        simulator.instructions_executed += 1
        op()

    # -- run loops -----------------------------------------------------
    def _warm_entry(self, cache, visits, pc, mode, stops):
        """Cold-path lookup of *pc*: compile and cache its block once the
        pc is warm (or another simulator already compiled it); None
        while it is still cold and should be single-stepped."""
        seen = visits.get(pc, 0) + 1
        if seen < WARM_THRESHOLD and not self._memo_warm(pc, mode, stops):
            visits[pc] = seen
            return None
        visits.pop(pc, None)
        entry = self._compile(pc, mode, stops)
        self._insert(cache, pc, entry)
        return entry

    def _count_fallbacks(self, cold, over, uncompilable, resume):
        self.fallback_cold += cold
        self.fallback_budget += over
        self.fallback_uncompilable += uncompilable
        self.fallback_resume += resume

    def run(self):
        simulator = self.simulator
        counting = _TRACER.enabled
        count_pcs = simulator.count_pcs
        mode = self._mode(counting)
        cache = self._block_caches.get(mode)
        if cache is None:
            cache = self._block_caches[mode] = {}
        get = cache.get
        visits = self._visits
        budget = simulator.max_steps - simulator.instructions_executed
        steps = 0
        hits = 0
        misses = 0
        # Why each single step happened (sim.blocks.fallback.*).
        cold = over = uncompilable = resume = 0
        try:
            while steps < budget:
                pc = self.pc
                if self.npc != pc + 4:
                    # Mid-delay-slot (resumed there, or after a
                    # single-stepped CTI): restore the straight-line
                    # pc/npc invariant blocks are compiled against.
                    resume += 1
                    self._step_one(count_pcs, counting)
                    steps += 1
                    continue
                entry = get(pc)
                if entry is None:
                    misses += 1
                    entry = self._warm_entry(cache, visits, pc, mode, None)
                    if entry is None:
                        cold += 1
                    elif entry[1] is None:
                        uncompilable += 1
                    elif entry[0] > budget - steps:
                        over += 1
                    else:
                        steps += entry[1]()
                        continue
                    self._step_one(count_pcs, counting)
                    steps += 1
                    continue
                # Hot chain: every block exit re-establishes the
                # npc == pc + 4 invariant, so consecutive cached blocks
                # dispatch without re-checking it.
                while True:
                    max_len, func = entry
                    if func is None:
                        uncompilable += 1
                    elif max_len > budget - steps:
                        over += 1
                    else:
                        hits += 1
                        steps += func()
                        if steps >= budget:
                            break
                        entry = get(self.pc)
                        if entry is None:
                            break
                        continue
                    self._step_one(count_pcs, counting)
                    steps += 1
                    break
        finally:
            self.block_hits += hits
            self.block_misses += misses
            self._count_fallbacks(cold, over, uncompilable, resume)

    def run_until(self, stop_pcs, budget):
        """Stop-aware twin of :meth:`run` (see ``_BaseCPU.run_until``
        for the contract), under the same warm rule.  Blocks compiled
        here are truncated so no interior pc is a stop: a sync point
        can only land between instructions, never inside a fused
        block."""
        simulator = self.simulator
        counting = _TRACER.enabled
        count_pcs = simulator.count_pcs
        mode = self._mode(counting)
        if stop_pcs is not self._until_stops \
                and stop_pcs != self._until_stops:
            # The truncation points moved with the stop set; recompile
            # (and re-warm) lazily against the new one.  An equal set
            # rebuilt by the caller keeps both.
            self._until_caches.clear()
            self._until_visits.clear()
            self._until_stops = stop_pcs
        cache = self._until_caches.get(mode)
        if cache is None:
            cache = self._until_caches[mode] = {}
        get = cache.get
        visits = self._until_visits
        steps = 0
        hits = 0
        misses = 0
        cold = over = uncompilable = resume = 0
        try:
            while steps < budget:
                pc = self.pc
                if self.npc != pc + 4:
                    resume += 1
                else:
                    entry = get(pc)
                    cached = entry is not None
                    if not cached:
                        misses += 1
                        entry = self._warm_entry(cache, visits, pc, mode,
                                                 stop_pcs)
                    if entry is None:
                        cold += 1
                    elif entry[1] is None:
                        uncompilable += 1
                    elif entry[0] > budget - steps:
                        over += 1
                    else:
                        if cached:
                            hits += 1
                        steps += entry[1]()
                        if self.pc in stop_pcs:
                            return steps
                        continue
                self._step_one(count_pcs, counting)
                steps += 1
                if self.pc in stop_pcs:
                    return steps
        finally:
            self.block_hits += hits
            self.block_misses += misses
            self._count_fallbacks(cold, over, uncompilable, resume)
        raise SimulationTimeout(self.pc, steps)


class BlockSparcCPU(_BlockMixin, SparcCPU):
    """SPARC with block compilation over the handwritten model."""

    _EMITTER = _SparcEmitter

    def _store_addr_reader(self, inst):
        f = inst.f
        r = self.r
        rs1 = f["rs1"]
        if f.get("iflag"):
            imm = f["simm13"] & M32
            return lambda: (r[rs1] + imm) & M32
        rs2 = f["rs2"]
        return lambda: (r[rs1] + r[rs2]) & M32


class BlockMipsCPU(_BlockMixin, MipsCPU):
    """MIPS with block compilation over the handwritten model."""

    _EMITTER = _MipsEmitter

    def _store_addr_reader(self, inst):
        f = inst.f
        r = self.r
        rs, imm = f["rs"], f["imm16"]
        return lambda: (r[rs] + imm) & M32
