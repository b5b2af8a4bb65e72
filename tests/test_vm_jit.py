"""Differential tests for the PRE JIT (bytecode -> Python closure).

The JIT must be indistinguishable from the reference interpreter in
everything except speed: same results, same ``instructions_executed`` and
``helper_calls_made``, same heap contents, same fault classes *and*
messages.  The core of this file is a seeded random-program generator
whose output always passes the static verifier; every program is run
through both engines under several fuel budgets and the full observable
state is compared bit-for-bit.
"""

import random
import re
from pathlib import Path

import pytest

from repro.vm import VirtualMachine, assemble, verify
from repro.vm.analysis import analyze
from repro.vm.interpreter import (
    HEAP_BASE,
    STACK_BASE,
    FuelExhausted,
    PluginMemory,
    VmError,
)
from repro.vm.isa import (
    LOAD_OPS,
    MEM_SIZES,
    STACK_SIZE,
    STORE_REG_OPS,
    Instruction,
    Op,
)
from repro.vm.jit import (
    MAX_JIT_PROGRAM,
    JitCode,
    JitError,
    JitVirtualMachine,
    compile_jit,
    create_vm,
    load_jit,
)

HEAP_SIZE = 4096

# --- random program generator (always verifier-clean) -----------------------

ALU_IMM_LIST = [Op.ADD_IMM, Op.SUB_IMM, Op.MUL_IMM, Op.DIV_IMM, Op.MOD_IMM,
                Op.AND_IMM, Op.OR_IMM, Op.XOR_IMM, Op.LSH_IMM, Op.RSH_IMM,
                Op.ARSH_IMM, Op.MOV_IMM]
ALU_REG_LIST = [Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
                Op.XOR, Op.LSH, Op.RSH, Op.ARSH, Op.MOV]
JUMP_LIST = [Op.JA, Op.JEQ, Op.JNE, Op.JGT, Op.JGE, Op.JLT, Op.JLE,
             Op.JSGT, Op.JSLT, Op.JSET, Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM,
             Op.JGE_IMM, Op.JLT_IMM, Op.JLE_IMM, Op.JSGT_IMM, Op.JSLT_IMM,
             Op.JSET_IMM]
JMP_IMM_SET = {Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM, Op.JGE_IMM, Op.JLT_IMM,
               Op.JLE_IMM, Op.JSGT_IMM, Op.JSLT_IMM, Op.JSET_IMM}
MEM_LIST = [Op.LDXB, Op.LDXH, Op.LDXW, Op.LDXDW, Op.STXB, Op.STXH, Op.STXW,
            Op.STXDW, Op.STB, Op.STH, Op.STW, Op.STDW]

IMM_POOL = [0, 1, 2, 3, 5, 7, 63, 64, 255, 256, 65521, -1, -2, -7, -64,
            (1 << 31) - 1, -(1 << 31), (1 << 63) - 1]


def _random_imm(rng):
    if rng.random() < 0.5:
        return rng.choice(IMM_POOL)
    return rng.getrandbits(64) - (1 << 63)


def _random_ins(rng, pc, total):
    """One verifier-clean instruction at absolute position ``pc``."""
    r = rng.random()
    dst = rng.randrange(10)  # never write r10
    src = rng.randrange(11)  # reading r10 is fine
    if r < 0.26:
        op = rng.choice(ALU_IMM_LIST)
        if op in (Op.LSH_IMM, Op.RSH_IMM, Op.ARSH_IMM):
            imm = rng.randrange(64)
        elif op in (Op.DIV_IMM, Op.MOD_IMM):
            imm = rng.choice([1, 2, 3, 7, 255, 65521])
        else:
            imm = _random_imm(rng)
        return Instruction(op, dst=dst, imm=imm)
    if r < 0.40:
        # Includes DIV/MOD by register: a zero divisor is a legitimate
        # differential outcome (ExecutionError in both engines).
        return Instruction(rng.choice(ALU_REG_LIST), dst=dst, src=src)
    if r < 0.45:
        return Instruction(Op.NEG, dst=dst)
    if r < 0.51:
        return Instruction(Op.LDDW, dst=dst, imm=_random_imm(rng))
    if r < 0.65:
        op = rng.choice(JUMP_LIST)
        # Mostly forward so programs usually terminate; backward jumps
        # exercise loops + fuel exhaustion.
        if rng.random() < 0.8 and pc + 1 < total:
            target = rng.randrange(pc + 1, total)
        else:
            target = rng.randrange(total)
        off = target - pc - 1
        if op is Op.JA:
            return Instruction(op, offset=off)
        if op in JMP_IMM_SET:
            return Instruction(op, dst=dst, offset=off, imm=_random_imm(rng))
        return Instruction(op, dst=dst, src=src, offset=off)
    if r < 0.75:
        # Frame-pointer-relative access: statically checked, so keep the
        # offset inside the stack (the verifier rejects anything else).
        op = rng.choice(MEM_LIST)
        size = MEM_SIZES[op]
        offset = -rng.randrange(size, STACK_SIZE + 1)
        if op in LOAD_OPS:
            return Instruction(op, dst=dst, src=10, offset=offset)
        if op in STORE_REG_OPS:
            return Instruction(op, dst=10, src=src, offset=offset)
        return Instruction(op, dst=10, offset=offset, imm=_random_imm(rng))
    if r < 0.93:
        # Dynamically-monitored access through r6 (stack ptr), r7 (heap
        # ptr) or a random register — violations are an expected outcome.
        op = rng.choice(MEM_LIST)
        base = rng.choice([6, 6, 7, 7, 7, rng.randrange(10)])
        offset = rng.choice([0, 0, 8, 16, 24, -8, 96, 504, 4096])
        if op in LOAD_OPS:
            return Instruction(op, dst=dst, src=base, offset=offset)
        if op in STORE_REG_OPS:
            return Instruction(op, dst=base, src=src, offset=offset)
        return Instruction(op, dst=base, offset=offset, imm=_random_imm(rng))
    return Instruction(Op.CALL, imm=rng.choice([1, 1, 1, 7, 7, 99]))


def random_program(rng, n_body=30):
    prog = [
        Instruction(Op.LDDW, dst=6,
                    imm=STACK_BASE + rng.randrange(0, STACK_SIZE, 8)),
        Instruction(Op.LDDW, dst=7,
                    imm=HEAP_BASE + rng.randrange(0, HEAP_SIZE, 8)),
    ]
    total = len(prog) + n_body + 1
    for i in range(n_body):
        prog.append(_random_ins(rng, len(prog), total))
    prog.append(Instruction(Op.EXIT))
    return prog


# --- differential harness ----------------------------------------------------

def _make_helpers(log):
    def h_sum(vm, a1, a2, a3, a4, a5):
        log.append(("sum", a1, a2, a3, a4, a5))
        return a1 + a2

    def h_void(vm, a1, a2, a3, a4, a5):
        log.append(("void", a1))
        return None

    return {1: h_sum, 7: h_void}


def _observe(vm_cls, program, budget, runs, analysis=None):
    """Run ``program`` and capture everything observable from outside."""
    mem = PluginMemory(size=HEAP_SIZE)
    log = []
    kwargs = ({"code": load_jit(program, analysis)}
              if vm_cls is JitVirtualMachine else {})
    vm = vm_cls(program, mem, helpers=_make_helpers(log),
                instruction_budget=budget, helper_call_budget=8, **kwargs)
    if vm_cls is JitVirtualMachine:
        assert vm.jit_enabled, "generated program unexpectedly fell back"
    trace = []
    for args in runs:
        try:
            trace.append(("ok", vm.run(*args)))
        except VmError as exc:
            trace.append(("err", type(exc).__name__, str(exc)))
        trace.append((vm.instructions_executed, vm.helper_calls_made))
        assert vm.current_stack is None
    return trace, bytes(mem.data), log


def assert_equivalent(program, budgets=(5, 17, 64, 300),
                      runs=((), (3, (1 << 63) + 5, 7))):
    verify(program)
    for budget in budgets:
        ref = _observe(VirtualMachine, program, budget, runs)
        jit = _observe(JitVirtualMachine, program, budget, runs)
        assert jit == ref, (
            f"divergence at budget={budget}:\n ref={ref}\n jit={jit}\n"
            f"program={program}"
        )


# --- tests -------------------------------------------------------------------

class TestRandomDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_programs(self, seed):
        rng = random.Random(0xC0FFEE ^ seed)
        for _ in range(3):
            assert_equivalent(random_program(rng))

    def test_longer_programs(self):
        rng = random.Random(0xBEEF)
        for _ in range(5):
            assert_equivalent(random_program(rng, n_body=120),
                              budgets=(40, 1000))


class TestFixedPrograms:
    def test_kernel_result_and_fuel_identical(self):
        src = """
            mov r2, 0
            mov r3, 0
        loop:
            jge r3, r1, done
            mov r4, r3
            mul r4, 3
            add r2, r4
            mod r2, 65521
            add r3, 1
            ja loop
        done:
            mov r0, r2
            exit
        """
        assert_equivalent(assemble(src), budgets=(10, 999, 10_000_000),
                          runs=((500,), (2000,)))

    def test_memory_violation_same_class_and_message(self):
        prog = assemble("lddw r2, 0x7f00000000\nldxdw r0, [r2+0]\nexit")
        assert_equivalent(prog)

    def test_fp_constant_folded_violation(self):
        # r10-based but *dynamic* base via mov keeps it unverified; use a
        # heap pointer walked past the end instead.
        prog = assemble(
            f"lddw r2, {HEAP_BASE}\nadd r2, {HEAP_SIZE - 4}\n"
            "ldxdw r0, [r2+0]\nexit"
        )
        assert_equivalent(prog)

    def test_infinite_loop_fuel_exact(self):
        assert_equivalent(assemble("top:\nja top\nexit"), budgets=(1, 2, 77))

    def test_division_by_zero_register(self):
        assert_equivalent(assemble("mov r2, 0\nmov r1, 5\ndiv r1, r2\nexit"))

    def test_helper_budget_and_unknown_helper(self):
        calls = "\n".join(["call 1"] * 12) + "\nexit"
        assert_equivalent(assemble(calls))
        assert_equivalent(assemble("call 99\nexit"))

    def test_fall_off_end_is_pc_error(self):
        # r0 == 0, so the jump skips EXIT, lands on the trailing MOV and
        # runs off the end of the program.
        prog = [Instruction(Op.JEQ_IMM, dst=0, offset=1, imm=0),
                Instruction(Op.EXIT),
                Instruction(Op.MOV_IMM, dst=0, imm=7)]
        assert_equivalent(prog)
        # Untaken variant of the same shape falls through to EXIT.
        prog2 = [Instruction(Op.JEQ_IMM, dst=0, offset=1, imm=5),
                 Instruction(Op.EXIT),
                 Instruction(Op.MOV_IMM, dst=0, imm=7)]
        assert_equivalent(prog2)

    def test_argument_masking(self):
        prog = assemble("mov r0, r1\nexit")
        assert_equivalent(prog, runs=((-1,), ((1 << 65) + 9,)))

    def test_signed_compares_and_arsh(self):
        src = """
            lddw r2, -8
            arsh r2, 1
            jsgt r2, r1, neg
            mov r0, 1
            exit
        neg:
            mov r0, 2
            exit
        """
        assert_equivalent(assemble(src), runs=((0,), (-3,), ((1 << 63),)))

    def test_helper_sees_current_stack(self):
        """The JIT must expose the live stack to helpers, like the
        interpreter does (helpers resolve stack pointers through it)."""
        seen = []

        def peek(vm, a1, a2, a3, a4, a5):
            seen.append(vm.load(a1, 8, vm.current_stack))
            return 0

        prog = assemble(
            "stdw [r10-8], 123456\nmov r1, r10\nadd r1, -8\ncall 3\nexit"
        )
        VirtualMachine(prog, PluginMemory(size=64), helpers={3: peek}).run()
        JitVirtualMachine(prog, PluginMemory(size=64), helpers={3: peek},
                          code=load_jit(prog)).run()
        assert seen == [123456, 123456]

    def test_heap_state_persists_between_runs(self):
        prog = assemble(
            f"lddw r2, {HEAP_BASE}\nldxdw r3, [r2+0]\nadd r3, 1\n"
            "stxdw [r2+0], r3\nmov r0, r3\nexit"
        )
        assert_equivalent(prog, runs=((), (), ()))


class TestJitMachinery:
    def test_compile_rejects_empty_program(self):
        with pytest.raises(JitError):
            compile_jit([])

    def test_oversized_program_falls_back(self):
        prog = [Instruction(Op.MOV_IMM, dst=0, imm=0)] * (MAX_JIT_PROGRAM + 1)
        prog.append(Instruction(Op.EXIT))
        vm = JitVirtualMachine(prog, PluginMemory(size=64),
                               code=load_jit(prog))
        assert not vm.jit_enabled
        assert vm.run() == 0  # interpreter fallback still executes

    def test_create_vm_defaults_to_jit(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        prog = assemble("mov r0, 42\nexit")
        vm = create_vm(prog, PluginMemory(size=64))
        assert isinstance(vm, JitVirtualMachine) and vm.jit_enabled
        assert vm.run() == 42

    def test_repro_jit_0_forces_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        prog = assemble("mov r0, 42\nexit")
        vm = create_vm(prog, PluginMemory(size=64))
        assert type(vm) is VirtualMachine
        assert vm.run() == 42

    def test_plugin_instance_uses_jit(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        from repro.core import Plugin, PluginInstance, Pluglet
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        plugin = Plugin("org.test.jit", [
            Pluglet("noop", "packet_sent_event", "post",
                    assemble("mov r0, 0\nexit")),
        ])
        inst = PluginInstance(plugin, conn)
        vm = inst.vms["noop"]
        assert isinstance(vm, JitVirtualMachine) and vm.jit_enabled

    def test_generated_source_attached(self):
        fn = compile_jit(assemble("mov r0, 1\nexit"))
        assert "def _pluglet" in fn.source


# --- proof-guided specialization ---------------------------------------------

CORPUS_GOOD = Path(__file__).parent / "corpus" / "good"


def assert_proof_equivalent(program, budgets=(5, 17, 64, 300),
                            runs=((), (3, (1 << 63) + 5, 7))):
    """Like :func:`assert_equivalent`, but the JIT VM additionally gets
    the analyzer's report: the monitor-free specialized closure must be
    indistinguishable from the interpreter — proofs change speed, never
    behavior."""
    verify(program)
    report = analyze(program, heap_size=HEAP_SIZE)
    for budget in budgets:
        ref = _observe(VirtualMachine, program, budget, runs)
        jit = _observe(JitVirtualMachine, program, budget, runs,
                       analysis=report)
        assert jit == ref, (
            f"proof-guided divergence at budget={budget}:\n ref={ref}\n"
            f" jit={jit}\n report={report.summary()}\n program={program}"
        )


class TestProofGuided:
    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in CORPUS_GOOD.glob("*.s")))
    def test_good_corpus_identical(self, name):
        program = assemble((CORPUS_GOOD / f"{name}.s").read_text())
        assert_proof_equivalent(program, runs=((), (3, 9), (250, 1)))

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_random_programs_with_proofs(self, seed):
        rng = random.Random(0xA11A ^ seed)
        for _ in range(3):
            assert_proof_equivalent(random_program(rng))

    def test_unproven_addresses_keep_the_monitor(self):
        # r1 is unknown to the analyzer, so no region fact exists; the
        # specialized closure must still catch the violation.
        program = assemble("ldxdw r0, [r1+0]\nexit")
        assert_proof_equivalent(
            program,
            runs=((STACK_BASE,), (HEAP_BASE,), (0,),
                  (HEAP_BASE + HEAP_SIZE - 4,)))

    def test_helper_budget_exhaustion_identical(self):
        program = assemble("\n".join(["call 1"] * 12) + "\nexit")
        assert_proof_equivalent(program)

    def test_specializes_on_proofs(self):
        program = assemble(
            f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nldxdw r0, [r6+0]\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.memory_safe and report.fuel_bound == 4
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               code=load_jit(program, report))
        assert vm.jit_specialized
        assert vm.run() == 7
        assert vm.instructions_executed == 4

    def test_specialized_source_is_monitor_free(self):
        program = assemble(
            f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nldxdw r0, [r6+0]\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               code=load_jit(program, report))
        fast = vm._fast_function.source
        checked = vm.jit_function.source
        assert "raise _FuelExhausted" in checked
        assert "raise _FuelExhausted" not in fast
        assert "_MemoryViolation" in checked
        assert "_MemoryViolation" not in fast  # both accesses proven
        assert "_fuel -=" in fast  # accounting stays exact

    def test_budget_below_bound_takes_checked_path(self):
        program = assemble("mov r0, 1\nadd r0, 2\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.fuel_bound == 3
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               instruction_budget=2,
                               code=load_jit(program, report))
        assert vm.jit_specialized  # compiled, but gated per run
        with pytest.raises(FuelExhausted, match="2 instructions"):
            vm.run()
        assert vm.instructions_executed == 2  # same charge as interpreter

    def test_rejected_program_is_not_specialized(self):
        # Definite division by zero: the report carries an error, so the
        # proofs must not be used; behavior is the plain checked JIT's.
        program = assemble("mov r6, 0\nmov r0, 10\ndiv r0, r6\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert not report.ok
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               code=load_jit(program, report))
        assert not vm.jit_specialized
        assert_proof_equivalent(program)

    def test_heap_smaller_than_proof_disables_specialization(self):
        program = assemble(f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.memory_safe
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               code=load_jit(program, report))
        assert not vm.jit_specialized  # proof assumed a bigger heap
        vm.run()  # checked path still executes correctly

    def test_create_vm_specializes_only_with_a_report(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        program = assemble("mov r0, 42\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)

        vm = create_vm(program, PluginMemory(size=HEAP_SIZE))
        assert isinstance(vm, JitVirtualMachine)
        assert not vm.jit_specialized  # no report: monitored
        assert vm.run() == 42

        vm = create_vm(program, PluginMemory(size=HEAP_SIZE),
                       analysis=report)
        assert vm.jit_specialized
        assert vm.run() == 42


# --- frame promotion ----------------------------------------------------------
#
# The generator above draws FP offsets and sizes at random and reads r10
# as an ALU source, so its frames are almost never private.  This one
# keeps r10 a pure base register over aligned, disjoint slots — and then
# aims everything else that can reach the stack at those same slots.

SLOT_AREA = STACK_SIZE - 64          # slots live in the top 64 bytes
SLOT_REGS = [0, 1, 2, 3, 4, 5, 8, 9]  # r6/r7 stay the fabricated pointers
H_BLIND, H_VOID, H_DECLARED, H_UNDECLARED = 1, 7, 3, 4
STACK_BLIND = frozenset({H_BLIND, H_VOID})
OPS_BY_SIZE = {size: [op for op in MEM_LIST if MEM_SIZES[op] == size]
               for size in (1, 2, 4, 8)}


def _slot_layout(rng):
    """Aligned, pairwise disjoint (stack offset, size) slots, with gaps."""
    slots, at = [], SLOT_AREA
    while at < STACK_SIZE:
        size = rng.choice([s for s in (1, 2, 4, 8) if at % s == 0])
        if rng.random() < 0.7:
            slots.append((at, size))
        at += size
    return slots or [(STACK_SIZE - 8, 8)]


def _memory_ins(rng, op, base, offset):
    if op in LOAD_OPS:
        return Instruction(op, dst=rng.choice(SLOT_REGS), src=base,
                           offset=offset)
    if op in STORE_REG_OPS:
        return Instruction(op, dst=base, src=rng.randrange(10), offset=offset)
    return Instruction(op, dst=base, offset=offset, imm=_random_imm(rng))


def _promotable_ins(rng, pc, total, slots):
    r = rng.random()
    dst = rng.choice(SLOT_REGS)
    src = rng.randrange(10)  # r10 never escapes
    if r < 0.30:
        at, size = rng.choice(slots)
        return _memory_ins(rng, rng.choice(OPS_BY_SIZE[size]), 10,
                           at - STACK_SIZE)
    if r < 0.42:
        # Through r6, a constant pointer into the slot area: any size at
        # any byte, so accesses straddle slots.  The analyzer proves the
        # region, so the specialised closure reaches the stack unmonitored.
        op = rng.choice(MEM_LIST)
        return _memory_ins(rng, op, 6, rng.randrange(65 - MEM_SIZES[op]))
    if r < 0.47:
        return _memory_ins(rng, rng.choice(MEM_LIST), 7,
                           rng.choice([0, 8, 16, 24]))
    if r < 0.52:
        # Through an argument register: monitored in both closures, and
        # a stack address, a heap address or a violation depending on
        # the run.
        return _memory_ins(rng, rng.choice(MEM_LIST), rng.choice([1, 2, 3]),
                           rng.choice([0, 0, 1, 8]))
    if r < 0.64:
        return Instruction(Op.CALL, imm=rng.choice(
            [H_BLIND, H_VOID] + [H_DECLARED, H_UNDECLARED] * 4 + [99]))
    if r < 0.74:
        op = rng.choice(JUMP_LIST)
        if rng.random() < 0.75 and pc + 1 < total:
            target = rng.randrange(pc + 1, total)
        else:
            target = rng.randrange(total)  # loops
        off = target - pc - 1
        if op is Op.JA:
            return Instruction(op, offset=off)
        if op in JMP_IMM_SET:
            return Instruction(op, dst=dst, offset=off, imm=_random_imm(rng))
        return Instruction(op, dst=dst, src=src, offset=off)
    if r < 0.86:
        op = rng.choice(ALU_IMM_LIST)
        if op in (Op.LSH_IMM, Op.RSH_IMM, Op.ARSH_IMM):
            imm = rng.randrange(64)
        elif op in (Op.DIV_IMM, Op.MOD_IMM):
            imm = rng.choice([1, 2, 3, 7, 255, 65521])
        else:
            imm = _random_imm(rng)
        return Instruction(op, dst=dst, imm=imm)
    if r < 0.96:
        op = rng.choice(ALU_REG_LIST)
        if op in (Op.DIV, Op.MOD) and rng.random() < 0.7:
            op = Op.ADD  # registers are often 0: keep most programs alive
        return Instruction(op, dst=dst, src=src)
    return Instruction(Op.LDDW, dst=dst, imm=_random_imm(rng))


#: Argument sets for the promotable programs: r1-r3 double as pointers.
POINTER_RUNS = (
    (STACK_BASE + SLOT_AREA + 8, HEAP_BASE + 16, STACK_BASE + SLOT_AREA + 40),
    (HEAP_BASE + 64, STACK_BASE + SLOT_AREA, HEAP_BASE + HEAP_SIZE - 4),
    (),
)


def promotable_program(rng, n_body=30):
    slots = _slot_layout(rng)
    prog = [
        Instruction(Op.LDDW, dst=6, imm=STACK_BASE + SLOT_AREA),
        Instruction(Op.LDDW, dst=7,
                    imm=HEAP_BASE + rng.randrange(0, HEAP_SIZE - 32, 8)),
        # Every register is written before the body reads it, so the
        # analyzer accepts the program and the proofs get used.
        Instruction(Op.MOV_IMM, dst=0, imm=0),
        Instruction(Op.MOV_IMM, dst=8, imm=rng.randrange(1, 9)),
        Instruction(Op.MOV_IMM, dst=9, imm=rng.randrange(1, 9)),
    ]
    total = len(prog) + n_body + 1
    for _ in range(n_body):
        prog.append(_promotable_ins(rng, len(prog), total, slots))
    prog.append(Instruction(Op.EXIT))
    return prog


def _stack_helpers(log):
    """The blind pair of ``_make_helpers`` plus one helper that reads
    *and* writes the running stack, installed under a declared and an
    undeclared id."""
    def h_poke(vm, a1, a2, a3, a4, a5):
        stack = vm.current_stack
        log.append(("poke", a1, bytes(stack[SLOT_AREA:])))
        at = SLOT_AREA + a1 % 57
        for i in range(8):
            stack[at + i] = (stack[at + i] + a2 + i) & 0xFF
        return stack[at] + a1

    helpers = _make_helpers(log)
    helpers[H_DECLARED] = helpers[H_UNDECLARED] = h_poke
    return helpers


def _observe_promoted(program, code, budget, runs):
    mem = PluginMemory(size=HEAP_SIZE)
    log = []
    if code is None:
        vm = VirtualMachine(program, mem, helpers=_stack_helpers(log),
                            instruction_budget=budget, helper_call_budget=8)
    else:
        vm = JitVirtualMachine(program, mem, helpers=_stack_helpers(log),
                               instruction_budget=budget,
                               helper_call_budget=8, code=code)
    trace = []
    for args in runs:
        try:
            trace.append(("ok", vm.run(*args)))
        except VmError as exc:
            trace.append(("err", type(exc).__name__, str(exc)))
        trace.append((vm.instructions_executed, vm.helper_calls_made))
        assert vm.current_stack is None
    return trace, bytes(mem.data), log


def is_promoted(fn):
    """Whether a compiled closure keeps its frame in ``s<offset>`` locals."""
    return re.search(r"\bs\d+\b", fn.source) is not None


def assert_promoted_equivalent(program, runs=POINTER_RUNS, cap=200):
    """Interpreter vs checked vs proof-specialised closure, under every
    fuel budget from 0 to what the program executes (``cap`` for the
    ones that loop for ever)."""
    verify(program)
    report = analyze(program, heap_size=HEAP_SIZE)
    checked = JitCode(compile_jit(program, stack_blind=STACK_BLIND))
    proven = load_jit(program, report, STACK_BLIND)
    assert is_promoted(checked.checked)
    assert proven.fast is None or is_promoted(proven.fast)
    counts = [0] + [step[0] for step in _observe_promoted(
        program, None, cap, runs)[0][1::2]]  # cumulative, after each run
    executed = max(after - before
                   for before, after in zip(counts, counts[1:]))
    for budget in range(executed + 1):
        ref = _observe_promoted(program, None, budget, runs)
        for name, code in (("checked", checked), ("proven", proven)):
            got = _observe_promoted(program, code, budget, runs)
            assert got == ref, (
                f"{name} closure diverges at budget={budget}:\n ref={ref}\n"
                f" got={got}\n program={program}\n"
                f"{(code.fast or code.checked).source}")


class TestFramePromotion:
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_promotable_programs(self, seed):
        rng = random.Random(0x51075 ^ seed)
        for _ in range(2):
            assert_promoted_equivalent(promotable_program(rng))

    def test_longer_promotable_programs(self):
        rng = random.Random(0xF4A3E)
        for _ in range(3):
            assert_promoted_equivalent(promotable_program(rng, n_body=100),
                                       cap=300)

    def test_sub_word_slots_and_a_straddling_pointer(self):
        # Four byte slots and a half-word slot; r6 reads a word across
        # the bytes and stores a dword over everything.
        program = assemble(f"""
            lddw r6, {STACK_BASE + STACK_SIZE - 8}
            stb [r10-8], 0x11
            stb [r10-7], 0x22
            stb [r10-6], 0x33
            stb [r10-5], 0x44
            sth [r10-4], 0x6655
            ldxw r1, [r6+0]
            ldxh r2, [r6+3]
            lddw r3, 0x0102030405060708
            stxdw [r6+0], r3
            ldxb r4, [r10-7]
            ldxh r5, [r10-4]
            mov r0, r1
            add r0, r2
            add r0, r4
            add r0, r5
            exit
        """)
        assert_promoted_equivalent(program, runs=((),))
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               code=load_jit(program))
        assert vm.run() == 0x44332211 + 0x5544 + 0x07 + 0x0304

    def test_loop_over_a_promoted_counter(self):
        program = assemble("""
            stdw [r10-8], 0
        top:
            ldxdw r1, [r10-8]
            add r1, 1
            stxdw [r10-8], r1
            jlt r1, 9, top
            ldxdw r0, [r10-8]
            exit
        """)
        assert_promoted_equivalent(program, runs=((),))

    def test_helper_written_slot_is_re_read(self):
        program = assemble(f"""
            stdw [r10-64], 5
            mov r1, 0
            mov r2, 1
            call {H_UNDECLARED}
            ldxdw r0, [r10-64]
            mov r1, 0
            mov r2, 1
            call {H_DECLARED}
            ldxdw r3, [r10-64]
            add r0, r3
            exit
        """)
        assert_promoted_equivalent(program, runs=((),))

    def test_promoted_slots_use_no_struct_outside_write_back(self):
        program = assemble(f"""
            stdw [r10-8], 1
            sth [r10-16], 2
            ldxdw r1, [r10-8]
            ldxh r2, [r10-16]
            call {H_BLIND}
            exit
        """)
        source = compile_jit(program, stack_blind=STACK_BLIND).source
        assert "s504 = 1" in source and "r2 = s496" in source
        assert "stack" not in source.split("\n", 1)[1]
        # One flush for the whole straight-line run up to the call.
        assert source.count("_fuel -= ") == 2 and "_fuel -= 5" in source

    def test_write_back_brackets_exactly_the_calls_that_may_reach(self):
        program = assemble(f"""
            stdw [r10-8], 1
            call {H_BLIND}
            call {H_DECLARED}
            call {H_UNDECLARED}
            call {H_VOID}
            ldxdw r0, [r10-8]
            exit
        """)
        lines = [line.strip() for line in compile_jit(
            program, stack_blind=STACK_BLIND).source.splitlines()]
        calls = [i for i, line in enumerate(lines) if line.startswith("_r = ")]
        fetched = [int(re.search(r"_hget\((\d+)\)", line).group(1))
                   for line in lines if "_hget(" in line]
        assert fetched == [H_BLIND, H_DECLARED, H_UNDECLARED, H_VOID]
        for helper, at in zip(fetched, calls):
            bracketed = (lines[at - 1].startswith("_wb0(stack, 504, s504")
                         and lines[at + 1].startswith("(s504,) = _rr0("))
            assert bracketed == (helper not in STACK_BLIND)
        # No declaration at all: every id is taken to reach the stack.
        assert compile_jit(program).source.count("_wb0(") == 4

    def test_monitored_access_writes_back_only_in_its_stack_arm(self):
        program = assemble("""
            stdw [r10-8], 1
            ldxdw r0, [r1+0]
            exit
        """)
        lines = [line.strip()
                 for line in compile_jit(program).source.splitlines()]
        arm = lines.index(f"if {STACK_BASE} <= _a <= "
                          f"{STACK_BASE + STACK_SIZE - 8}:")
        assert lines[arm + 1].startswith("_wb0(")
        assert lines[arm + 3].startswith("(s504,) = _rr0(")
        assert lines[arm + 4].startswith("elif ")
        assert sum("_wb0(" in line for line in lines) == 1
        assert_promoted_equivalent(
            program, runs=((STACK_BASE + STACK_SIZE - 8,), (HEAP_BASE,),
                           (STACK_BASE + STACK_SIZE - 4,), (0,)))


#: What the parent of the frame-promotion change emitted for
#: ``ESCAPING_R10``: a frame that is not private compiles as before.
ESCAPING_R10 = """
    stdw [r10-8], 7
    mov r1, r10
    add r1, -8
    ldxdw r0, [r1+0]
    call 1
    exit
"""
UNPROMOTED_SOURCE = '''\
def _pluglet(vm, stack, out, r1, r2, r3, r4, r5):
    _budget = vm.instruction_budget
    _fuel = _budget
    _hcalls = 0
    _hbudget = vm.helper_call_budget
    _hget = vm.helpers.get
    _heap = vm.memory.data
    _hm = 536870912 + vm.memory.size
    _he8 = _hm - 8
    r0 = 0
    r6 = 0
    r7 = 0
    r8 = 0
    r9 = 0
    _bb = 0
    try:
        while 1:
            if _bb <= 0:
                _fuel -= 1
                if _fuel < 0:
                    _fuel = 0
                    raise _FuelExhausted("fuel budget exhausted (%d instructions)" % _budget)
                _p8(stack, 504, 7)
                r1 = 268435968
                r1 = (r1 + 18446744073709551608) & 18446744073709551615
                _fuel -= 3
                if _fuel < 0:
                    _fuel = 0
                    raise _FuelExhausted("fuel budget exhausted (%d instructions)" % _budget)
                _a = r1
                if 268435456 <= _a <= 268435960:
                    r0 = _u8(stack, _a - 268435456)[0]
                elif 536870912 <= _a <= _he8:
                    r0 = _u8(_heap, _a - 536870912)[0]
                else:
                    raise _MemoryViolation("access of 8 bytes at 0x%x outside pluglet stack and plugin memory" % _a)
                _fuel -= 1
                if _fuel < 0:
                    _fuel = 0
                    raise _FuelExhausted("fuel budget exhausted (%d instructions)" % _budget)
                _h = _hget(1)
                if _h is None:
                    raise _ExecutionError("unknown helper id 1")
                if _hcalls >= _hbudget:
                    raise _FuelExhausted("helper-call budget exhausted (%d calls)" % _hbudget)
                _hcalls += 1
                _r = _h(vm, r1, r2, r3, r4, r5)
                r0 = (_r or 0) & 18446744073709551615
                _fuel -= 1
                if _fuel < 0:
                    _fuel = 0
                    raise _FuelExhausted("fuel budget exhausted (%d instructions)" % _budget)
                return r0
    finally:
        out[0] = _budget - _fuel
        out[1] = _hcalls
'''


class TestPromotionRefused:
    """A frame that fails the privacy test compiles by the unpromoted
    emission: every FP-relative access is a struct call on the stack
    bytearray with its own fuel flush."""

    def test_escaping_r10_emits_the_parent_source(self):
        fn = compile_jit(assemble(ESCAPING_R10), stack_blind=STACK_BLIND)
        assert fn.source == UNPROMOTED_SOURCE

    @pytest.mark.parametrize("asm", [
        # same offset, different extent
        "stdw [r10-8], 1\nldxw r0, [r10-8]\nexit",
        # partial overlap
        "stdw [r10-8], 1\nldxw r0, [r10-4]\nexit",
        "stdw [r10-8], 1\nldxb r0, [r10-7]\nexit",
        # r10 as ALU operand, jump operand (either side), stored value
        "stdw [r10-8], 1\nmov r1, r10\nexit",
        "stdw [r10-8], 1\nadd r1, r10\nexit",
        "stdw [r10-8], 1\njeq r1, r10, +0\nexit",
        "stdw [r10-8], 1\njgt r10, r1, +0\nexit",
        "stdw [r10-8], 1\njne r10, 5, +0\nexit",
        "stdw [r10-8], 1\nstxdw [r10-16], r10\nexit",
        "stdw [r10-8], 1\nstxdw [r1+0], r10\nexit",
        # an FP-relative access outside the 512-byte frame
        "stdw [r10-8], 1\nldxdw r0, [r10+0]\nexit",
        "stdw [r10-8], 1\nldxdw r0, [r10-516]\nexit",
        "stdw [r10-8], 1\nstb [r10-513], 1\nexit",
    ])
    def test_not_private(self, asm):
        program = assemble(asm)
        fn = compile_jit(program, stack_blind=STACK_BLIND)
        assert not is_promoted(fn)
        lines = [line.strip() for line in fn.source.splitlines()]
        # The store is a struct call behind a fuel flush of its own.
        assert lines[lines.index("_p8(stack, 504, 1)") - 4] == "_fuel -= 1"

    def test_private_frame_needs_no_slots(self):
        fn = compile_jit(assemble("mov r0, 1\nexit"))
        assert not is_promoted(fn) and "stack" not in fn.source.split(
            "\n", 1)[1]
