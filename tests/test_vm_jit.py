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

    def test_create_vm_analysis_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        program = assemble("mov r0, 42\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)

        monkeypatch.setenv("REPRO_ANALYSIS", "0")
        vm = create_vm(program, PluginMemory(size=HEAP_SIZE),
                       analysis=report)
        assert isinstance(vm, JitVirtualMachine)
        assert not vm.jit_specialized
        assert vm.run() == 42

        monkeypatch.delenv("REPRO_ANALYSIS")
        vm = create_vm(program, PluginMemory(size=HEAP_SIZE),
                       analysis=report)
        assert vm.jit_specialized
        assert vm.run() == 42
