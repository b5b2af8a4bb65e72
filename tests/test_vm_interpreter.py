"""Interpreter tests: semantics, memory monitor, helpers, budget."""

import pytest

from repro.vm import (
    HEAP_BASE,
    STACK_BASE,
    STACK_SIZE,
    ExecutionError,
    FuelExhausted,
    MemoryViolation,
    PluginMemory,
    VirtualMachine,
    assemble,
)

WORD = (1 << 64) - 1


def run(source, *args, heap=None, helpers=None, budget=1_000_000):
    vm = VirtualMachine(assemble(source), heap or PluginMemory(),
                        helpers=helpers, instruction_budget=budget)
    return vm.run(*args)


class TestAlu:
    def test_arithmetic(self):
        assert run("mov r0, r1\nadd r0, r2\nexit", 2, 3) == 5
        assert run("mov r0, r1\nsub r0, r2\nexit", 10, 4) == 6
        assert run("mov r0, r1\nmul r0, r2\nexit", 6, 7) == 42
        assert run("mov r0, r1\ndiv r0, r2\nexit", 42, 5) == 8
        assert run("mov r0, r1\nmod r0, r2\nexit", 42, 5) == 2

    def test_wraparound_64bit(self):
        assert run("mov r0, r1\nadd r0, 1\nexit", WORD) == 0
        assert run("mov r0, 0\nsub r0, 1\nexit") == WORD

    def test_bitwise(self):
        assert run("mov r0, r1\nand r0, r2\nexit", 0b1100, 0b1010) == 0b1000
        assert run("mov r0, r1\nor r0, r2\nexit", 0b1100, 0b1010) == 0b1110
        assert run("mov r0, r1\nxor r0, r2\nexit", 0b1100, 0b1010) == 0b0110

    def test_shifts(self):
        assert run("mov r0, r1\nlsh r0, 4\nexit", 1) == 16
        assert run("mov r0, r1\nrsh r0, 4\nexit", 256) == 16
        # Arithmetic shift keeps the sign.
        assert run("mov r0, r1\narsh r0, 1\nexit", WORD) == WORD

    def test_neg(self):
        assert run("mov r0, r1\nneg r0\nexit", 5) == (WORD - 4)

    def test_division_by_zero_register_faults(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            run("mov r0, 1\ndiv r0, r2\nexit", 0, 0)

    def test_lddw(self):
        assert run("lddw r0, 0xdeadbeefcafe\nexit") == 0xDEADBEEFCAFE


class TestJumps:
    def test_unsigned_comparison(self):
        # JGT is unsigned: WORD (== -1 signed) > 1.
        src = "mov r0, 0\njgt r1, r2, +1\nexit\nmov r0, 1\nexit"
        assert run(src, WORD, 1) == 1
        assert run(src, 1, 2) == 0

    def test_signed_comparison(self):
        src = "mov r0, 0\njsgt r1, r2, +1\nexit\nmov r0, 1\nexit"
        assert run(src, WORD, 1) == 0  # -1 < 1 signed
        assert run(src, 5, 1) == 1

    def test_jset(self):
        src = "mov r0, 0\njset r1, 0x4, +1\nexit\nmov r0, 1\nexit"
        assert run(src, 0b0100) == 1
        assert run(src, 0b0011) == 0

    def test_loop(self):
        src = """
            mov r0, 0
        top:
            jeq r1, 0, end
            add r0, r1
            sub r1, 1
            ja top
        end:
            exit
        """
        assert run(src, 5) == 15


class TestMemory:
    def test_stack_read_write(self):
        src = """
            stxdw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        """
        assert run(src, 0x1122334455667788) == 0x1122334455667788

    def test_byte_granularity(self):
        src = """
            stw [r10-8], 0x11223344
            ldxb r0, [r10-8]
            exit
        """
        assert run(src) == 0x44  # little-endian low byte

    def test_heap_read_write(self):
        heap = PluginMemory(1024)
        src = f"""
            lddw r2, {HEAP_BASE}
            stxdw [r2+16], r1
            ldxdw r0, [r2+16]
            exit
        """
        assert run(src, 777, heap=heap) == 777
        assert int.from_bytes(heap.data[16:24], "little") == 777

    def test_heap_shared_between_vms(self):
        """Figure 2: the heap is common to all pluglets of a plugin."""
        heap = PluginMemory(256)
        run(f"lddw r2, {HEAP_BASE}\nstxdw [r2+0], r1\nexit", 42, heap=heap)
        assert run(f"lddw r2, {HEAP_BASE}\nldxdw r0, [r2+0]\nexit", heap=heap) == 42

    def test_stack_fresh_per_invocation(self):
        src = "ldxdw r0, [r10-8]\nexit"
        vm = VirtualMachine(
            assemble("stxdw [r10-8], r1\nexit"), PluginMemory()
        )
        vm.run(99)
        assert run(src) == 0

    def test_out_of_bounds_below_heap(self):
        with pytest.raises(MemoryViolation):
            run(f"lddw r2, {HEAP_BASE - 8}\nldxdw r0, [r2+0]\nexit")

    def test_out_of_bounds_above_heap(self):
        heap = PluginMemory(64)
        with pytest.raises(MemoryViolation):
            run(f"lddw r2, {HEAP_BASE}\nldxdw r0, [r2+60]\nexit", heap=heap)

    def test_null_pointer_dereference(self):
        with pytest.raises(MemoryViolation):
            run("mov r2, 0\nldxdw r0, [r2+0]\nexit")

    def test_arbitrary_address_write_blocked(self):
        with pytest.raises(MemoryViolation):
            run("lddw r2, 0x7fff00000000\nstdw [r2+0], 1\nexit")

    def test_stack_heap_boundary_exact(self):
        # The very last stack byte is accessible; one past is not.
        run(f"lddw r2, {STACK_BASE + STACK_SIZE - 1}\nldxb r0, [r2+0]\nexit")
        with pytest.raises(MemoryViolation):
            run(f"lddw r2, {STACK_BASE + STACK_SIZE}\nldxb r0, [r2+0]\nexit")

    def test_straddling_access_rejected(self):
        with pytest.raises(MemoryViolation):
            run(f"lddw r2, {STACK_BASE + STACK_SIZE - 4}\nldxdw r0, [r2+0]\nexit")


class TestHelpers:
    def test_helper_receives_args_and_returns(self):
        calls = []

        def helper(vm, a, b, c, d, e):
            calls.append((a, b))
            return a + b

        src = "mov r1, 20\nmov r2, 22\ncall 1\nexit"
        assert run(src, helpers={1: helper}) == 42
        assert calls == [(20, 22)]

    def test_unknown_helper_faults(self):
        with pytest.raises(ExecutionError, match="unknown helper"):
            run("call 99\nexit")

    def test_helper_none_result_is_zero(self):
        assert run("call 1\nexit", helpers={1: lambda vm, *a: None}) == 0

    def test_helper_can_touch_plugin_memory(self):
        heap = PluginMemory(64)

        def poke(vm, a, *rest):
            vm.memory.data[0:8] = int(a).to_bytes(8, "little")
            return 0

        src = f"mov r1, 55\ncall 1\nlddw r2, {HEAP_BASE}\nldxdw r0, [r2+0]\nexit"
        assert run(src, heap=heap, helpers={1: poke}) == 55


class TestBudget:
    def test_infinite_loop_stopped(self):
        with pytest.raises(ExecutionError, match="budget"):
            run("top:\nja top\nexit", budget=10_000)

    def test_fuel_exhaustion_is_typed(self):
        """The runaway guard raises the dedicated FuelExhausted error (a
        subclass of ExecutionError) so containment can classify it."""
        with pytest.raises(FuelExhausted):
            run("top:\nja top\nexit", budget=100)

    def test_instruction_count_recorded(self):
        vm = VirtualMachine(assemble("mov r0, 1\nexit"), PluginMemory())
        vm.run()
        assert vm.instructions_executed == 2

    def test_instructions_accounted_even_on_fuel_exhaustion(self):
        vm = VirtualMachine(assemble("top:\nja top\nexit"), PluginMemory(),
                            instruction_budget=100)
        with pytest.raises(FuelExhausted):
            vm.run()
        assert vm.instructions_executed == 100

    def test_helper_call_budget_independent_of_instructions(self):
        """A pluglet hammering helpers is stopped by the helper-call
        budget long before the instruction budget."""
        calls = []
        src = """
            mov r6, 1000
        top:
            call 1
            sub r6, 1
            jne r6, 0, top
            mov r0, 0
            exit
        """
        vm = VirtualMachine(
            assemble(src), PluginMemory(),
            helpers={1: lambda vm, *a: calls.append(1)},
            instruction_budget=1_000_000, helper_call_budget=10,
        )
        with pytest.raises(FuelExhausted, match="helper-call budget"):
            vm.run()
        # The 11th call trips the budget before the helper itself runs.
        assert len(calls) == 10
        assert vm.helper_calls_made == 10

    def test_helper_budget_resets_between_invocations(self):
        src = "call 1\ncall 1\nexit"
        vm = VirtualMachine(
            assemble(src), PluginMemory(),
            helpers={1: lambda vm, *a: 0},
            helper_call_budget=2,
        )
        vm.run()
        vm.run()  # would fault if helper calls accumulated across runs
        assert vm.helper_calls_made == 4

    def test_too_many_args_rejected(self):
        vm = VirtualMachine(assemble("exit"), PluginMemory())
        with pytest.raises(ValueError):
            vm.run(1, 2, 3, 4, 5, 6)
