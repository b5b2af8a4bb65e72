"""Termination checker tests (§5)."""

import pytest

from repro.vm.analysis.cfg import ControlFlowGraph
from repro.vm.analysis.termination import check_termination
from repro.vm import assemble, compile_pluglet


class TestCfg:
    def test_straight_line_single_block(self):
        cfg = ControlFlowGraph(assemble("mov r0, 1\nadd r0, 2\nexit"))
        assert len(cfg.blocks) == 1
        assert cfg.back_edges == []

    def test_branch_makes_blocks(self):
        cfg = ControlFlowGraph(assemble("""
            jeq r1, 0, skip
            mov r0, 1
        skip:
            exit
        """))
        assert len(cfg.blocks) == 3
        assert cfg.back_edges == []

    def test_loop_detected(self):
        cfg = ControlFlowGraph(assemble("""
        top:
            sub r1, 1
            jne r1, 0, top
            exit
        """))
        assert len(cfg.back_edges) == 1

    def test_self_loop(self):
        cfg = ControlFlowGraph(assemble("top:\nja top\nexit"))
        assert len(cfg.back_edges) == 1

    def test_natural_loop_members(self):
        cfg = ControlFlowGraph(assemble("""
            mov r1, 10
        top:
            sub r1, 1
            jne r1, 0, top
            exit
        """))
        tail, head = cfg.back_edges[0]
        loop = cfg.natural_loop(tail, head)
        assert head in loop


class TestProofs:
    def test_loop_free_proven(self):
        report = check_termination(compile_pluglet(
            "def f(a, b):\n    return a * b + 1"))
        assert report.proven
        assert report.reason == "loop-free"

    def test_branching_no_loop_proven(self):
        src = """
def f(a):
    if a > 10:
        return 1
    if a > 5:
        return 2
    return 3
"""
        assert check_termination(compile_pluglet(src)).proven

    def test_counting_up_proven(self):
        src = """
def f(n):
    i = 0
    while i < n:
        i += 1
    return i
"""
        report = check_termination(compile_pluglet(src))
        assert report.proven
        assert "increases" in report.loops[0].ranking

    def test_counting_down_proven(self):
        src = """
def f(n):
    while n > 0:
        n -= 1
    return n
"""
        report = check_termination(compile_pluglet(src))
        assert report.proven
        assert "decreases" in report.loops[0].ranking

    def test_step_by_constant_proven(self):
        src = """
def f(n):
    i = 0
    while i < n:
        i += 7
    return i
"""
        assert check_termination(compile_pluglet(src)).proven

    def test_nested_loops_proven(self):
        src = """
def f(n):
    total = 0
    i = 0
    while i < n:
        j = 0
        while j < 100:
            total += 1
            j += 1
        i += 1
    return total
"""
        report = check_termination(compile_pluglet(src))
        assert report.proven
        assert len(report.loops) == 2

    def test_loop_with_break_proven(self):
        src = """
def f(n):
    i = 0
    while i < n:
        if i == 7:
            break
        i += 1
    return i
"""
        assert check_termination(compile_pluglet(src)).proven

    def test_helpers_assumed_terminating(self):
        """Like T2: 'The T2 prover assumes the termination of external
        functions'."""
        src = """
def f(x):
    a = helper(x)
    b = helper(a)
    return a + b
"""
        report = check_termination(compile_pluglet(src, helpers={"helper": 9}))
        assert report.proven


class TestRefusals:
    def test_infinite_loop_not_proven(self):
        assert not check_termination(assemble("top:\nja top\nexit")).proven

    def test_unmodified_guard_not_proven(self):
        report = check_termination(assemble("""
            mov r1, 10
        top:
            jeq r1, 0, end
            ja top
        end:
            exit
        """))
        assert not report.proven

    def test_helper_driven_guard_not_proven(self):
        src = """
def f(n):
    while probe(n) > 0:
        n = probe(n)
    return n
"""
        report = check_termination(compile_pluglet(src, helpers={"probe": 1}))
        assert not report.proven

    def test_moving_bound_not_proven(self):
        # Both the counter and the bound move: no invariant bound.
        src = """
def f(n):
    i = 0
    while i < n:
        i += 1
        n += 1
    return i
"""
        assert not check_termination(compile_pluglet(src)).proven

    def test_wrong_direction_not_proven(self):
        src = """
def f(n):
    i = 100
    while i < n:
        i -= 1
    return i
"""
        assert not check_termination(compile_pluglet(src)).proven

    def test_zero_step_not_proven(self):
        src = """
def f(n):
    i = 0
    while i < n:
        i += 0
    return i
"""
        assert not check_termination(compile_pluglet(src)).proven


class TestWraparound:
    """Counters are 64-bit words: a ranking must reach the exit set
    modulo 2^64, not just move toward the bound."""

    def test_non_negative_countdown_never_exits(self):
        # Every unsigned value is >= 0: the exit set is empty.
        src = """
def f(n):
    while n >= 0:
        n -= 1
    return n
"""
        assert not check_termination(compile_pluglet(src)).proven

    def test_inclusive_bound_may_be_the_largest_word(self):
        # n = 2^64 - 1: every i <= n, so the loop never exits.
        src = """
def f(n):
    i = 0
    while i <= n:
        i += 1
    return i
"""
        assert not check_termination(compile_pluglet(src)).proven

    def test_even_step_can_jump_over_the_exit(self):
        # n = 2^64 - 1: an even i is always below n, and wraps to 0.
        src = """
def f(n):
    i = 0
    while i < n:
        i += 2
    return i
"""
        assert not check_termination(compile_pluglet(src)).proven

    def test_signed_exit_has_no_negation(self):
        # No word is signed-greater than INT64_MAX: the only exit is
        # never taken.  JSGT has no negation in the ISA, so its exit
        # gives no stay condition to rank.
        report = check_termination(assemble("""
        top:
            add r1, 1
            jsgt r1, 9223372036854775807, out
            ja top
        out:
            exit
        """))
        assert not report.proven

    @pytest.mark.parametrize("loop", [
        "i = 0\n    while i < 100:\n        i += 2",
        "i = 0\n    while i <= 100:\n        i += 1",
        "while n >= 1:\n        n -= 1",
        "i = 0\n    while i != 100:\n        i += 1",
    ])
    def test_constant_bound_the_step_cannot_skip_proven(self, loop):
        src = f"def f(n):\n    {loop}\n    return n\n"
        assert check_termination(compile_pluglet(src)).proven

    def test_accepts_the_cfg_it_was_given(self):
        program = compile_pluglet(
            "def f(n):\n    while n > 0:\n        n -= 1\n    return n\n")
        cfg = ControlFlowGraph(program)
        assert check_termination(cfg) == check_termination(program)


class TestPluginCorpus:
    @pytest.mark.parametrize("builder_name", [
        "monitoring", "datagram", "multipath", "fec",
    ])
    def test_shipped_plugins_fully_proven(self, builder_name):
        """Table 2 analogue: our pluglets are simple enough that every one
        gets a termination proof (the paper proved most of theirs)."""
        from repro.plugins.datagram import build_datagram_plugin
        from repro.plugins.fec import build_fec_plugin
        from repro.plugins.monitoring import build_monitoring_plugin
        from repro.plugins.multipath import build_multipath_plugin

        builders = {
            "monitoring": build_monitoring_plugin,
            "datagram": build_datagram_plugin,
            "multipath": build_multipath_plugin,
            "fec": build_fec_plugin,
        }
        plugin = builders[builder_name]()
        for pluglet in plugin.pluglets:
            report = check_termination(pluglet.instructions)
            assert report.proven, f"{pluglet.name}: {report.reason}"
