"""Restricted-Python → bytecode compiler tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import (
    CompileError,
    ExecutionError,
    PluginMemory,
    VirtualMachine,
    compile_pluglet,
    verify,
)
from repro.vm.analysis import analyze
from repro.vm.interpreter import HEAP_BASE
from repro.vm.isa import FP_REGISTER, Op

WORD = (1 << 64) - 1


def build(source, helpers_map=None, helpers_impl=None):
    code = compile_pluglet(source, helpers=helpers_map)
    verify(code)  # everything the compiler emits must verify
    return VirtualMachine(code, PluginMemory(), helpers=helpers_impl)


class TestBasics:
    def test_return_constant(self):
        assert build("def f():\n    return 7").run() == 7

    def test_bare_return_and_fallthrough(self):
        assert build("def f():\n    return").run() == 0
        assert build("def f():\n    pass").run() == 0

    def test_parameters(self):
        vm = build("def f(a, b, c):\n    return a + b * c")
        assert vm.run(1, 2, 3) == 7

    def test_locals(self):
        vm = build(
            """
def f(a):
    x = a + 1
    y = x * 2
    return y - a
"""
        )
        assert vm.run(10) == 12

    def test_augmented_assignment(self):
        vm = build(
            """
def f(a):
    x = 0
    x += a
    x *= 3
    x -= 1
    return x
"""
        )
        assert vm.run(5) == 14

    def test_true_false_constants(self):
        assert build("def f():\n    return True").run() == 1
        assert build("def f():\n    return False").run() == 0

    def test_large_constant(self):
        assert build("def f():\n    return 0xdeadbeefcafebabe").run() == 0xDEADBEEFCAFEBABE

    def test_unary_ops(self):
        assert build("def f(a):\n    return -a").run(1) == WORD
        assert build("def f(a):\n    return ~a").run(0) == WORD


class TestControlFlow:
    def test_if_else(self):
        vm = build(
            """
def f(a):
    if a > 10:
        return 1
    else:
        return 2
"""
        )
        assert vm.run(11) == 1
        assert vm.run(10) == 2

    def test_elif_chain(self):
        vm = build(
            """
def f(a):
    if a == 0:
        r = 10
    elif a == 1:
        r = 20
    else:
        r = 30
    return r
"""
        )
        assert [vm.run(i) for i in range(3)] == [10, 20, 30]

    def test_while_loop(self):
        vm = build(
            """
def f(n):
    total = 0
    i = 1
    while i <= n:
        total += i
        i += 1
    return total
"""
        )
        assert vm.run(10) == 55

    def test_break_continue(self):
        vm = build(
            """
def f(n):
    total = 0
    i = 0
    while True:
        i += 1
        if i > n:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
"""
        )
        assert vm.run(10) == 25  # 1+3+5+7+9

    def test_nested_loops(self):
        vm = build(
            """
def f(n):
    total = 0
    i = 0
    while i < n:
        j = 0
        while j < n:
            total += 1
            j += 1
        i += 1
    return total
"""
        )
        assert vm.run(7) == 49

    def test_boolean_operators(self):
        vm = build(
            """
def f(a, b):
    if a > 1 and b > 1 and a + b > 10:
        return 1
    if a == 0 or b == 0:
        return 2
    return 3
"""
        )
        assert vm.run(6, 6) == 1
        assert vm.run(0, 5) == 2
        assert vm.run(2, 2) == 3

    def test_not_operator(self):
        vm = build(
            """
def f(a):
    if not a > 3:
        return 1
    return 0
"""
        )
        assert vm.run(2) == 1
        assert vm.run(4) == 0

    def test_truthiness_condition(self):
        vm = build("def f(a):\n    if a:\n        return 1\n    return 0")
        assert vm.run(7) == 1
        assert vm.run(0) == 0


class TestHelpers:
    def test_helper_call_with_args(self):
        log = []

        def record(vm, a, b, *rest):
            log.append((a, b))
            return a * 10 + b

        vm = build(
            "def f(x):\n    return emit(x, x + 1)",
            helpers_map={"emit": 4},
            helpers_impl={4: record},
        )
        assert vm.run(3) == 34
        assert log == [(3, 4)]

    def test_nested_helper_calls(self):
        vm = build(
            "def f(x):\n    return g(g(x))",
            helpers_map={"g": 1},
            helpers_impl={1: lambda vm, a, *r: a + 1},
        )
        assert vm.run(5) == 7

    def test_bare_call_statement(self):
        hits = []
        vm = build(
            "def f():\n    ping()\n    return 1",
            helpers_map={"ping": 2},
            helpers_impl={2: lambda vm, *a: hits.append(1)},
        )
        assert vm.run() == 1
        assert hits == [1]


class TestMemorySubscripts:
    """The mem8/mem16/mem32/mem64 pseudo-arrays compile to real load and
    store instructions, so every access runs under the memory monitor."""

    def test_store_load_roundtrip(self):
        from repro.vm.interpreter import HEAP_BASE

        vm = build(f"""
def f(v):
    base = {HEAP_BASE}
    mem64[base] = v
    mem32[base + 8] = v
    mem16[base + 12] = v
    mem8[base + 14] = v
    return mem64[base] + mem8[base + 14]
""")
        assert vm.run(0x1FF) == 0x1FF + 0xFF

    def test_subscript_in_expression(self):
        from repro.vm.interpreter import HEAP_BASE

        vm = build(f"""
def f(a, b):
    mem64[{HEAP_BASE}] = a
    mem64[{HEAP_BASE} + 8] = b
    return mem64[{HEAP_BASE}] * mem64[{HEAP_BASE} + 8]
""")
        assert vm.run(6, 7) == 42

    def test_out_of_bounds_subscript_trips_monitor(self):
        vm = build("def f():\n    return mem64[12345]")
        from repro.vm.interpreter import MemoryViolation

        with pytest.raises(MemoryViolation):
            vm.run()

    def test_unknown_pseudo_array_rejected(self):
        with pytest.raises(CompileError):
            compile_pluglet("def f():\n    return mem128[0]")
        with pytest.raises(CompileError):
            compile_pluglet("def f(a):\n    return a[0]")


class TestRejections:
    @pytest.mark.parametrize(
        "source",
        [
            "def f():\n    return 1.5",            # float constant
            "def f():\n    return 'str'",           # string constant
            "def f():\n    for i in range(3):\n        pass",  # for loop
            "def f():\n    x, y = 1, 2",            # tuple assignment
            "def f():\n    return unknown_helper()",  # unknown call
            "def f():\n    return a",                # undefined name
            "def f():\n    return 1 < 2 < 3",        # chained comparison
            "def f(a, b, c, d, e, g):\n    return 0",  # too many params
            "def f(*args):\n    return 0",           # varargs
            "def f():\n    while True:\n        pass\n    else:\n        pass",
            "def f():\n    import os",
            "def f():\n    return [1]",
            "def f():\n    x = lambda: 1",
        ],
    )
    def test_unsupported_constructs(self, source):
        with pytest.raises(CompileError):
            compile_pluglet(source)

    def test_two_functions_rejected(self):
        with pytest.raises(CompileError):
            compile_pluglet("def f():\n    return 0\ndef g():\n    return 1")


class TestSemantics:
    def test_division_is_unsigned_floor(self):
        vm = build("def f(a, b):\n    return a // b")
        assert vm.run(7, 2) == 3
        # -1 is WORD: unsigned division.
        assert vm.run(WORD, 2) == WORD // 2

    def test_runtime_division_by_zero_faults(self):
        vm = build("def f(a, b):\n    return a // b")
        with pytest.raises(ExecutionError):
            vm.run(1, 0)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_arith_matches_python(self, a, b):
        vm = build("def f(a, b):\n    return (a + b) * 2 + (a ^ b) + (a & b)")
        expected = ((a + b) * 2 + (a ^ b) + (a & b)) & WORD
        assert vm.run(a, b) == expected

    @given(st.integers(0, 50))
    @settings(max_examples=30)
    def test_loop_matches_python(self, n):
        vm = build(
            """
def f(n):
    total = 0
    i = 0
    while i < n:
        total += i * i
        i += 1
    return total
"""
        )
        assert vm.run(n) == sum(i * i for i in range(n)) & WORD

    def test_deep_expression_spills(self):
        # Right-nested sums of products keep one product live per level:
        # past the free registers the oldest spill to frame slots, and the
        # program must still verify and compute.
        expr = "a * 3 + (" * 30 + "a" + ")" * 30
        code = compile_pluglet(f"def f(a):\n    return {expr}")
        assert any(ins.opcode is Op.STXDW and ins.dst == FP_REGISTER
                   for ins in code)
        assert build(f"def f(a):\n    return {expr}").run(2) == 2 * 3 * 30 + 2

    def test_excessively_deep_expression_rejected(self):
        # One live temporary per level: once the registers and the spill
        # slots of the 512-byte stack are used up, the compiler refuses.
        expr = "a * 3 + (" * 80 + "a" + ")" * 80
        with pytest.raises(CompileError):
            compile_pluglet(f"def f(a):\n    return {expr}")

    def test_left_nested_expression_constant_depth(self):
        # Left-nested additions evaluate with one temp slot, however long.
        expr = "(" * 60 + "a" + " + a)" * 60
        vm = build(f"def f(a):\n    return {expr}")
        assert vm.run(1) == 61


class TestBackEnd:
    """What the register back end emits: homes, immediates, folding and
    no dead code."""

    def test_roadmap_counter_with_pointer_parameter(self):
        # Clang's eBPF needs 5: load, add, store, return value, exit.
        source = """
def f(pi):
    mem64[pi + 0] = mem64[pi + 0] + 1
    return 0
"""
        code = compile_pluglet(source)
        assert len(code) <= 5
        vm = build(source)
        vm.memory.data[:8] = (41).to_bytes(8, "little")
        assert vm.run(HEAP_BASE) == 0
        assert int.from_bytes(vm.memory.data[:8], "little") == 42

    def test_displacement_and_immediate_forms(self):
        code = compile_pluglet("def f(st):\n    return mem64[st + 8] + 5")
        assert [ins.opcode for ins in code] == [Op.LDXDW, Op.ADD_IMM, Op.EXIT]
        assert code[0].offset == 8 and code[1].imm == 5

    def test_constants_fold_through_the_isa(self):
        code = compile_pluglet("def f():\n    return (3 + 4) * 2 - (1 << 4) // 2")
        assert [ins.opcode for ins in code] == [Op.MOV_IMM, Op.EXIT]
        assert code[0].imm == 6
        assert build("def f():\n    return -1 & ~0").run() == WORD

    def test_constant_zero_divisor_faults_at_run_time(self):
        vm = build("def f(a):\n    return a // (2 - 2)")
        with pytest.raises(ExecutionError):
            vm.run(7)

    def test_nothing_follows_a_return(self):
        code = compile_pluglet("""
def f(a):
    if a > 1:
        return 1
    else:
        return 2
    a = 7
""")
        assert [ins.opcode for ins in code] == [
            Op.JLE_IMM, Op.MOV_IMM, Op.EXIT, Op.MOV_IMM, Op.EXIT]
        assert not analyze(code).diagnostics

    def test_locals_in_registers_survive_helper_calls(self):
        calls = []
        vm = build("""
def f(a):
    x = a + 1
    y = g(x)
    z = g(y) + x
    return z + y
""", helpers_map={"g": 1},
            helpers_impl={1: lambda vm, v, *r: calls.append(v) or v * 2})
        assert vm.run(3) == (16 + 4) + 8
        assert calls == [4, 8]

    def test_temporaries_live_across_calls(self):
        vm = build("def f(a):\n    return a * 3 + g(a) * g(a + 1) + g(2)",
                   helpers_map={"g": 1},
                   helpers_impl={1: lambda vm, v, *r: v + 10})
        assert vm.run(1) == 3 + 11 * 12 + 12

    def test_field_id_is_a_constant_at_the_call(self):
        report = analyze(compile_pluglet(
            "def f(i):\n    return get(7, i) + get(2 + 1, i)",
            helpers={"get": 1}))
        assert [site.const_arg(0) for site in report.call_sites] == [7, 3]

    def test_maybe_unassigned_register_local_reads_zero(self):
        source = """
def f(a):
    if a:
        x = 5
    return x
"""
        assert not analyze(compile_pluglet(source)).errors()
        vm = build(source)
        assert (vm.run(1), vm.run(0)) == (5, 0)

    def test_bounded_loop_keeps_its_register_counter_proof(self):
        report = analyze(compile_pluglet("""
def f():
    i = 0
    total = 0
    while i < 10:
        total = total + 2
        i = i + 1
    return total
"""))
        assert report.fuel_certificate is not None
        assert report.fuel_bound < 60


# --- the property: compiled code agrees with Python mod 2**64 -------------

#: Helper name -> (id, arity, definition); every call is logged.
PROPERTY_HELPERS = {
    "h1": (1, 1, lambda a: (a * 3 + 1) & WORD),
    "h2": (2, 2, lambda a, b: (a ^ (b << 1)) & WORD),
    "h3": (3, 3, lambda a, b, c: (a + b * c) & WORD),
}
PROPERTY_LOCALS = ("a", "b", "c", "d", "e", "g")
PROPERTY_CONSTS = (0, 1, 2, 7, 255, (1 << 31) - 1, 1 << 31, 1 << 32,
                   (1 << 63) + 5, WORD)


class _Program:
    """Draws a restricted-Python function and its Python reference: the
    same statements, with every operation reduced mod 2**64, locals
    starting at 0, and mem64 and helpers modelled by dicts and logs."""

    def __init__(self, data, max_depth: int):
        self.draw = data.draw
        self.max_depth = max_depth
        self.loops = 0

    def pick(self, options):
        return options[self.draw(st.integers(0, len(options) - 1))]

    def expr(self, depth: int) -> tuple:
        kind = self.draw(st.integers(0, 6 if depth < self.max_depth else 1))
        if kind == 0:
            name = self.pick(("x", "y") + PROPERTY_LOCALS)
            return name, name
        if kind == 1:
            value = self.draw(st.sampled_from(PROPERTY_CONSTS)
                              | st.integers(0, WORD))
            return str(value), str(value)
        if kind == 4:
            src, ref = self.expr(depth + 1)
            op = self.pick(("-", "~"))
            return f"({op}{src})", f"(({op}{ref}) & M)"
        if kind == 5:
            name = self.pick(tuple(PROPERTY_HELPERS))
            args = [self.expr(depth + 1)
                    for _ in range(PROPERTY_HELPERS[name][1])]
            return (f"{name}({', '.join(a for a, _ in args)})",
                    f"{name}({', '.join(r for _, r in args)})")
        if kind == 6:
            src, ref = self.address(depth)
            return f"mem64[{src}]", f"_ld({ref})"
        left, right = self.expr(depth + 1), self.expr(depth + 1)
        op = self.pick(("+", "-", "*", "&", "|", "^", "//", "%", "<<", ">>"))
        if op in ("<<", ">>"):
            shift = self.draw(st.integers(0, 63))
            return f"({left[0]} {op} {shift})", f"(({left[1]} {op} {shift}) & M)"
        if op in ("//", "%"):  # a nonzero divisor
            return (f"({left[0]} {op} ({right[0]} | 1))",
                    f"({left[1]} {op} ({right[1]} | 1))")
        return (f"({left[0]} {op} {right[0]})",
                f"(({left[1]} {op} {right[1]}) & M)")

    def address(self, depth: int) -> tuple:
        if depth < self.max_depth and self.draw(st.booleans()):
            src, ref = self.expr(depth + 1)  # a computed index
            return f"p + (({src} & 7) << 3)", f"p + (({ref} & 7) << 3)"
        disp = 8 * self.draw(st.integers(0, 7))
        return f"p + {disp}", f"p + {disp}"

    def cond(self) -> tuple:
        kind = self.draw(st.integers(0, 3))
        if kind == 3:
            src, ref = self.expr(1)
            return src, ref
        left, right = self.expr(1), self.expr(1)
        op = self.pick(("<", "<=", ">", ">=", "==", "!="))
        src, ref = f"{left[0]} {op} {right[0]}", f"{left[1]} {op} {right[1]}"
        if kind == 1:
            other = self.cond()
            join = self.pick(("and", "or"))
            return (f"({src}) {join} ({other[0]})",
                    f"({ref}) {join} ({other[1]})")
        if kind == 2:
            return f"not ({src})", f"not ({ref})"
        return src, ref

    def block(self, indent: str, depth: int, loop: bool) -> list:
        lines = []
        for _ in range(self.draw(st.integers(1, 3))):
            lines += self.stmt(indent, depth, loop)
        return lines

    def stmt(self, indent: str, depth: int, loop: bool) -> list:
        kind = self.draw(st.integers(0, 5 if depth < 2 else 2))
        if kind == 0:
            name = self.pick(PROPERTY_LOCALS)
            src, ref = self.expr(0)
            return [(f"{indent}{name} = {src}", f"{indent}{name} = {ref}")]
        if kind == 1:
            name = self.pick(PROPERTY_LOCALS)
            src, ref = self.expr(1)
            op = self.pick(("+", "-", "*", "^"))
            return [(f"{indent}{name} {op}= {src}",
                     f"{indent}{name} = ({name} {op} {ref}) & M")]
        if kind == 2:
            value, address = self.expr(0), self.address(0)
            return [(f"{indent}mem64[{address[0]}] = {value[0]}",
                     f"{indent}_st({value[1]}, {address[1]})")]
        if kind == 3:
            test = self.cond()
            lines = [(f"{indent}if {test[0]}:", f"{indent}if {test[1]}:")]
            lines += self.block(indent + "    ", depth + 1, loop)
            if self.draw(st.booleans()):
                lines += [(f"{indent}else:", f"{indent}else:")]
                lines += self.block(indent + "    ", depth + 1, loop)
            return lines
        if kind == 4:
            test = self.cond()
            inner = indent + "    "
            exit_ = self.pick(("return", "break") if loop else ("return",))
            if exit_ == "return":
                src, ref = self.expr(1)
                body = [(f"{inner}return {src}", f"{inner}return {ref}")]
            else:
                body = [(f"{inner}break", f"{inner}break")]
            return [(f"{indent}if {test[0]}:", f"{indent}if {test[1]}:")] + body
        counter = f"i{self.loops}"
        self.loops += 1
        bound = self.draw(st.integers(0, 4))
        inner = indent + "    "
        return ([(f"{indent}{counter} = 0", f"{indent}{counter} = 0"),
                 (f"{indent}while {counter} < {bound}:",
                  f"{indent}while {counter} < {bound}:")]
                + self.block(inner, depth + 1, True)
                + [(f"{inner}{counter} += 1", f"{inner}{counter} += 1")])

    def function(self) -> tuple:
        body = self.block("    ", 0, False)
        src, ref = self.expr(0)
        body.append((f"    return {src}", f"    return {ref}"))
        names = PROPERTY_LOCALS + tuple(f"i{k}" for k in range(self.loops))
        # Dead assignments after the return make every local a name the
        # compiler knows; a read before any live assignment sees 0.
        source = ("def f(p, x, y):\n" + "\n".join(s for s, _ in body) + "\n"
                  + "\n".join(f"    {name} = 0" for name in PROPERTY_LOCALS))
        reference = ("def f(p, x, y):\n"
                     f"    {' = '.join(names)} = 0\n"
                     + "\n".join(r for _, r in body))
        return source, reference


def _run_reference(reference: str, x: int, y: int) -> tuple:
    memory: dict = {}
    log: list = []
    scope = {"M": WORD,
             "_ld": lambda address: memory.get(address, 0),
             # value first, as Python evaluates mem64[address] = value
             "_st": lambda value, address: memory.__setitem__(address, value)}
    for name, (_hid, _arity, fn) in PROPERTY_HELPERS.items():
        scope[name] = (lambda n, f: lambda *args: log.append((n, args))
                       or f(*args))(name, fn)
    exec(reference, scope)
    result = scope["f"](HEAP_BASE, x, y)
    return result, log, {a: v for a, v in memory.items()}


def _run_compiled(source: str, x: int, y: int) -> tuple:
    log: list = []
    impls = {}
    for name, (hid, arity, fn) in PROPERTY_HELPERS.items():
        impls[hid] = (lambda n, a, f: lambda vm, *regs: log.append(
            (n, regs[:a])) or f(*regs[:a]))(name, arity, fn)
    code = compile_pluglet(source, {n: h for n, (h, _a, _f)
                                    in PROPERTY_HELPERS.items()})
    verify(code)
    assert not analyze(code).errors()
    vm = VirtualMachine(code, PluginMemory(), helpers=impls)
    result = vm.run(HEAP_BASE, x, y)
    memory = {HEAP_BASE + off: int.from_bytes(vm.memory.data[off:off + 8],
                                              "little")
              for off in range(0, 64, 8)}
    return result, log, memory


class TestCompiledMatchesPython:
    """Random restricted-Python functions compile, verify and compute
    what Python computes mod 2**64: nested arithmetic on locals and
    parameters, helper calls inside expressions (so values stay live
    across a CALL), mem64 loads and stores at constant displacements and
    computed indices, ``if`` and bounded ``while``."""

    @staticmethod
    def check(data, max_depth):
        source, reference = _Program(data, max_depth).function()
        x = data.draw(st.integers(0, WORD))
        y = data.draw(st.integers(0, WORD))
        result, log, memory = _run_reference(reference, x, y)
        got, got_log, got_memory = _run_compiled(source, x, y)
        assert got == result, source
        assert got_log == log, source
        assert {a: v for a, v in memory.items() if v} == \
            {a: v for a, v in got_memory.items() if v}, source

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_functions(self, data):
        self.check(data, max_depth=3)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_register_pressure_spills(self, data):
        """Deep expressions keep more values live than there are
        registers: they spill, across helper calls too."""
        self.check(data, max_depth=7)
