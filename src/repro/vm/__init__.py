"""The Pluglet Runtime Environment: ISA, verifier, interpreter, JIT, compiler."""

from .analysis import (
    AnalysisReport,
    Diagnostic,
    Severity,
    analyze,
    analyze_plugin,
    lint_plugin,
)
from .asm import AssemblyError, assemble, disassemble
from .compiler import CompileError, PlugletCompiler, compile_pluglet
from .jit import (
    JitCode,
    JitError,
    JitVirtualMachine,
    compile_jit,
    create_vm,
    jit_enabled_by_env,
    load_jit,
)
from .interpreter import (
    DEFAULT_FUEL,
    DEFAULT_HELPER_BUDGET,
    HEAP_BASE,
    STACK_BASE,
    ExecutionError,
    FuelExhausted,
    MemoryViolation,
    PluginMemory,
    VirtualMachine,
    VmError,
)
from .isa import (
    INSTRUCTION_SIZE,
    STACK_SIZE,
    Instruction,
    Op,
    decode_program,
    encode_program,
)
from .analysis.verify import VerificationError, verify, verify_bytecode

__all__ = [
    "AnalysisReport",
    "AssemblyError",
    "CompileError",
    "Diagnostic",
    "Severity",
    "DEFAULT_FUEL",
    "DEFAULT_HELPER_BUDGET",
    "ExecutionError",
    "FuelExhausted",
    "HEAP_BASE",
    "INSTRUCTION_SIZE",
    "Instruction",
    "JitCode",
    "JitError",
    "JitVirtualMachine",
    "MemoryViolation",
    "Op",
    "PluginMemory",
    "PlugletCompiler",
    "STACK_BASE",
    "STACK_SIZE",
    "VerificationError",
    "VirtualMachine",
    "VmError",
    "analyze",
    "analyze_plugin",
    "assemble",
    "compile_jit",
    "lint_plugin",
    "load_jit",
    "compile_pluglet",
    "create_vm",
    "decode_program",
    "jit_enabled_by_env",
    "disassemble",
    "encode_program",
    "verify",
    "verify_bytecode",
]
