"""PQUIC core: protocol operations, plugins, the pluglet API and scheduler."""

from .api import CORE_HELPER_NAMES, ApiViolation, PluginApi
from .cache import FieldPolicy, PluginCache
from .containment import (
    ContainmentPolicy,
    CrashRecord,
    FailureClass,
    PluginQuarantined,
    QuarantineRegistry,
    classify_failure,
)
from .memory import AllocationError, BlockAllocator
from .plugin import HostBinding, Plugin, PluginInstance, PluginRuntime, Pluglet
from .protoop import Anchor, ProtocolOperation, ProtoopError, ProtoopTable

__all__ = [
    "Anchor",
    "AllocationError",
    "ApiViolation",
    "BlockAllocator",
    "CORE_HELPER_NAMES",
    "ContainmentPolicy",
    "CrashRecord",
    "FailureClass",
    "FieldPolicy",
    "HostBinding",
    "PluginQuarantined",
    "QuarantineRegistry",
    "classify_failure",
    "Plugin",
    "PluginApi",
    "PluginCache",
    "PluginInstance",
    "PluginRuntime",
    "Pluglet",
    "ProtocolOperation",
    "ProtoopError",
    "ProtoopTable",
]
