"""Secure plugin management: validators, Merkle trees, the repository."""

from .formula import Formula, FormulaError, parse_formula
from .merkle import (
    AbsenceProof,
    AuthenticationPath,
    MerklePrefixTree,
    binding_bytes,
    name_prefix,
    verify_absence,
    verify_path,
)
from .repository import (
    Alert,
    PluginRepository,
    PublicationError,
    developer_epoch_check,
)
from .signing import KeyPair, verify_signature
from .str_log import ChainEntry, HashChainLog
from .validator import (
    EquivocatingValidator,
    PluginValidator,
    SignedTreeRoot,
    default_validation,
    termination_validation,
)

__all__ = [
    "AbsenceProof",
    "Alert",
    "AuthenticationPath",
    "ChainEntry",
    "EquivocatingValidator",
    "Formula",
    "FormulaError",
    "HashChainLog",
    "KeyPair",
    "MerklePrefixTree",
    "PluginRepository",
    "PluginValidator",
    "PublicationError",
    "SignedTreeRoot",
    "binding_bytes",
    "default_validation",
    "termination_validation",
    "developer_epoch_check",
    "name_prefix",
    "parse_formula",
    "verify_absence",
    "verify_path",
    "verify_signature",
]
