"""Plugin Validators (PVs) and their Signed Tree Roots (§3).

A PV validates plugins (by whatever means it has — §5: manual inspection,
fuzzing, formal methods; here: bytecode verification plus an optional
termination check), builds one Merkle Prefix Tree per epoch containing the
plugins it vouches for, signs the root (STR) and serves lookups.

Every epoch re-validates the whole published set, most of it unchanged:
bytes the process has decoded before are a store lookup
(:meth:`~repro.core.plugin.Plugin.deserialize`) whose copy builds no
pluglet unless a check reads them, and so is their §2.1 verdict, while
the checks themselves — name binding, verdict, tree — run on every
epoch.  The root is signed as one :class:`SignedTreeRoot`, whose payload
is made once for its signature and every check of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.core.plugin import Plugin
from repro.vm.analysis.termination import check_termination

from .merkle import (
    AbsenceProof,
    AuthenticationPath,
    MerklePrefixTree,
    binding_bytes,
)
from .signing import KeyPair, verify_signature


@dataclass(frozen=True)
class SignedTreeRoot:
    """An STR: the tamper-resistant commitment of one PV at one epoch.
    Its payload — what is signed and what the PR's log archives — is
    made once, when the STR is."""

    validator_id: str
    epoch: int
    root: bytes
    signature: bytes
    _payload: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_payload", (
            self.validator_id.encode("utf-8")
            + self.epoch.to_bytes(8, "big")
            + self.root))

    @classmethod
    def sign(cls, keys: KeyPair, validator_id: str, epoch: int,
             root: bytes) -> "SignedTreeRoot":
        """The STR of ``root`` signed with ``keys``: one STR, whose
        signature is set as it is made."""
        signed = cls(validator_id, epoch, root, b"")
        object.__setattr__(signed, "signature", keys.sign(signed._payload))
        return signed

    def payload(self) -> bytes:
        return self._payload

    def verify(self, public_key: bytes) -> bool:
        return verify_signature(public_key, self._payload, self.signature)


def _decoded(name: str, code: bytes) -> Union[Plugin, str]:
    """The plugin, decoded once, when it carries the claimed name and
    passes static verification; otherwise the failure reason."""
    try:
        plugin = Plugin.deserialize(code)
    except Exception as exc:
        return f"undecodable plugin: {exc}"
    if plugin.name != name:
        return "plugin name does not match binding name"
    try:
        plugin.verify_all()
    except Exception as exc:
        return f"verification failed: {exc}"
    return plugin


def default_validation(name: str, code: bytes) -> Optional[str]:
    """Built-in validation: the plugin must deserialize, carry the claimed
    name and pass static verification.  Returns a failure reason or None."""
    plugin = _decoded(name, code)
    return plugin if isinstance(plugin, str) else None


def termination_validation(name: str, code: bytes) -> Optional[str]:
    """A stricter §5 validator: static checks *plus* a termination proof
    for every pluglet ("A very important property for any code is its
    (correct) termination").  PVs differ in capability — this is the
    formal-methods profile, ``default_validation`` the basic one."""
    plugin = _decoded(name, code)
    if isinstance(plugin, str):
        return plugin
    for pluglet in plugin.pluglets:
        report = check_termination(pluglet.instructions)
        if not report.proven:
            return (
                f"pluglet {pluglet.name!r}: termination not proven "
                f"({report.reason})"
            )
    return None


class PluginValidator:
    """One PV: validates, commits, signs, serves proofs."""

    def __init__(
        self,
        validator_id: str,
        seed: Optional[int] = None,
        validate_fn: Optional[Callable] = None,
        tree_depth: int = 16,
    ):
        self.validator_id = validator_id
        self.keys = KeyPair.generate(seed)
        self.validate_fn = validate_fn or default_validation
        self.tree_depth = tree_depth
        self.epoch = -1
        self.tree = MerklePrefixTree(tree_depth)
        self.current_str: Optional[SignedTreeRoot] = None
        #: Failure causes communicated to the PR (§3.1).
        self.failures: dict[str, str] = {}

    @property
    def public_key(self) -> bytes:
        return self.keys.public

    # ------------------------------------------------------------------

    def run_epoch(self, plugins: dict, epoch: int) -> SignedTreeRoot:
        """Validate ``{name: serialized_plugin}`` and sign the new tree.

        A PV builds at most one tree per epoch (§3.1)."""
        if epoch <= self.epoch:
            raise ValueError(
                f"PV {self.validator_id} already signed epoch {self.epoch}"
            )
        tree = MerklePrefixTree(self.tree_depth)
        failures: dict[str, str] = {}
        for name, code in sorted(plugins.items()):
            reason = self.validate_fn(name, code)
            if reason is None:
                tree.insert(name, code)
            else:
                failures[name] = reason
        self.tree = tree
        self.failures = failures
        self.epoch = epoch
        self.current_str = self._sign_root(tree.root(), epoch)
        return self.current_str

    def _sign_root(self, root: bytes, epoch: int) -> SignedTreeRoot:
        return SignedTreeRoot.sign(self.keys, self.validator_id, epoch, root)

    # ------------------------------------------------------------------

    def lookup(self, name: str) -> AuthenticationPath:
        """PQUIC user lookup: the authentication path (co-located bindings
        as hashes only, for bandwidth — §B.2.1)."""
        return self.tree.prove(name)

    def developer_lookup(self, name: str):
        """Developer lookup: path plus clear-text co-located bindings."""
        return self.tree.developer_lookup(name)

    def lookup_absence(self, name: str) -> AbsenceProof:
        return self.tree.prove_absence(name)

    def validated(self, name: str) -> bool:
        return name in self.tree


class EquivocatingValidator(PluginValidator):
    """A malicious PV maintaining a second, doctored tree (App. B.2.3).

    It shows the honest tree to developers and the doctored one (with a
    spurious binding) to targeted PQUIC users.  Building two trees that
    hash to the same root is computationally infeasible, so the two STRs
    differ — which is exactly what the non-equivocation audit catches.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadow_tree: Optional[MerklePrefixTree] = None
        self.shadow_str: Optional[SignedTreeRoot] = None

    def inject_spurious(self, name: str, malicious_code: bytes) -> None:
        """Create the doctored tree containing a spurious binding."""
        shadow = MerklePrefixTree(self.tree_depth)
        for entries in self.tree._leaves.values():
            for entry_name, _h, binding in entries:
                sep = binding.index(b"\x00")
                shadow.insert(entry_name, binding[sep + 1:])
        shadow.insert(name, malicious_code)
        self.shadow_tree = shadow
        self.shadow_str = self._sign_root(shadow.root(), self.epoch)

    def lookup_for_victim(self, name: str):
        """What the PV serves the targeted user: a *valid* proof against
        the shadow STR."""
        assert self.shadow_tree is not None
        return self.shadow_tree.prove(name), self.shadow_str
