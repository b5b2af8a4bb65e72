"""The Plugin Repository (PR) and the epoch machinery (§3).

The PR centralizes identities: developers publish plugins under names they
own, PVs register their public keys, STRs are archived per-PV in
append-only hashchains, and equivocation / spurious-binding reports are
collected.  "The state of our system [...] progresses on a discrete time
scale defined by the epoch value."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .merkle import binding_bytes
from .str_log import HashChainLog
from .validator import PluginValidator, SignedTreeRoot


class PublicationError(Exception):
    """Name ownership or publication rules violated."""


@dataclass
class Alert:
    """A misbehaviour report visible to all participants."""

    kind: str  # "equivocation" | "spurious-binding"
    validator_id: str
    reporter: str
    detail: str


class PluginRepository:
    """The PR: name registry, plugin store, STR archive, alert board."""

    def __init__(self) -> None:
        self.epoch = 0
        self._owners: dict[str, str] = {}          # plugin name -> developer
        self._plugins: dict[str, bytes] = {}        # plugin name -> serialized
        self._validators: dict[str, PluginValidator] = {}
        self._str_logs: dict[str, HashChainLog] = {}
        self._strs: dict[tuple, SignedTreeRoot] = {}  # (pv, epoch) -> STR
        self.alerts: list[Alert] = []

    # --- identities -----------------------------------------------------

    def register_validator(self, validator: PluginValidator) -> None:
        if validator.validator_id in self._validators:
            raise PublicationError(
                f"validator {validator.validator_id!r} already registered"
            )
        self._validators[validator.validator_id] = validator
        self._str_logs[validator.validator_id] = HashChainLog()

    def validator_public_key(self, validator_id: str) -> bytes:
        return self._validators[validator_id].public_key

    # --- publication ------------------------------------------------------

    def publish(self, developer: str, name: str, serialized_plugin: bytes) -> None:
        """Publish (or update) a plugin. Names are owned by their first
        publisher; the PR refuses to let anyone else bind to them."""
        owner = self._owners.get(name)
        if owner is not None and owner != developer:
            raise PublicationError(
                f"name {name!r} is owned by {owner!r}, not {developer!r}"
            )
        self._owners[name] = developer
        self._plugins[name] = serialized_plugin

    def plugin_code(self, name: str) -> Optional[bytes]:
        return self._plugins.get(name)

    # --- epochs -------------------------------------------------------------

    def advance_epoch(self) -> int:
        """Run one epoch: every PV validates the current plugin set and
        publishes its STR, which the PR archives in the PV's hashchain."""
        self.epoch += 1
        for vid, validator in sorted(self._validators.items()):
            tree_root = validator.run_epoch(dict(self._plugins), self.epoch)
            self.accept_str(tree_root)
        return self.epoch

    def accept_str(self, signed: SignedTreeRoot) -> None:
        validator = self._validators.get(signed.validator_id)
        if validator is None:
            raise PublicationError(f"unknown validator {signed.validator_id!r}")
        if not signed.verify(validator.public_key):
            raise PublicationError("STR signature invalid")
        key = (signed.validator_id, signed.epoch)
        existing = self._strs.get(key)
        if existing is not None and existing.root != signed.root:
            self.alerts.append(Alert(
                kind="equivocation",
                validator_id=signed.validator_id,
                reporter="PR",
                detail=f"two different STRs for epoch {signed.epoch}",
            ))
            return
        self._strs[key] = signed
        self._str_logs[signed.validator_id].append(
            signed.payload() + signed.signature
        )

    def get_str(self, validator_id: str, epoch: Optional[int] = None) -> SignedTreeRoot:
        epoch = self.epoch if epoch is None else epoch
        return self._strs[(validator_id, epoch)]

    def str_log(self, validator_id: str) -> HashChainLog:
        return self._str_logs[validator_id]

    # --- audits -------------------------------------------------------------

    def report_observed_str(self, reporter: str, observed: SignedTreeRoot) -> bool:
        """A peer (or another PV) reports the STR it was served; a mismatch
        with the archived STR is an equivocation (§3.2: "participants
        eventually detect this with the help of others")."""
        key = (observed.validator_id, observed.epoch)
        archived = self._strs.get(key)
        if archived is None:
            return False
        validator = self._validators[observed.validator_id]
        if not observed.verify(validator.public_key):
            return False
        if observed.root != archived.root:
            self.alerts.append(Alert(
                kind="equivocation",
                validator_id=observed.validator_id,
                reporter=reporter,
                detail=f"served STR differs from archived STR at epoch {observed.epoch}",
            ))
            return True
        return False

    def report_spurious_binding(self, developer: str, validator_id: str,
                                name: str, detail: str) -> None:
        """Developer alert after a failed developer-lookup check (§3.2)."""
        self.alerts.append(Alert(
            kind="spurious-binding",
            validator_id=validator_id,
            reporter=developer,
            detail=f"{name}: {detail}",
        ))

    def faulted_validators(self) -> set:
        return {a.validator_id for a in self.alerts}


def developer_epoch_check(repository: PluginRepository, developer: str,
                          validator: PluginValidator, name: str) -> bool:
    """The §B.2.1 developer lookup: verify the PV's tree holds exactly the
    developer's own binding for ``name``; report otherwise.

    Returns True if everything checked out."""
    from .merkle import H, verify_path

    expected_code = repository.plugin_code(name)
    path, clear_bindings = validator.developer_lookup(name)
    expected_binding = binding_bytes(name, expected_code or b"")
    trouble = None
    if expected_code is None:
        trouble = "developer has no such plugin"
    elif path is None:
        # Absent: fine only if the PV recorded a failure for it.
        if name not in validator.failures:
            trouble = "binding silently missing from the tree"
    else:
        for binding in clear_bindings:
            sep = binding.index(b"\x00")
            bname = binding[:sep].decode("utf-8")
            if bname == name and binding != expected_binding:
                trouble = "tree holds a modified binding for this name"
                break
        if trouble is None:
            root = validator.current_str.root
            if not verify_path(root, name, expected_code, path):
                trouble = "authentication path does not match the STR"
    if trouble is not None:
        repository.report_spurious_binding(
            developer, validator.validator_id, name, trouble
        )
        return False
    return True
