"""Validators, repository, STR log, formulas: the §3 trust system."""

import pytest

from repro.core import Plugin, Pluglet
from repro.secure import (
    EquivocatingValidator,
    FormulaError,
    HashChainLog,
    KeyPair,
    PluginRepository,
    PluginValidator,
    PublicationError,
    developer_epoch_check,
    parse_formula,
    verify_path,
    verify_signature,
)
from repro.vm import assemble
from repro.vm.isa import Instruction, Op


def make_plugin(name="org.t.p", good=True):
    code = assemble("exit") if good else [Instruction(Op.MOV_IMM, dst=0)]
    return Plugin(name, [Pluglet("x", "packet_sent_event", "post", code)])


class TestSigning:
    def test_sign_verify(self):
        keys = KeyPair.generate(seed=1)
        sig = keys.sign(b"message")
        assert verify_signature(keys.public, b"message", sig)
        assert not verify_signature(keys.public, b"other", sig)

    def test_unknown_key_fails(self):
        keys = KeyPair.generate(seed=2)
        assert not verify_signature(b"\x00" * 32, b"m", keys.sign(b"m"))

    def test_deterministic_from_seed(self):
        assert KeyPair.generate(seed=3).public == KeyPair.generate(seed=3).public


class TestFormula:
    def test_paper_example(self):
        f = parse_formula("PV1 & (PV2 | PV3)")
        assert f.evaluate({"PV1", "PV2"})
        assert f.evaluate({"PV1", "PV3"})
        assert not f.evaluate({"PV1"})
        assert not f.evaluate({"PV2", "PV3"})

    def test_unicode_and_word_operators(self):
        for text in ("PV1 ∧ (PV2 ∨ PV3)", "PV1 and (PV2 or PV3)"):
            assert parse_formula(text) == parse_formula("PV1 & (PV2 | PV3)")

    def test_precedence_and_binds_tighter(self):
        f = parse_formula("A | B & C")
        assert f.evaluate({"A"})
        assert f.evaluate({"B", "C"})
        assert not f.evaluate({"B"})

    def test_minimal_sets(self):
        f = parse_formula("PV1 & (PV2 | PV3)")
        assert f.minimal_sets() == [{"PV1", "PV2"}, {"PV1", "PV3"}]
        g = parse_formula("A | A & B")
        assert g.minimal_sets() == [{"A"}]

    def test_validators_listed(self):
        assert parse_formula("A & (B | C)").validators() == {"A", "B", "C"}

    @pytest.mark.parametrize("bad", ["", "&", "A &", "(A", "A B", "A & & B"])
    def test_malformed(self, bad):
        with pytest.raises(FormulaError):
            parse_formula(bad)


class TestHashChain:
    def test_append_and_verify(self):
        log = HashChainLog()
        for i in range(5):
            log.append(b"entry-%d" % i)
        assert log.verify()
        assert len(log) == 5

    def test_tampering_detected(self):
        log = HashChainLog()
        log.append(b"a")
        log.append(b"b")
        # Rewriting an entry breaks the chain.
        from repro.secure.str_log import ChainEntry

        log._entries[0] = ChainEntry(0, b"EVIL", log._entries[0].prev_hash)
        assert not log.verify()

    def test_each_link_is_hashed_once(self, monkeypatch):
        import repro.secure.str_log as str_log

        hashed = []
        real = str_log._h
        monkeypatch.setattr(str_log, "_h",
                            lambda data: (hashed.append(data), real(data))[1])
        log = HashChainLog()
        for i in range(5):
            log.append(b"entry-%d" % i)
        for _ in range(3):
            assert log.verify() and log.head
        assert len(hashed) == len(set(hashed)) == 5

    def test_head_changes_per_entry(self):
        log = HashChainLog()
        log.append(b"a")
        h1 = log.head
        log.append(b"b")
        assert log.head != h1


class TestValidator:
    def test_epoch_validation_and_str(self):
        pv = PluginValidator("PV1", seed=1)
        plugin = make_plugin()
        signed = pv.run_epoch({plugin.name: plugin.serialize()}, epoch=1)
        assert signed.verify(pv.public_key)
        assert pv.validated(plugin.name)
        path = pv.lookup(plugin.name)
        assert verify_path(signed.root, plugin.name, plugin.serialize(), path)

    def test_failed_validation_recorded(self):
        pv = PluginValidator("PV1", seed=1)
        bad = make_plugin("org.t.bad", good=False)
        pv.run_epoch({bad.name: bad.serialize()}, epoch=1)
        assert not pv.validated(bad.name)
        assert bad.name in pv.failures
        # Absence is provable.
        proof = pv.lookup_absence(bad.name)
        from repro.secure import verify_absence

        assert verify_absence(pv.current_str.root, bad.name, proof)

    def test_one_tree_per_epoch(self):
        pv = PluginValidator("PV1", seed=1)
        pv.run_epoch({}, epoch=1)
        with pytest.raises(ValueError):
            pv.run_epoch({}, epoch=1)

    def test_termination_validator_accepts_provable_plugin(self):
        from repro.secure.validator import termination_validation

        pv = PluginValidator("PVt", seed=8, validate_fn=termination_validation)
        plugin = make_plugin()
        pv.run_epoch({plugin.name: plugin.serialize()}, epoch=1)
        assert pv.validated(plugin.name)

    def test_termination_validator_rejects_unprovable_loop(self):
        """§5: a pluglet stuck in an infinite loop would be unsafe; the
        formal-methods PV refuses to vouch for it."""
        from repro.secure.validator import termination_validation

        looping = Plugin("org.t.loop", [
            Pluglet("spin", "packet_sent_event", "post",
                    assemble("top:\nja top\nexit")),
        ])
        pv = PluginValidator("PVt", seed=8, validate_fn=termination_validation)
        pv.run_epoch({looping.name: looping.serialize()}, epoch=1)
        assert not pv.validated(looping.name)
        assert "termination" in pv.failures[looping.name]

    def test_termination_validator_decodes_each_plugin_once(
            self, monkeypatch):
        """The static checks and the termination proofs work on one
        decoded plugin."""
        from repro.plugins.multipath import build_multipath_plugin
        from repro.secure.validator import termination_validation

        plugin = build_multipath_plugin()
        decoded = []
        deserialize = Plugin.deserialize.__func__
        monkeypatch.setattr(Plugin, "deserialize", classmethod(
            lambda cls, data: decoded.append(1) or deserialize(cls, data)))
        assert termination_validation(plugin.name, plugin.serialize()) is None
        assert len(decoded) == 1

    def test_all_builtin_plugins_pass_termination_validator(self):
        from repro.plugins.datagram import build_datagram_plugin
        from repro.plugins.fec import build_fec_plugin
        from repro.plugins.monitoring import build_monitoring_plugin
        from repro.plugins.multipath import build_multipath_plugin
        from repro.secure.validator import termination_validation

        pv = PluginValidator("PVt", seed=8, validate_fn=termination_validation)
        plugins = {
            p.name: p.serialize()
            for p in (build_monitoring_plugin(), build_datagram_plugin(),
                      build_multipath_plugin(), build_fec_plugin())
        }
        pv.run_epoch(plugins, epoch=1)
        assert pv.failures == {}
        assert all(pv.validated(name) for name in plugins)

    def test_name_mismatch_fails_validation(self):
        pv = PluginValidator("PV1", seed=1)
        plugin = make_plugin("org.real.name")
        pv.run_epoch({"org.other.name": plugin.serialize()}, epoch=1)
        assert "org.other.name" in pv.failures


class TestRepository:
    def make_repo(self, n_validators=2):
        repo = PluginRepository()
        pvs = {}
        for i in range(1, n_validators + 1):
            pv = PluginValidator(f"PV{i}", seed=i)
            repo.register_validator(pv)
            pvs[pv.validator_id] = pv
        return repo, pvs

    def test_name_ownership(self):
        repo, _ = self.make_repo()
        repo.publish("alice", "org.t.p", b"v1")
        repo.publish("alice", "org.t.p", b"v2")  # update OK
        with pytest.raises(PublicationError):
            repo.publish("mallory", "org.t.p", b"evil")

    def test_epoch_produces_strs(self):
        repo, pvs = self.make_repo()
        plugin = make_plugin()
        repo.publish("alice", plugin.name, plugin.serialize())
        repo.advance_epoch()
        for vid in pvs:
            signed = repo.get_str(vid)
            assert signed.epoch == 1
            assert signed.verify(repo.validator_public_key(vid))
            assert repo.str_log(vid).verify()

    def test_str_log_grows_per_epoch(self):
        repo, pvs = self.make_repo(1)
        repo.advance_epoch()
        repo.advance_epoch()
        assert len(repo.str_log("PV1")) == 2
        assert repo.get_str("PV1", 1).root is not None

    def test_duplicate_validator_rejected(self):
        repo, _ = self.make_repo(1)
        with pytest.raises(PublicationError):
            repo.register_validator(PluginValidator("PV1", seed=9))

    def test_developer_check_passes_honest(self):
        repo, pvs = self.make_repo(1)
        plugin = make_plugin()
        repo.publish("alice", plugin.name, plugin.serialize())
        repo.advance_epoch()
        assert developer_epoch_check(repo, "alice", pvs["PV1"], plugin.name)
        assert repo.alerts == []

    def test_developer_detects_modified_binding(self):
        """§3.2: 'If a PV injects a spurious binding, the developer owning
        the plugin name will be able to detect this'."""
        repo, pvs = self.make_repo(1)
        plugin = make_plugin()
        repo.publish("alice", plugin.name, plugin.serialize())
        repo.advance_epoch()
        pv = pvs["PV1"]
        # PV stealthily swaps the code for this name.
        evil = make_plugin(plugin.name)
        evil.pluglets[0].protoop = "connection_closing"
        pv.tree.insert(plugin.name, evil.serialize())
        pv.current_str = pv._sign_root(pv.tree.root(), pv.epoch)
        assert not developer_epoch_check(repo, "alice", pv, plugin.name)
        assert repo.faulted_validators() == {"PV1"}

    def test_developer_detects_silent_removal(self):
        repo, pvs = self.make_repo(1)
        plugin = make_plugin()
        repo.publish("alice", plugin.name, plugin.serialize())
        repo.advance_epoch()
        pv = pvs["PV1"]
        pv.tree.remove(plugin.name)
        pv.current_str = pv._sign_root(pv.tree.root(), pv.epoch)
        assert not developer_epoch_check(repo, "alice", pv, plugin.name)

    def test_equivocation_detected_by_str_comparison(self):
        """§B.2.3: two different trees cannot hash to the same root, so a
        victim comparing its served STR with the archive catches the PV."""
        repo = PluginRepository()
        pv = EquivocatingValidator("PVe", seed=5)
        repo.register_validator(pv)
        plugin = make_plugin()
        repo.publish("alice", plugin.name, plugin.serialize())
        repo.advance_epoch()
        evil = make_plugin("org.t.malicious")
        pv.inject_spurious("org.t.malicious", evil.serialize())
        victim_path, victim_str = pv.lookup_for_victim("org.t.malicious")
        # The victim's proof verifies against the shadow STR...
        assert verify_path(victim_str.root, "org.t.malicious",
                           evil.serialize(), victim_path)
        # ...but the shadow STR differs from the archived one, and the
        # report nails the equivocation.
        assert victim_str.root != repo.get_str("PVe").root
        assert repo.report_observed_str("victim", victim_str)
        assert repo.faulted_validators() == {"PVe"}

    def test_consistent_str_report_is_not_alert(self):
        repo, pvs = self.make_repo(1)
        repo.advance_epoch()
        assert not repo.report_observed_str("peer", repo.get_str("PV1"))
        assert repo.alerts == []
