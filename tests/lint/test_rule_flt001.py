"""FLT001: recovery paths must not bypass the retry wrapper."""

from __future__ import annotations

from .conftest import lint_snippet, rules_hit

MOD = "repro.core.bad"


class TestRecoveryPaths:
    def test_direct_send_in_recover_flagged(self):
        source = (
            "class Workstation:\n"
            "    def _recover(self):\n"
            "        self.lan.send(self.workstation_id, 'server', 'hello')\n"
        )
        assert "FLT001" in rules_hit(source, module=MOD)

    def test_direct_send_in_restart_flagged(self):
        source = (
            "def restart_endpoint(lan):\n"
            "    lan.send('a', 'b', 'msg')\n"
        )
        assert "FLT001" in rules_hit(source, module=MOD)

    def test_reregister_helper_flagged(self):
        source = (
            "class S:\n"
            "    def reregister(self):\n"
            "        self.transport.send('a', 'b', 'm')\n"
        )
        assert "FLT001" in rules_hit(source, module=MOD)

    def test_message_names_the_function(self):
        source = (
            "class W:\n"
            "    def _recover(self):\n"
            "        self.lan.send('a', 'b', 'm')\n"
        )
        (finding,) = [
            d for d in lint_snippet(source, module=MOD) if d.rule == "FLT001"
        ]
        assert "_recover()" in finding.message


class TestSanctionedForms:
    def test_push_chokepoint_is_clean(self):
        source = (
            "class Workstation:\n"
            "    def _recover(self):\n"
            "        self._push('hello')\n"
        )
        assert "FLT001" not in rules_hit(source, module=MOD)

    def test_send_reliable_is_clean(self):
        source = (
            "class W:\n"
            "    def _recover(self):\n"
            "        self.lan.send_reliable('a', 'b', 'm', self.policy)\n"
        )
        assert "FLT001" not in rules_hit(source, module=MOD)

    def test_send_outside_recovery_path_is_clean(self):
        source = (
            "class W:\n"
            "    def _send_update(self):\n"
            "        self.lan.send('a', 'b', 'm')\n"
        )
        assert "FLT001" not in rules_hit(source, module=MOD)

    def test_non_transport_receiver_is_clean(self):
        source = (
            "class W:\n"
            "    def _recover(self):\n"
            "        self.events.send('a')\n"
        )
        assert "FLT001" not in rules_hit(source, module=MOD)

    def test_out_of_scope_package_is_clean(self):
        source = (
            "def recover(lan):\n"
            "    lan.send('a', 'b', 'm')\n"
        )
        assert "FLT001" not in rules_hit(source, module="repro.experiments.bad")
