"""Regression test: conditional register stages must not survive a
settle pass that revokes their condition.

Found while reproducing the paper's Figure 16: during the first settle
pass a comparator's output was computed from not-yet-driven inputs
(spuriously equal), a state machine staged its output registers under
that condition, and a later pass corrected the state transition but the
stale staged output still committed -- violating the figure's
"label_out and operation_out remain unchanged" observable.
"""

from repro.hdl.simulator import Component, Simulator


class _LateDriver(Component):
    """Drives a wire to 1; registered last, so earlier components see
    the wire's default (0) during the first settle pass."""

    def __init__(self, sim, wire):
        super().__init__(sim, "late")
        self._wire = wire

    def settle(self):
        self._wire.drive(1)


class _ConditionalStager(Component):
    """Stages its output register only when ``inhibit`` is low."""

    def __init__(self, sim):
        super().__init__(sim, "stager")
        self.inhibit = self.wire("inhibit", 1)
        self.out = self.reg("out", 8)

    def settle(self):
        if not self.inhibit.value:
            self.out.stage(99)


class _GatedDriver(Component):
    """Drives ``out`` high only while ``gate`` reads low, and latches
    ``out`` into a register."""

    def __init__(self, sim):
        super().__init__(sim, "gated")
        self.gate = self.wire("gate", 1)
        self.out = self.wire("out", 1)
        self.latched = self.reg("latched", 1)

    def settle(self):
        if not self.gate.value:
            self.out.drive(1)
        self.latched.stage(self.out.value)


class TestConditionalStaging:
    def test_revoked_stage_does_not_commit(self):
        sim = Simulator()
        stager = _ConditionalStager(sim)
        _LateDriver(sim, stager.inhibit)
        # pass 1: inhibit reads 0 (default) -> stager stages 99
        # pass 2: inhibit reads 1 -> condition revoked, nothing staged
        sim.step()
        assert stager.out.value == 0

    def test_wire_left_undriven_reads_default(self):
        sim = Simulator()
        gated = _GatedDriver(sim)
        _LateDriver(sim, gated.gate)
        # pass 1: gate reads 0 (default) -> out driven to 1
        # later passes: gate reads 1 -> out undriven, so it must read
        # its default (0), not keep the 1 from pass 1
        sim.step()
        assert gated.out.value == 0
        assert gated.latched.value == 0

    def test_unrevoked_stage_commits(self):
        sim = Simulator()
        stager = _ConditionalStager(sim)
        sim.step()
        assert stager.out.value == 99

    def test_unstage_api(self):
        from repro.hdl.signal import Reg

        reg = Reg("r", width=8, default=7)
        reg.stage(42)
        reg.unstage()
        assert reg.commit() is False
        assert reg.value == 7
