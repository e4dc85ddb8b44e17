"""Unit tests for the two-phase simulator."""

import pytest

from repro.hdl.simulator import (
    CombinationalLoopError,
    Component,
    Simulator,
)


class _ToggleBit(Component):
    """A register that inverts every cycle."""

    def __init__(self, sim):
        super().__init__(sim, "toggle")
        self.q = self.reg("q", 1)

    def settle(self):
        self.q.stage(1 - self.q.value)


class _Follower(Component):
    """A wire combinationally following a register (tests settle order)."""

    def __init__(self, sim, src):
        super().__init__(sim, "follower")
        self.src = src
        self.out = self.wire("out", 1)

    def settle(self):
        self.out.drive(self.src.value)


class _Oscillator(Component):
    """A deliberately unstable combinational loop."""

    def __init__(self, sim):
        super().__init__(sim, "osc")
        self.a = self.wire("a", 1)
        self._flip = 0

    def settle(self):
        # drives a different value every settle pass: never converges
        self._flip ^= 1
        self.a.drive(self._flip)


class _LateLoop(Component):
    """A read->drive loop that a register enables from cycle 3 on."""

    def __init__(self, sim):
        super().__init__(sim, "late_loop")
        self.count = self.reg("count", 4)
        self.a = self.wire("a", 1)

    def settle(self):
        self.count.stage(min(self.count.value + 1, 15))
        if self.count.value >= 3:
            self.a.drive(1 - self.a.value)


class _Inverter(Component):
    """``out = not inp`` while ``enable`` (a register) is high."""

    def __init__(self, sim, name, enable):
        super().__init__(sim, name)
        self.enable = enable
        self.inp = self.wire("inp", 1)
        self.out = self.wire("out", 1)

    def settle(self):
        if self.enable.value:
            self.out.drive(1 - self.inp.value)


class _Buffer(Component):
    """``out = inp``, counting how often it settles."""

    def __init__(self, sim, name, inp, out):
        super().__init__(sim, name)
        self.inp = inp
        self.out = out
        self.settles = 0

    def settle(self):
        self.settles += 1
        self.out.drive(self.inp.value)


class TestSimulator:
    def test_register_updates_once_per_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        assert t.q.value == 0
        sim.step()
        assert t.q.value == 1
        sim.step()
        assert t.q.value == 0

    def test_wire_follows_register_in_same_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        f = _Follower(sim, t.q)
        sim.step()
        sim.settle_only()
        assert f.out.value == t.q.value == 1

    def test_cycle_counter(self):
        sim = Simulator()
        _ToggleBit(sim)
        sim.step(5)
        assert sim.cycle == 5

    def test_combinational_loop_detected(self):
        sim = Simulator(max_settle_passes=8)
        _Oscillator(sim)
        with pytest.raises(CombinationalLoopError):
            sim.step()

    def test_run_until(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        used = sim.run_until(lambda: sim.cycle == 4)
        assert used == 4
        assert t.q.value == 0

    def test_run_until_timeout(self):
        sim = Simulator()
        _ToggleBit(sim)
        with pytest.raises(TimeoutError):
            sim.run_until(lambda: False, max_cycles=10)

    def test_reset_restores_defaults_and_cycle(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        sim.step(3)
        sim.reset()
        assert sim.cycle == 0
        assert t.q.value == 0

    def test_duplicate_signal_names_rejected(self):
        sim = Simulator()
        sim.add_wire("x", 1)
        with pytest.raises(ValueError):
            sim.add_wire("x", 1)

    def test_signal_lookup(self):
        sim = Simulator()
        w = sim.add_wire("top.bus", 8)
        assert sim.signal("top.bus") is w

    def test_on_tick_hook_sees_cycle(self):
        sim = Simulator()
        _ToggleBit(sim)
        seen = []
        sim.on_tick(seen.append)
        sim.step(3)
        assert seen == [1, 2, 3]

    def test_loop_enabled_after_first_cycle_detected(self):
        sim = Simulator(max_settle_passes=8)
        _LateLoop(sim)
        sim.step(3)
        with pytest.raises(CombinationalLoopError, match="at cycle 3"):
            sim.step()

    def test_two_process_ring_enabled_late_detected(self):
        sim = Simulator(max_settle_passes=8)
        en = sim.add_reg("en", 1)
        inv = _Inverter(sim, "inv", en)

        class _Wrap(Component):
            def settle(self):
                inv.inp.drive(inv.out.value)

        _Wrap(sim, "wrap")
        sim.step(2)
        en.force(1)
        with pytest.raises(CombinationalLoopError, match="at cycle 2"):
            sim.step()

    def test_schedule_orders_itself_to_one_pass(self):
        sim = Simulator()
        t = _ToggleBit(sim)
        wires = [sim.add_wire(f"w{i}", 1) for i in range(4)]
        # a buffer chain t.q -> w0 -> w1 -> w2 -> w3 built consumer
        # first: construction order is the reverse of the data flow
        chain = [_Buffer(sim, f"b{i}", wires[i - 1], wires[i])
                 for i in (3, 2, 1)]
        chain.append(_Buffer(sim, "b0", t.q, wires[0]))
        # each stale read moves its driver to the front; within a few
        # cycles the order follows the data flow
        sim.step(6)
        before = [b.settles for b in chain]
        sim.step(2)  # one cycle with t.q low, one with it high
        assert [b.settles - n for b, n in zip(chain, before)] == [2] * 4
        sim.settle_only()
        assert wires[3].value == t.q.value
