"""Differential test: the self-ordering one-pass settle against the
classic fixed-point settle (:mod:`tests.hdl.reference_simulator`).

Both kernels run the full label stack modifier through the same
transaction sequences -- random ones and a fixed route-churn sequence --
in lockstep.  After every clock edge every signal must hold the same
value, every transaction must return the same result and cycle count,
and the recorded waveforms must render to the same VCD.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdl.simulator import Simulator
from repro.hdl.waveform import WaveformRecorder, dump_vcd
from repro.hw import ModifierDriver
from repro.hw.modifier import LabelStackModifier
from repro.mpls.label import LabelEntry, LabelOp
from tests.hdl.reference_simulator import ReferenceSimulator
from tests.hw.test_rtl_vs_model import _apply, op_step


class _Rig:
    """A modifier on one kernel, recording every signal after every
    edge.  Given the reference rig's record, it checks each edge as it
    happens, so a divergence fails at its first cycle instead of
    running a wedged transaction to its timeout."""

    def __init__(self, sim: Simulator, reference=None) -> None:
        self.driver = ModifierDriver(
            LabelStackModifier(sim=sim, ib_depth=16, stack_capacity=8)
        )
        self.sim = sim
        self.signals = list(sim.signals.values())
        self.snapshots = []
        self.reference = reference
        sim.on_tick(self._snapshot)
        self.recorder = WaveformRecorder(sim)

    def _snapshot(self, cycle: int) -> None:
        snap = (cycle, [s.value for s in self.signals])
        if self.reference is not None:
            want = self.reference.snapshots
            i = len(self.snapshots)
            assert i < len(want), f"ran past the reference at cycle {cycle}"
            if snap != want[i]:
                diff = [
                    (s.name, a, b)
                    for s, a, b in zip(self.signals, snap[1], want[i][1])
                    if a != b
                ]
                raise AssertionError(f"cycle {cycle}: {diff or snap[0]}")
        self.snapshots.append(snap)

    def vcd(self, path) -> str:
        dump_vcd(self.recorder, str(path))
        return path.read_text()


def _run_lockstep(steps, tmp_path, lsr=False):
    """Drive both kernels through ``steps``; fail on the first cycle,
    result or waveform that differs."""
    ref = _Rig(ReferenceSimulator())
    fast = _Rig(Simulator(), reference=ref)
    assert [s.name for s in fast.signals] == [s.name for s in ref.signals]
    for rig in (ref, fast):
        rig.driver.set_router_type(lsr)
        rig.driver.reset()
    for step in steps:
        want = _apply(ref.driver, step)
        got = _apply(fast.driver, step)
        assert got == want, f"diverged on {step}"
        assert fast.snapshots == ref.snapshots, f"signals diverged on {step}"
    assert fast.driver.total_cycles == ref.driver.total_cycles
    assert fast.vcd(tmp_path / "fast.vcd") == ref.vcd(tmp_path / "ref.vcd")


#: route churn on level 1: install, modify one, remove one, then look up
#: and forward through both the modified and the removed route
_CHURN = (
    [("write", (1, key, key + 1000, LabelOp.SWAP)) for key in range(300, 310)]
    + [
        ("modify", (1, 305, 777, LabelOp.SWAP)),
        ("remove", (1, 303)),
        ("search", (1, 305)),
        ("search", (1, 303)),
        ("read", (1, 2)),
        ("update", (305, 20)),
        ("push", LabelEntry(label=309, ttl=20)),
        ("write", (2, 309, 42, LabelOp.PUSH)),
        ("update", (0, 20)),
        ("pop", None),
    ]
)


class TestKernelMatchesReference:
    def test_route_churn_identical(self, tmp_path):
        _run_lockstep(_CHURN, tmp_path)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        steps=st.lists(op_step, max_size=10),
        lsr=st.booleans(),
    )
    def test_random_sequences_identical(self, tmp_path, steps, lsr):
        _run_lockstep(steps, tmp_path, lsr)

