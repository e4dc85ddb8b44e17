"""The classic fixed-point settle, kept only as a test oracle.

:class:`ReferenceSimulator` settles the classic way: run every
component's ``settle()`` in construction order, again and again, until
no wire changes across a pass.  It applies the same rule as :class:`~repro.hdl.simulator.Simulator`
for wires: one that no process drove in a pass reads its default.
Everything else (registration, the clock edge, hooks) is inherited, so
a design built on either simulator must behave identically cycle for
cycle.
"""

from repro.hdl.signal import Reg, Wire
from repro.hdl.simulator import CombinationalLoopError, Simulator


class ReferenceSimulator(Simulator):
    def _settle(self) -> None:
        signals = self.signals.values()
        wires = [s for s in signals if isinstance(s, Wire)]
        regs = [s for s in signals if isinstance(s, Reg)]
        for wire in wires:
            wire.begin_settle()
        for pass_index in range(self.max_settle_passes):
            before = [w.value for w in wires]
            if pass_index:
                for wire in wires:
                    wire.clear_driven()
                for reg in regs:
                    reg.unstage()
            for component in self.components:
                component.settle()
            for wire in wires:
                if not wire._driven:
                    wire.reset()
            if before == [w.value for w in wires]:
                return
        raise CombinationalLoopError(
            f"reference settle did not converge at cycle {self.cycle}"
        )
