"""Two-phase synchronous simulator.

Every simulated clock cycle runs in two phases:

1. **Settle** -- every wire starts at its default, the combinational
   processes run in one pass over a schedule, and the pass is accepted
   when it is a fixed point:

   * every wire records that it was read in the pass; a process that
     then drives it to a different value makes the read *stale*, and
     the pass is rerun (with staged register values discarded);
   * a wire that no process drove in the pass reads its ``default``:
     after the pass it is reset, and if it held another value and was
     read, that read was stale too;
   * a pass without a stale read saw every wire's final value, so it
     is accepted.

   The schedule orders itself.  It starts in construction order; each
   process that causes a stale read is moved to the front, so within a
   few cycles the order follows the data flow and each cycle settles in
   one pass.  The settle that builds or reorders the schedule is also
   held to the plain fixed-point test -- no wire changes across a pass
   -- which catches an unstable process even when nobody reads what it
   drives.  ``max_settle_passes`` bounds the passes of one settle and
   catches combinational loops, which are modelling errors.
2. **Tick** -- all sequential elements (registers, memories, FSM state)
   commit their staged updates atomically, then tracing hooks observe
   the new architectural state.

Components register themselves with the simulator on construction, so a
design is simply a tree of :class:`Component` objects sharing one
:class:`Simulator`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.hdl.signal import Reg, Signal, Wire


class CombinationalLoopError(RuntimeError):
    """The settle phase did not reach a fixed point.

    Raised when a settle still has stale reads (or, while the schedule
    is being validated, changing wires) after ``max_settle_passes``
    passes -- the Python analogue of an unstable combinational loop in
    RTL.
    """


class Component:
    """Base class for everything that lives in the simulated design.

    Subclasses override any of:

    * :meth:`settle` -- combinational logic; read any signal, drive
      wires, stage registers.  It runs once per settle pass, in an
      order the simulator learns, and a cycle may take several passes;
      it must therefore be a pure function of the signals it reads,
      apart from driving wires and staging registers.
    * :meth:`tick` -- sequential commit beyond plain :class:`Reg`
      commits (e.g. memory arrays).  Runs exactly once per cycle.
    * :meth:`reset` -- return internal state to power-on values.

    Only overridden hooks are scheduled.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        sim._register_component(self)

    # -- construction helpers ------------------------------------------------
    def wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        return self.sim.add_wire(f"{self.name}.{name}", width, default)

    def reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        return self.sim.add_reg(f"{self.name}.{name}", width, default)

    # -- simulation hooks ----------------------------------------------------
    def settle(self) -> None:  # pragma: no cover - default no-op
        """Combinational logic; may run multiple times per cycle."""

    def tick(self) -> None:  # pragma: no cover - default no-op
        """Extra sequential commit work (memories etc.)."""

    def reset(self) -> None:  # pragma: no cover - default no-op
        """Restore power-on state beyond signal defaults."""

    def settle_processes(self) -> Tuple[str, ...]:
        """Names of the methods the simulator schedules as this
        component's combinational processes."""
        return ("settle",) if type(self).settle is not Component.settle else ()


class Simulator:
    """Owns the clock, the signal table, and the component list.

    Parameters
    ----------
    max_settle_passes:
        Upper bound on settle passes per cycle before a
        :class:`CombinationalLoopError` is raised.  Once the schedule
        has ordered itself, designs here settle in one pass; a cycle
        that reorders it takes a few.
    """

    def __init__(self, max_settle_passes: int = 64) -> None:
        self.max_settle_passes = max_settle_passes
        self.cycle = 0
        self._components: List[Component] = []
        self._wires: List[Wire] = []
        self._regs: List[Reg] = []
        self._signals: Dict[str, Signal] = {}
        self._tick_hooks: List[Callable[[int], None]] = []
        #: (component, method name) processes in settle order
        self._schedule: List[Tuple[Component, str]] = []
        #: components that override :meth:`Component.tick`
        self._tickers: List[Component] = []
        #: hold the next settle to the plain fixed-point test
        self._validate = True
        #: set by a wire whose drive made an earlier read stale
        self._stale = False

    # -- registration ----------------------------------------------------
    def _register_component(self, component: Component) -> None:
        self._components.append(component)
        self._schedule.extend(
            (component, name) for name in component.settle_processes()
        )
        if type(component).tick is not Component.tick:
            self._tickers.append(component)
        self._validate = True

    def add_wire(self, name: str, width: int = 1, default: int = 0) -> Wire:
        wire = Wire(name, width, default)
        wire._sim = self
        self._add_signal(wire)
        self._wires.append(wire)
        return wire

    def add_reg(self, name: str, width: int = 1, default: int = 0) -> Reg:
        reg = Reg(name, width, default)
        self._add_signal(reg)
        self._regs.append(reg)
        return reg

    def _add_signal(self, signal: Signal) -> None:
        if signal.name in self._signals:
            raise ValueError(f"duplicate signal name {signal.name!r}")
        self._signals[signal.name] = signal

    @property
    def signals(self) -> Dict[str, Signal]:
        """Name -> signal mapping (read-only view by convention)."""
        return self._signals

    @property
    def components(self) -> List[Component]:
        """The registered components, in construction order.

        Observability tooling (:class:`repro.obs.profiling.CycleProfiler`)
        discovers FSMs and memories from this list instead of reaching
        into private state.
        """
        return list(self._components)

    def signal(self, name: str) -> Signal:
        return self._signals[name]

    def on_tick(self, hook: Callable[[int], None]) -> None:
        """Register a hook called after each clock edge with the cycle
        number just completed (used by waveform recorders and the cycle
        profiler)."""
        self._tick_hooks.append(hook)

    def remove_tick_hook(self, hook: Callable[[int], None]) -> None:
        """Detach a hook previously passed to :meth:`on_tick`."""
        self._tick_hooks.remove(hook)

    # -- simulation ------------------------------------------------------
    def _settle(self) -> None:
        wires = self._wires
        for wire in wires:  # Wire.begin_settle, inlined
            wire._driven = wire._read = False
            wire._value = wire.default
        self._stale = False
        for pass_index in range(self.max_settle_passes):
            validate = self._validate
            if validate:
                before = [w._value for w in wires]
            if pass_index:
                # conditional stages from earlier passes may rest on
                # stale reads; only the accepted pass's staging counts
                for reg in self._regs:
                    reg.unstage()
            movers = []
            for process in self._schedule:
                # looked up on every pass, so a method patched on the
                # class (by a probe, say) takes effect at once
                getattr(process[0], process[1])()
                if self._stale:
                    self._stale = False
                    movers.append(process)
            stale = bool(movers)
            if pass_index:
                # a wire driven in an earlier pass but not in this one
                # reads its default (the first pass starts from defaults)
                for wire in wires:
                    if not wire._driven and wire._value != wire.default:
                        stale = stale or wire._read
                        wire._value = wire.default
            if not stale and not (
                validate and before != [w._value for w in wires]
            ):
                self._validate = False
                return
            if movers:
                self._move_to_front(movers)
            for wire in wires:
                wire.clear_driven()
        raise CombinationalLoopError(
            f"combinational logic failed to settle within "
            f"{self.max_settle_passes} passes at cycle {self.cycle}"
        )

    def _move_to_front(self, movers: List[Tuple[Component, str]]) -> None:
        """Schedule each driver that made a read stale ahead of
        everything, the last one found first, and validate the new
        order."""
        moved = {id(p) for p in movers}
        self._schedule = movers[::-1] + [
            p for p in self._schedule if id(p) not in moved
        ]
        self._validate = True

    def step(self, cycles: int = 1) -> int:
        """Advance the clock by ``cycles`` edges; returns the new cycle
        count."""
        for _ in range(cycles):
            self._settle()
            for reg in self._regs:
                if reg._staged:
                    reg.commit()
            for component in self._tickers:
                component.tick()
            self.cycle += 1
            for hook in self._tick_hooks:
                hook(self.cycle)
        return self.cycle

    def settle_only(self) -> None:
        """Settle combinational logic without advancing the clock.

        Useful for observing Mealy outputs that depend on inputs applied
        since the last edge.
        """
        self._settle()

    def run_until(
        self,
        condition: Callable[[], bool],
        max_cycles: int = 100_000,
    ) -> int:
        """Step until ``condition()`` is true *after* a clock edge.

        Returns the number of cycles consumed.  Raises ``TimeoutError``
        if the condition does not become true within ``max_cycles`` --
        in a cycle-accurate model an unbounded wait is always a bug.
        """
        start = self.cycle
        for _ in range(max_cycles):
            self.step()
            if condition():
                return self.cycle - start
        raise TimeoutError(
            f"condition not met within {max_cycles} cycles "
            f"(started at cycle {start})"
        )

    def reset(self) -> None:
        """Asynchronous reset: all signals to defaults, components to
        power-on state, cycle counter rezeroed."""
        for signal in self._signals.values():
            signal.reset()
        for component in self._components:
            component.reset()
        self.cycle = 0
