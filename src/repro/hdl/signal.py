"""Width-checked signals: the wires and registers of the RTL model.

Two signal kinds exist, matching the two roles a net plays in a
synchronous design:

* :class:`Wire` -- a combinational net.  Its value is (re)driven during
  the settle phase of every cycle by exactly one combinational process.
  Reading an undriven wire returns its ``default``.  A wire remembers
  whether it was read in the current settle pass, so the simulator can
  tell when a process drove a value that an earlier reader missed (see
  :mod:`repro.hdl.simulator`).
* :class:`Reg` -- a clocked register.  Combinational logic *stages* the
  next value via :meth:`Reg.stage`; the simulator commits all staged
  values atomically on the clock edge.  Between edges, reads always
  observe the pre-edge value, which is what gives the simulation its
  race-free, cycle-accurate semantics.

All signals carry a bit ``width`` and reject out-of-range values, so a
modelling bug that would silently truncate in Python is caught loudly
(the hardware analogue -- a too-narrow bus -- is one of the classic RTL
mistakes).
"""

from __future__ import annotations

from typing import Optional


class SignalError(Exception):
    """Base class for signal misuse (double-drive, bad stage, ...)."""


class WidthError(SignalError, ValueError):
    """A value does not fit in the signal's declared bit width."""


class Signal:
    """Common behaviour for wires and registers.

    Parameters
    ----------
    name:
        Hierarchical name used in traces and error messages.
    width:
        Bit width; values must satisfy ``0 <= value < 2**width``.
    default:
        Reset / undriven value.
    """

    __slots__ = ("name", "width", "default", "_value", "_max")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        if width < 1:
            raise WidthError(f"{name}: width must be >= 1, got {width}")
        self.name = name
        self.width = width
        self._max = (1 << width) - 1
        self.default = self._check(default)
        self._value = self.default

    def _check(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            value = int(value)
        if value < 0 or value > self._max:
            raise WidthError(
                f"{self.name}: value {value} does not fit in {self.width} bits"
            )
        return value

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        """Return the signal to its default value."""
        self._value = self.default

    # the conversions read through ``value`` so that a wire's read is
    # recorded however it happens
    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __index__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Signal):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}[{self.width}]={self._value}>"


class Wire(Signal):
    """A combinational net, driven during the settle phase.

    The simulator clears the *driven* and *read* flags at the start of
    each settle pass; a combinational process then calls :meth:`drive`.
    Driving a wire twice in one settle pass with different values
    indicates two processes fighting over the net and raises
    :class:`SignalError`.  A first drive that changes a wire already
    read in the pass is a *stale read*: the reader saw a value the wire
    no longer holds, and the wire reports it to its simulator.
    """

    __slots__ = ("_driven", "_read", "_sim")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._driven = False
        self._read = False
        #: the simulator told about stale reads (None: a free wire)
        self._sim = None

    @property
    def value(self) -> int:
        self._read = True
        return self._value

    def begin_settle(self) -> None:
        """Revert to the default (undriven) value and forget this
        pass's drive and reads."""
        self.clear_driven()
        self._value = self.default

    def clear_driven(self) -> None:
        """Start another pass: keep the value from the previous pass
        (so early readers observe it) but forget its drive and reads."""
        self._driven = False
        self._read = False

    def drive(self, value: int) -> bool:
        """Drive the wire; returns True if the value changed."""
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
        if self._driven:
            if self._value != value:
                raise SignalError(
                    f"wire {self.name} driven to conflicting values "
                    f"{self._value} and {value} in one settle pass"
                )
            return False
        self._driven = True
        if self._value == value:
            return False
        if self._read and self._sim is not None:
            self._sim._stale = True
        self._value = value
        return True


class Reg(Signal):
    """A clocked register with staged-next-value semantics."""

    __slots__ = ("_next", "_staged")

    def __init__(self, name: str, width: int = 1, default: int = 0) -> None:
        super().__init__(name, width, default)
        self._next: Optional[int] = None
        self._staged = False

    def stage(self, value: int) -> None:
        """Stage ``value`` to be committed at the next clock edge."""
        if type(value) is not int or value < 0 or value > self._max:
            value = self._check(value)
        self._next = value
        self._staged = True

    @property
    def staged(self) -> bool:
        return self._staged

    @property
    def next_value(self) -> int:
        """The value this register will hold after the next edge."""
        return self._next if self._staged else self._value

    def unstage(self) -> None:
        """Discard any staged value.

        Called by the simulator between settle passes: combinational
        logic re-runs every pass, so only the final pass's staging may
        survive.  Without this, a stage() performed under a condition
        that a later pass revokes (e.g. a comparator output before its
        inputs settled) would commit stale data.
        """
        self._next = None
        self._staged = False

    def commit(self) -> bool:
        """Clock edge: adopt the staged value.  Returns True on change."""
        if not self._staged:
            return False
        changed = self._value != self._next
        self._value = self._next  # type: ignore[assignment]
        self._next = None
        self._staged = False
        return changed

    def force(self, value: int) -> None:
        """Asynchronously load ``value``, bypassing the clock.

        The hardware analogue of a parallel-load / preset pin: the
        register adopts the value immediately and any staged next value
        is discarded.  Used by backdoor paths that change state without
        a clock edge (e.g. the info-base bank swap loading the write
        counter), never by ordinary combinational logic -- that must
        :meth:`stage`.
        """
        self._value = self._check(value)
        self._next = None
        self._staged = False

    def reset(self) -> None:
        super().reset()
        self._next = None
        self._staged = False
