"""Exception hierarchy shared across the package, and the base of its
hand-written value records."""

from operator import attrgetter


class SteinbergExtError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SteinbergExtError):
    """Invalid user-supplied configuration (series/rank pair, ring, mask)."""


class ResourceLimitError(SteinbergExtError):
    """An enumeration would exceed its configured cap."""


class ContractError(SteinbergExtError):
    """An internal precondition or invariant was violated (d*d != 0,
    non-minimal double-coset representative, inconsistent tables)."""


class RingAssumptionError(SteinbergExtError):
    """The coefficient ring is too degenerate for the vanishing argument:
    a required q-power unit does not exist."""


class VerificationError(SteinbergExtError):
    """A closed-form answer and an independently built complex disagree.

    ``payload`` carries the diagnostic dump (both tables and, when
    available, the offending complexes).
    """

    def __init__(self, message: str, payload: dict | None = None):
        super().__init__(message)
        self.payload = payload or {}


class _Record:
    """A value compared (a value of another class gives ``NotImplemented``)
    and printed as ``Name(field=value, ...)`` by the tuple of its class-level
    ``_fields``, two or more names; with ``==`` and no hash, it is unhashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields:
            cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{self.__class__.__name__}({shown})"


class _Frozen(_Record):
    """A :class:`_Record` that refuses assignment and hashes by its fields:
    its constructor stores them with ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key)
