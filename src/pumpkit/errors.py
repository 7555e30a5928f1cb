"""Exception types shared across the package."""


class PumpkitError(Exception):
    """Base class for all errors raised by this package."""


# -- geometry --------------------------------------------------------------

class EmptyPath(PumpkitError):
    pass


class NonSimpleCurve(PumpkitError):
    pass


class NotAlmostVertical(PumpkitError):
    """Curve is missing one of its infinite vertical rays."""


class NotAdjacent(PumpkitError):
    pass


class NotOnCurve(PumpkitError):
    pass


class WindowTooSmall(PumpkitError):
    pass


# -- tile systems ----------------------------------------------------------

class BadSystem(PumpkitError):
    pass


class BadTarget(PumpkitError):
    pass


class IllegalAttachment(PumpkitError):
    def __init__(self, step, message=""):
        super().__init__(f"step {step}: {message}" if message else f"step {step}")
        self.step = step


class Occupied(IllegalAttachment):
    pass


# -- glue analysis ---------------------------------------------------------

class OrientationMismatch(PumpkitError):
    pass


class NotCanonical(PumpkitError):
    pass


class PrefixAmbiguity(PumpkitError):
    pass


class LastGlueNotVisible(PumpkitError):
    pass


class NotEasternmost(PumpkitError):
    pass


# -- engine ----------------------------------------------------------------

class NotAShield(PumpkitError):
    pass


class ClaimViolation(PumpkitError):
    """A structural invariant the engine relies on failed at runtime.

    These invariants hold for every producible input; a violation therefore
    signals an implementation bug (or deliberately corrupted input in the
    negative self-tests), never a property of the tile system under study.
    """

    def __init__(self, claim, message=""):
        super().__init__(f"{claim}: {message}" if message else claim)
        self.claim = claim


class EmptyRouteSet(ClaimViolation):
    """No candidate binding route survived the endpoint-height filter."""

    def __init__(self, message=""):
        super().__init__("route-set-nonempty", message)


class BudgetExceeded(PumpkitError):
    pass


class BadBudget(PumpkitError, ValueError):
    """A budget value, or its ``PUMPKIT_BUDGET_*`` variable, is not a positive integer."""


# -- driver ----------------------------------------------------------------

class BadCounts(PumpkitError):
    pass


class TooShort(PumpkitError):
    pass


# -- file formats ----------------------------------------------------------

class ParseError(PumpkitError):
    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateTile(ParseError):
    pass


class DisconnectedSeed(PumpkitError):
    pass
