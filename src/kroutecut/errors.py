"""Exception types shared across the package."""


class KrcError(Exception):
    """Base class for all kroutecut errors."""


class InvalidVertex(KrcError):
    """A vertex id is out of range or otherwise unusable."""


class NoSeparator(KrcError):
    """s and t are adjacent, so no vertex separator exists."""


class ExactCapExceeded(KrcError):
    """Exact enumeration refused: too many vertices for the configured cap."""


class FreeSetBlowup(KrcError):
    """Free-edge-set enumeration would exceed the configured budget."""


class SeparatorBlowup(KrcError):
    """Separator enumeration would exceed the configured budget."""


class NoCandidateCut(KrcError):
    """No cut with a positive denominator exists for the given demands."""


class Infeasible(KrcError):
    """No feasible solution exists (uncuttable edges force connectivity)."""


class CapExceeded(KrcError):
    """Brute-force oracle refused: instance above its hard size cap."""


class NonUniformWeights(KrcError):
    """A uniform-weight algorithm was handed mixed edge weights."""


class SelfCheckFailed(KrcError):
    """A solver's re-check of its own output failed; nothing is returned."""


class NoFeasibleGuess(KrcError):
    """No value on the guess grid produced a qualifying candidate."""


class IsolatedTerminal(KrcError):
    """A demand endpoint has degree zero and cannot be represented."""


class GuessZero(KrcError):
    """A zero optimum guess with a nonempty demand set."""


class NonIntegralThreshold(KrcError):
    """A reduction parameter that must be integral is not."""


class SizeOverflow(KrcError):
    """A constructed object would exceed its size limit."""


class ParseError(KrcError):
    """Malformed instance text."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
